"""§4.1.3 Theorem — Summary-BTree operation bounds (ablation bench).

Paper: with N classifier objects of k labels each and page fanout B,

* adding an annotation that inserts a new object costs O(k·log_B kN),
* adding one that updates an existing label costs O(2·log_B kN),
* equality search costs O(log_B kN).

The bench measures actual B-Tree node touches per operation as N grows
8× and checks the growth is logarithmic (node touches grow by ≈a
constant number of levels, not multiplicatively).
"""

import random

import pytest

from repro.bench import FigureTable, fresh_database
from repro.bench.queries import equality_constant
from repro.workload.generator import WorkloadConfig, annotation_batch

DENSITIES = (10, 25, 50, 100, 200)


def _touches_per_op(db, config, rng):
    """(search, update-insert) node touches per operation at this scale."""
    index = db.derived[("summary", "birds", "ClassBird1")]
    tree = index.tree

    constant = equality_constant(db, "Disease", 0.01)
    tree.reset_touches()
    index.lookup_eq("Disease", constant)
    search_touches = tree.touches

    oids = [oid for oid, _ in db.catalog.table("birds").scan()]
    tree.reset_touches()
    ops = 20
    for _ in range(ops):
        [(text, targets)] = annotation_batch(rng, rng.choice(oids), config, 1)
        db.manager.add_annotation(text, targets)
    update_touches = tree.touches / ops
    return search_touches, update_touches


@pytest.mark.benchmark(group="theorem-bounds")
@pytest.mark.parametrize("density", DENSITIES)
def test_logarithmic_bounds(benchmark, density, preset, figure_writer):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    config = WorkloadConfig(
        num_birds=preset.num_birds, annotations_per_tuple=density,
        indexes="summary_btree", cell_fraction=0.0,
    )

    def run():
        db = fresh_database(
            num_birds=config.num_birds,
            annotations_per_tuple=config.annotations_per_tuple,
            indexes="summary_btree", cell_fraction=0.0,
        )
        return _touches_per_op(db, config, random.Random(5))

    search_touches, update_touches = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    table = figure_writer.setdefault(
        "theorem_bounds",
        FigureTable(
            "Theorem §4.1.3 — B-Tree node touches per operation",
            unit="node touches",
        ),
    )
    x = preset.label(density)
    table.add("Equality search", x, search_touches)
    table.add("Annotation update", x, update_touches)
    active = [d for d in DENSITIES if d in preset.densities]
    if len(table.cells) == 2 * len(active):
        lo = table.value("Equality search", table.x_order[0])
        hi = table.value("Equality search", table.x_order[-1])
        table.note(
            f"search touches grow {lo:.0f} -> {hi:.0f} over a "
            f"{active[-1] // active[0]}x data growth"
            "  [theorem: logarithmic, +O(1) levels]"
        )
        # Logarithmic: far below linear scaling with the data growth.
        assert hi <= lo + 4 * (len(active) - 1)
