"""Ablation — J implementation choices: block nested-loop vs index-based.

§5.2: "InsightNotes supports only two implementation choices for the J
operator, which are either a block nested-loop join, or an index-based
join"; §8 lists richer operator implementations as future work.  This
bench compares the two on a label-equality summary join where the inner
relation carries a Summary-BTree: the index variant probes per outer row
instead of evaluating the predicate on every pair.
"""

import random

import pytest

from repro.bench import FigureTable, fresh_database
from repro.bench.queries import CLASS_EXPR
from repro.workload.generator import WorkloadConfig, annotation_batch

_DBS: dict[tuple[int, int], object] = {}

QUERY = (
    "Select r.common_name, s.synonym From birds r, synonyms s "
    f"Where r.{CLASS_EXPR}('Disease') = s.{CLASS_EXPR}('Disease')"
)


def _joined_db(preset, density):
    key = (preset.num_birds, density)
    if key in _DBS:
        return _DBS[key]
    db = fresh_database(
        num_birds=preset.num_birds, annotations_per_tuple=density,
        indexes="summary_btree", cell_fraction=0.0,
    )
    # Synonyms carries ClassBird1 too, with its own Summary-BTree — the
    # inner side the index-based J probes.
    db.manager.link("synonyms", "ClassBird1")
    rng = random.Random(77)
    config = WorkloadConfig(cell_fraction=0.0)
    for oid, _values in list(db.catalog.table("synonyms").scan()):
        db.add_annotations_bulk(
            annotation_batch(rng, oid, config, max(1, density // 5),
                             table="synonyms")
        )
    db.create_summary_index("synonyms", "ClassBird1")
    db.analyze("birds")
    db.analyze("synonyms")
    _DBS[key] = db
    return db


@pytest.mark.benchmark(group="ablation-summary-join")
@pytest.mark.parametrize("impl", ["J-NLoop", "J-Index"])
@pytest.mark.parametrize("density", [10, 50, 200])
def test_join_implementations(
    benchmark, case, impl, density, preset, figure_writer
):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    db = _joined_db(preset, density)
    db.options.force_join = "nloop" if impl == "J-NLoop" else "index"
    try:
        m = case(db, lambda: db.sql(QUERY), rounds=1)
    finally:
        db.options.force_join = None

    table = figure_writer.setdefault(
        "ablation_summary_join",
        FigureTable(
            "Ablation — J operator: block nested-loop vs Summary-BTree "
            "index probes",
            unit="ms",
        ),
    )
    table.add_measurement(impl, preset.label(density), m)
    pages = figure_writer.setdefault(
        "ablation_summary_join_pages",
        FigureTable(
            "Ablation (companion) — J operator logical page accesses",
            unit="pages",
        ),
    )
    pages.add(impl, preset.label(density), m.pages)
    active = [d for d in (10, 50, 200) if d in preset.densities]
    if len(table.cells) == 2 * len(active):
        table.note_ratio("J-NLoop", "J-Index",
                         "index probes beat pair evaluation")
        pages.note_ratio("J-NLoop", "J-Index",
                         "index probes beat pair evaluation")
