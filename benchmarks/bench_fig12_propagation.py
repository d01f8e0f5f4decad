"""Figure 12 — propagation cost of normalized vs. de-normalized storage.

Paper: same query as Figure 11, but here the Baseline scheme must also
*re-assemble* the summary objects from their normalized primitives for
propagation (instead of reading them from the de-normalized
R_SummaryStorage).  That makes it ≈7× slower than the Summary-BTree
scheme, which propagates straight from the de-normalized heap.
"""

import functools

import pytest

from repro.bench import FigureTable, fresh_database
from repro.bench.queries import range_bounds, two_predicate_query

CASES = {
    # scheme, normalized_propagation
    "Summary-BTree De-Normalized Prop.": ("summary_btree", False),
    "Baseline Normalized Propagation": ("baseline", True),
}


@functools.cache
def replicated_database(num_birds: int, density: int):
    """One database per density, owned by this bench: building the
    normalized replicas grows the disk, which a ``cached_database`` lease
    shared with other benches forbids."""
    db = fresh_database(
        num_birds=num_birds, annotations_per_tuple=density,
        indexes="both", cell_fraction=0.0,
    )
    db.create_normalized_replicas("birds")
    return db


@pytest.mark.benchmark(group="fig12-propagation")
@pytest.mark.parametrize("label", list(CASES))
@pytest.mark.parametrize("density", [10, 25, 50, 100, 200])
def test_propagation(benchmark, case, label, density, preset, figure_writer):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    db = replicated_database(preset.num_birds, density)
    lo, hi = range_bounds(db, "Anatomy", 0.05)
    query = two_predicate_query(lo, hi, "experiment", "wikipedia")
    scheme, normalized = CASES[label]
    db.options.index_scheme = scheme
    db.options.normalized_propagation = normalized
    db.options.force_access = "index"
    try:
        m = case(db, lambda: db.sql(query))
    finally:
        db.options.index_scheme = "summary_btree"
        db.options.normalized_propagation = False
        db.options.force_access = None

    table = figure_writer.setdefault(
        "fig12_propagation",
        FigureTable(
            "Figure 12 — summary propagation under the two storage schemes",
            unit="ms",
        ),
    )
    table.add_measurement(label, preset.label(density), m)
    pages = figure_writer.setdefault(
        "fig12_propagation_pages",
        FigureTable(
            "Figure 12 (companion) — logical page accesses", unit="pages"
        ),
    )
    pages.add(label, preset.label(density), m.pages)
    if len(table.cells) == len(CASES) * len(preset.densities):
        table.note_ratio(
            "Baseline Normalized Propagation",
            "Summary-BTree De-Normalized Prop.",
            "about 7x",
        )
        pages.note_ratio(
            "Baseline Normalized Propagation",
            "Summary-BTree De-Normalized Prop.",
            "about 7x",
        )
