"""Figure 14 — effectiveness of transformation Rules 2 and 5.

Paper: Example 4's query (Birds ⋈ Synonyms on a data column, summary
selection ``Disease > 5``, output sorted by the disease count).  Synonyms
does not link ClassBird1, so Rule 2 pushes the summary selection below
the join where the Summary-BTree answers it (already sorted — Rule 5
then deletes the sort).  The optimized plan wins by ≈15× across all four
join/sort configurations.
"""

import pytest

from repro.bench import FigureTable, cached_database
from repro.bench.queries import example4_query

CONFIGS = {
    "NLoop-Mem": ("nloop", "mem"),
    "NLoop-Disk": ("nloop", "disk"),
    "Index-Mem": ("index", "mem"),
    "Index-Disk": ("index", "disk"),
}
MODES = {"Optimization-Disabled": False, "Optimization-Enabled": True}


@pytest.mark.benchmark(group="fig14-rules-2-5")
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("config", list(CONFIGS))
def test_rules_2_and_5(benchmark, case, config, mode, preset, figure_writer):
    db = cached_database(
        num_birds=preset.num_birds, annotations_per_tuple=200,
        indexes="summary_btree", cell_fraction=0.0,
    )
    # Threshold chosen so a few percent of tuples qualify at density 200.
    from repro.bench.queries import range_bounds

    _lo, hi = range_bounds(db, "Disease", 0.95)
    query = example4_query(threshold=hi)
    join, sort = CONFIGS[config]
    db.options.force_join = join
    db.options.force_sort = sort
    db.options.enable_rules = MODES[mode]
    try:
        m = case(db, lambda: db.sql(query))
    finally:
        db.options.force_join = None
        db.options.force_sort = None
        db.options.enable_rules = True

    table = figure_writer.setdefault(
        "fig14_rules_2_5",
        FigureTable(
            "Figure 14 — Example 4 query, Rules 2 & 5 on/off "
            "(9M-equivalent density)",
            unit="ms",
        ),
    )
    table.add(mode, config, m.millis)
    pages = figure_writer.setdefault(
        "fig14_rules_2_5_pages",
        FigureTable(
            "Figure 14 (companion) — logical page accesses",
            unit="pages",
        ),
    )
    pages.add(mode, config, m.pages)
    if len(table.cells) == len(CONFIGS) * len(MODES):
        table.note_ratio(
            "Optimization-Disabled", "Optimization-Enabled", "about 15x"
        )
        pages.note_ratio(
            "Optimization-Disabled", "Optimization-Enabled", "about 15x"
        )
