"""Summary-set cache — repeated summary reads, cache off vs warm.

Two shapes from the paper's read-heavy workloads, both read through
``SummaryStorage.get_many``, the one summary read path:

* the Figure 10 SP query run as a full table scan: the predicate reads
  every tuple's decoded summary objects, so a warm cache answers the
  whole scan without touching the summary heap and does strictly fewer
  buffer-pool requests than running without, and
* a Figure 12-style point-read sweep (the propagation/zoom-in hot loop):
  ``storage.get(oid)`` for every tuple, repeated, where the warm cache
  does strictly fewer buffer-pool requests than the cold run for the
  same reason.

The wall-clock ratios land in EXPERIMENTS.md; the page-count claims are
asserted here.

The shared ``cached_database`` lease is safe to use: the cache is resized
inside try/finally and fully cleared on restore, and its fingerprint
(disk pages + row counts) is unaffected by cache state.
"""

import contextlib

import pytest

from repro.bench import FigureTable, cached_database
from repro.bench.queries import equality_constant, sp_equality_query

MODES = ["cache-off", "cache-warm"]
DENSITIES = (10, 50, 200)
CACHE_BYTES = 8 << 20

#: (bench, density, mode) -> logical page accesses, for the cross-mode
#: assertion once both modes of a density have run.
_PAGES: dict = {}


@contextlib.contextmanager
def summary_cache(db, capacity: int):
    cache = db.manager.cache
    previous = cache.capacity_bytes
    cache.resize(capacity)
    try:
        yield cache
    finally:
        cache.clear()
        cache.resize(previous)


def _assert_warm_cheaper(bench: str, density: int) -> None:
    cold = _PAGES.get((bench, density, "cache-off"))
    warm = _PAGES.get((bench, density, "cache-warm"))
    if cold is not None and warm is not None:
        assert warm < cold, (
            f"{bench} d={density}: warm cache did {warm} page requests, "
            f"cold did {cold}"
        )


@pytest.mark.benchmark(group="cache-sp-query")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("density", DENSITIES)
def test_sp_query_cache(benchmark, case, mode, density, preset, figure_writer):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    db = cached_database(
        num_birds=preset.num_birds, annotations_per_tuple=density,
        indexes="summary_btree", cell_fraction=0.0,
    )
    constant = equality_constant(db, "Disease", 0.01)
    query = sp_equality_query("Disease", constant)
    db.options.index_scheme = "none"  # scan: summaries read per tuple
    capacity = CACHE_BYTES if mode == "cache-warm" else 0
    try:
        with summary_cache(db, capacity):
            if mode == "cache-warm":
                db.sql(query)  # populate
            m = case(db, lambda: db.sql(query))
    finally:
        db.options.index_scheme = "summary_btree"

    table = figure_writer.setdefault(
        "cache_sp_query",
        FigureTable(
            "Summary cache — Figure 10 SP scan, cache off vs warm",
            unit="ms",
        ),
    )
    table.add_measurement(mode, preset.label(density), m)
    pages = figure_writer.setdefault(
        "cache_sp_query_pages",
        FigureTable(
            "Summary cache (companion) — logical page accesses",
            unit="pages",
        ),
    )
    pages.add(mode, preset.label(density), m.pages)
    _PAGES[("sp", density, mode)] = m.pages
    _assert_warm_cheaper("sp", density)
    run_densities = [d for d in DENSITIES if d in preset.densities]
    if len(table.cells) == len(MODES) * len(run_densities):
        table.note_ratio(
            "cache-off", "cache-warm",
            "the warm scan reads no summary heap page",
        )


@pytest.mark.benchmark(group="cache-point-reads")
@pytest.mark.parametrize("mode", MODES)
def test_point_read_sweep_cache(benchmark, case, mode, preset, figure_writer):
    density = preset.densities[-1]
    db = cached_database(
        num_birds=preset.num_birds, annotations_per_tuple=density,
        indexes="summary_btree", cell_fraction=0.0,
    )
    storage = db.manager.storage_for("birds")
    oids = [oid for oid, _ in db.catalog.table("birds").scan()]

    def sweep():
        got = 0
        for oid in oids:
            if storage.get(oid) is not None:
                got += 1
        return range(got)  # len() == tuples served, for Measurement.rows

    capacity = CACHE_BYTES if mode == "cache-warm" else 0
    with summary_cache(db, capacity):
        if mode == "cache-warm":
            sweep()  # populate
        m = case(db, sweep)

    table = figure_writer.setdefault(
        "cache_point_reads",
        FigureTable(
            "Summary cache — point-read sweep over every tuple's "
            "summary set (Figure 12 hot loop)",
            unit="ms",
        ),
    )
    table.add_measurement(mode, preset.label(density), m)
    _PAGES[("point", density, mode)] = m.pages
    _assert_warm_cheaper("point", density)
    if len(table.cells) == len(MODES):
        table.note_ratio(
            "cache-off", "cache-warm",
            "repeated reads served without touching the summary heap",
        )
