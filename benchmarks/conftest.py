"""Shared fixtures for the figure-reproduction benchmarks.

Run with::

    pytest benchmarks/ --benchmark-only

Every bench prints (and writes to ``bench_results/``) a figure-style table
matching the paper's series; pytest-benchmark's own comparison tables give
the raw timings.  ``REPRO_BENCH_SCALE`` ∈ {quick, default, full} selects
the workload scale (see ``repro.bench.presets``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench import FigureTable, Measurement, active_preset

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture(scope="session")
def preset():
    return active_preset()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def case(benchmark):
    """Benchmark a callable via pytest-benchmark while capturing the page
    I/O delta; returns a Measurement usable in a FigureTable."""

    def run_case(db, fn, rounds: int = 3) -> Measurement:
        holder: dict = {}

        def wrapped():
            before = db.disk.stats.snapshot()
            pages_before = db.pool.hits + db.pool.misses
            out = fn()
            holder["io"] = db.disk.stats.delta(before)
            holder["pages"] = db.pool.hits + db.pool.misses - pages_before
            try:
                holder["rows"] = len(out)
            except TypeError:
                holder["rows"] = 0
            return out

        benchmark.pedantic(wrapped, rounds=rounds, iterations=1)
        return Measurement(benchmark.stats.stats.min, holder["io"],
                           holder["rows"], holder["pages"])

    return run_case


#: rendered figure tables, printed after capture ends (terminal summary).
_RENDERED: list[str] = []


@pytest.fixture(scope="module")
def figure_writer(results_dir, preset):
    """Collects FigureTables from a bench module; when the module's
    benches finish they are written to ``bench_results/<name>.txt`` and
    queued for the terminal summary (which pytest emits uncaptured, so
    the paper-style series appear in plain benchmark runs).  Each table
    ends with the scale it was measured at, so a rerun at another
    ``REPRO_BENCH_SCALE`` shows in the diff."""
    tables: dict[str, FigureTable] = {}
    yield tables
    scale = (f"  scale: REPRO_BENCH_SCALE={preset.name}, "
             f"{preset.num_birds} birds")
    for name, table in tables.items():
        text = table.render() + "\n" + scale
        _RENDERED.append(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter):
    if not _RENDERED:
        return
    terminalreporter.section("paper figure reproductions")
    for text in _RENDERED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
