"""Shared benchmark plumbing: measurement, database caching, and the
figure-style result tables every bench prints.

Each bench file regenerates one table/figure of the paper.  The harness
keeps that uniform:

* :func:`measure` runs a callable and captures wall time **and** the page
  I/O delta — counted I/Os make the paper's relative factors robust to
  interpreter noise (see DESIGN.md §5),
* :func:`cached_database` memoizes fully built workload databases per
  configuration so a sweep shared by several benches builds once, and
* :class:`FigureTable` accumulates (series, x-label, measurement) cells
  and renders the same rows/series the paper reports, including the
  ratio lines ("Summary-BTree is N× faster …") the figures call out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.database import Database
from repro.storage.disk import IOStats
from repro.workload.generator import WorkloadConfig, build_database

_DB_CACHE: dict[tuple, Database] = {}
#: config key -> the content fingerprint taken right after the build.
_DB_FINGERPRINTS: dict[tuple, tuple] = {}


class CachedDatabaseMutated(RuntimeError):
    """A bench mutated a database leased from :func:`cached_database`.

    Cached databases are shared across benches in a session; a mutation
    silently poisons every later measurement, so the lease check fails
    loudly instead.  Mutating benches must use :func:`fresh_database`.
    """


def _fingerprint(db: Database) -> tuple:
    """A cheap content token: total disk pages plus per-table row counts.

    ``disk.num_pages`` (not the allocations counter) because read-only
    queries may allocate and free temp pages (external sort); the net page
    count returns to baseline while the allocation counter does not.
    """
    return (
        db.disk.num_pages,
        tuple(
            (name, db.catalog.table(name).row_count)
            for name in sorted(db.catalog.table_names())
        ),
    )


def _build(config_kwargs: dict) -> Database:
    """A workload database as the paper's engine would hold it: no
    summary-set cache (capacity 0) — the paper has none, and a warm one
    flattens the very page counts the figures compare."""
    db = build_database(WorkloadConfig(**config_kwargs))
    db.manager.cache.resize(0)
    return db


def cached_database(**config_kwargs) -> Database:
    """A fully built workload database, memoized on the config values.

    Benches share sweeps (same densities, same index schemes); building a
    dense database costs tens of seconds, so one build serves all benches
    in a session.  Callers must not mutate cached databases — benches that
    insert/delete build private copies via :func:`fresh_database`.  Every
    lease re-checks a content fingerprint taken at build time and raises
    :class:`CachedDatabaseMutated` if a previous caller broke that rule.
    """
    key = tuple(sorted(config_kwargs.items()))
    if key not in _DB_CACHE:
        db = _build(config_kwargs)
        _DB_CACHE[key] = db
        _DB_FINGERPRINTS[key] = _fingerprint(db)
        return db
    db = _DB_CACHE[key]
    expected = _DB_FINGERPRINTS[key]
    actual = _fingerprint(db)
    if actual != expected:
        raise CachedDatabaseMutated(
            f"cached database for {dict(config_kwargs)!r} was mutated "
            f"(fingerprint {actual} != built {expected}); mutating benches "
            "must use fresh_database()"
        )
    return db


def fresh_database(**config_kwargs) -> Database:
    """An uncached build for benches that mutate the database."""
    return _build(config_kwargs)


def clear_cache() -> None:
    _DB_CACHE.clear()
    _DB_FINGERPRINTS.clear()


@dataclass
class Measurement:
    """One measured cell: wall seconds, disk I/O counts, and logical page
    accesses (buffer-pool requests — the interpreter-noise-free metric the
    relative factors are judged on, see DESIGN.md §5)."""

    seconds: float
    io: IOStats
    rows: int = 0
    pages: int = 0
    #: EXPLAIN ANALYZE per-operator breakdown (from :func:`measure_sql`):
    #: one dict per operator with label/rows/next_calls/self_time_s/
    #: self_pages/self_reads/self_writes, pre-order.  Empty for plain
    #: :func:`measure` runs.
    operators: list[dict] = field(default_factory=list)
    #: engine counter delta over the run (``maint.*``, ``index.*.probes``).
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def millis(self) -> float:
        return self.seconds * 1e3

    def __str__(self) -> str:
        return (
            f"{self.millis:9.2f} ms  "
            f"(pages={self.pages}, reads={self.io.reads}, "
            f"writes={self.io.writes})"
        )


def measure(db: Database, fn, repeat: int = 1) -> Measurement:
    """Run ``fn`` ``repeat`` times; report the best wall time and the I/O
    of one run (I/O is deterministic, time is noisy — best-of-N)."""
    best = float("inf")
    io = None
    rows = 0
    pages = 0
    for _ in range(repeat):
        before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        started = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            io = db.disk.stats.delta(before)
            pages = db.pool.hits + db.pool.misses - pages_before
            try:
                rows = len(out)
            except TypeError:
                rows = 0
    return Measurement(best, io, rows, pages)


def measure_sql(db: Database, query: str, repeat: int = 1) -> Measurement:
    """Measure a SELECT via ``EXPLAIN ANALYZE``: like :func:`measure`, but
    the returned :class:`Measurement` also carries the profiler's
    per-operator breakdown and the engine counter delta (index probes,
    maintenance events) of the best run."""
    best: Measurement | None = None
    for _ in range(repeat):
        report = db.explain(query, analyze=True)
        stats = report.execution
        io = IOStats(reads=stats["io_reads"], writes=stats["io_writes"])
        m = Measurement(
            stats["elapsed_s"], io, stats["rows"], stats["pages"],
            operators=stats["operators"], metrics=stats["metrics"],
        )
        if best is None or m.seconds < best.seconds:
            best = m
    assert best is not None
    return best


@dataclass
class FigureTable:
    """The printed reproduction of one paper figure.

    Cells are keyed (series name, x label); :meth:`render` prints an
    x-by-series table plus any ratio annotations registered with
    :meth:`note_ratio`.
    """

    title: str
    unit: str = "ms"
    cells: dict[tuple[str, str], float] = field(default_factory=dict)
    x_order: list[str] = field(default_factory=list)
    series_order: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, series: str, x: str, value: float) -> None:
        if x not in self.x_order:
            self.x_order.append(x)
        if series not in self.series_order:
            self.series_order.append(series)
        self.cells[(series, x)] = value

    def add_measurement(self, series: str, x: str, m: Measurement,
                        metric: str = "millis") -> None:
        self.add(series, x, getattr(m, metric))

    def value(self, series: str, x: str) -> float:
        return self.cells[(series, x)]

    def series(self, name: str) -> list[float]:
        return [self.cells[(name, x)] for x in self.x_order
                if (name, x) in self.cells]

    def ratio(self, numerator: str, denominator: str, x: str) -> float:
        """cells[numerator, x] / cells[denominator, x]."""
        denom = self.cells[(denominator, x)]
        return self.cells[(numerator, x)] / max(denom, 1e-12)

    def mean_ratio(self, numerator: str, denominator: str) -> float:
        ratios = [
            self.ratio(numerator, denominator, x)
            for x in self.x_order
            if (numerator, x) in self.cells and (denominator, x) in self.cells
        ]
        return sum(ratios) / len(ratios)

    def note_ratio(self, slower: str, faster: str, claim: str = "") -> float:
        """Record (and return) the mean slower/faster ratio as a note —
        the "N× speedup" annotations the paper's figures call out."""
        factor = self.mean_ratio(slower, faster)
        suffix = f"  [paper: {claim}]" if claim else ""
        self.notes.append(
            f"{faster} is {factor:.1f}x faster than {slower}{suffix}"
        )
        return factor

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        width = max(
            [len(s) for s in self.series_order] + [12]
        )
        col = max([len(x) for x in self.x_order] + [10]) + 2
        lines = [f"== {self.title} ({self.unit}) =="]
        header = " " * width + "".join(f"{x:>{col}}" for x in self.x_order)
        lines.append(header)
        for s in self.series_order:
            row = f"{s:<{width}}"
            for x in self.x_order:
                v = self.cells.get((s, x))
                row += f"{'-':>{col}}" if v is None else f"{v:>{col}.2f}"
            lines.append(row)
        lines += [f"  * {n}" for n in self.notes]
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())
