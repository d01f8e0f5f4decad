"""Overload behaviour — admission control keeps latency typed and flat.

The failure mode this PR exists to prevent: a server offered more work
than its statement slots can absorb either stacks unbounded queue latency
(every client suffers) or falls over.  With the bounded admission queue
the contract is different — excess statements are *shed* with a typed
``ServerOverloadedError`` within the queue deadline, and the statements
that are admitted see latency close to the uncontended baseline.

Two phases on fresh servers (1 statement worker, queue of 1):

* **uncontended** — one closed-loop client; per-statement p50 is the
  baseline.
* **overload** — 4× the worker count of closed-loop clients offering
  continuous load; every outcome must be an ok result or a typed shed.

Acceptance gates (asserted here, recorded in EXPERIMENTS.md):

* at least one statement is shed, and every shed is typed;
* shed answers arrive within the queue deadline (+ scheduling slack);
* accepted-statement p50 stays within ``LATENCY_GATE``× of the
  uncontended p50 — overload degrades *capacity*, not admitted latency.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.bench import FigureTable
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import ServerError
from repro.server import QueryClient, QueryServer
from repro.storage.record import ValueType

#: table rows (service time must dominate scheduling noise).
ROWS = {"quick": 300, "default": 800, "full": 1600}

#: closed-loop statements per client in the overload phase.
STATEMENTS = {"quick": 80, "default": 150, "full": 250}

#: statement workers; offered load is OVERLOAD_FACTOR * workers clients.
WORKERS = 1
OVERLOAD_FACTOR = 4

QUEUE_TIMEOUT = 0.3
#: thread scheduling slack allowed on top of the queue deadline.
SHED_SLACK = 0.7

#: how long a client honours a shed before re-offering — the retry
#: contract (ResilientQueryClient backs off the same way); without it
#: shed clients would camp on the queue slot and admitted statements
#: would always start behind a full queue.
SHED_BACKOFF = 0.05

LATENCY_GATE = 2.0

#: full table scan server-side, but a small (rows/50) result — the
#: measured latency is the server's service + queue time, not the
#: clients' own response-decode time.
STATEMENT = "Select name, v From t r Where r.v = 7"


def _overload_server(rows: int, **server_kwargs) -> QueryServer:
    """A started server over a fresh seeded database, with the admission
    knobs exposed (the bench_concurrency set-up)."""
    db = Database(buffer_pages=256)
    db.create_table(
        "t", [Column("name", ValueType.TEXT), Column("v", ValueType.INT)]
    )
    for i in range(rows):
        db.insert("t", [f"r{i}", i % 50])
    server = QueryServer(db, **server_kwargs)
    server.start()
    return server


def _run_uncontended(rows: int, statements: int) -> list[float]:
    server = _overload_server(rows, workers=WORKERS, max_connections=64)
    try:
        latencies = []
        with QueryClient(port=server.port,
                         response_timeout=30) as client:
            for _ in range(statements):
                started = time.perf_counter()
                result = client.execute(STATEMENT)
                latencies.append(time.perf_counter() - started)
                assert result["row_count"] == rows // 50
        return latencies
    finally:
        server.stop()


def _run_overload(rows: int, statements: int):
    """Returns (accepted latencies, shed latencies, stray errors)."""
    server = _overload_server(
        rows, workers=WORKERS, max_connections=64,
        queue_limit=1, queue_timeout=QUEUE_TIMEOUT,
    )
    accepted: list[float] = []
    shed: list[float] = []
    strays: list[str] = []
    lock = threading.Lock()

    def client_loop():
        try:
            with QueryClient(port=server.port,
                             response_timeout=30) as client:
                for _ in range(statements):
                    started = time.perf_counter()
                    try:
                        result = client.execute(STATEMENT)
                        elapsed = time.perf_counter() - started
                        with lock:
                            accepted.append(elapsed)
                        assert result["row_count"] == rows // 50
                    except ServerError as exc:
                        elapsed = time.perf_counter() - started
                        if exc.error_type != "ServerOverloadedError":
                            raise
                        with lock:
                            shed.append(elapsed)
                        time.sleep(SHED_BACKOFF)
        except Exception as exc:  # pragma: no cover - gate failure path
            with lock:
                strays.append(repr(exc))

    threads = [threading.Thread(target=client_loop, daemon=True)
               for _ in range(OVERLOAD_FACTOR * WORKERS)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(600)
        return accepted, shed, strays
    finally:
        server.stop()


@pytest.mark.benchmark(group="overload")
def test_overload_sheds_typed_and_keeps_admitted_latency(
        benchmark, preset, figure_writer):
    rows = ROWS.get(preset.name, 300)
    statements = STATEMENTS.get(preset.name, 80)

    def run_all():
        base = _run_uncontended(rows, statements)
        accepted, shed_lat, strays = _run_overload(rows, statements)
        return base, accepted, shed_lat, strays

    base, accepted, shed_lat, strays = benchmark.pedantic(
        run_all, rounds=1, iterations=1)

    assert strays == [], strays
    assert accepted, "overload phase admitted nothing"
    assert shed_lat, (
        "no statement was shed at "
        f"{OVERLOAD_FACTOR}x-worker offered load"
    )
    base_p50 = statistics.median(base)
    accepted_p50 = statistics.median(accepted)
    worst_shed = max(shed_lat)
    ratio = accepted_p50 / base_p50

    table = figure_writer.setdefault(
        "overload_latency",
        FigureTable(
            "Overload shedding — admitted p50 vs uncontended, shed "
            "answer time", unit="ms",
        ),
    )
    table.add("uncontended p50", preset.name, base_p50 * 1e3)
    table.add("overload admitted p50", preset.name, accepted_p50 * 1e3)
    table.add("worst shed answer", preset.name, worst_shed * 1e3)
    table.notes.append(
        f"{preset.name}: {len(accepted)} admitted / {len(shed_lat)} "
        f"shed, admitted p50 {ratio:.2f}x uncontended"
    )

    assert worst_shed <= QUEUE_TIMEOUT + SHED_SLACK, (
        f"a shed statement waited {worst_shed * 1e3:.0f} ms for its "
        f"typed answer; the queue deadline is {QUEUE_TIMEOUT * 1e3:.0f} ms"
    )
    assert ratio <= LATENCY_GATE, (
        f"admitted p50 ({accepted_p50 * 1e3:.1f} ms) is {ratio:.2f}x "
        f"the uncontended p50 ({base_p50 * 1e3:.1f} ms); the gate is "
        f"{LATENCY_GATE}x — admission control failed to protect "
        "admitted latency"
    )
