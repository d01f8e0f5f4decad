"""Replication benchmarks — lag under ingest, and read scale-out.

Two macro benches over the PR-10 replication stack:

* **Lag curve** — a primary ingests a sustained insert + annotation
  workload while one replica streams.  We sample the link's byte lag
  across the ingest and then time the drain back to zero once the
  ingest stops.  The shape to look for: lag stays bounded (the applier
  keeps pace with the poll cadence rather than growing without bound),
  and the drain completes in a handful of poll intervals.
* **Read scale-out** — the closed-loop client model of
  ``bench_concurrency.py``: each reader fires a SELECT mix, consumes
  every row, then thinks for a fixed interval before the next request.
  Phase one runs the per-node client complement against the primary
  alone; phase two runs the same per-node complement against the
  primary **plus two streaming replicas** (verified caught up, serving
  identical rows).  Aggregate statements/sec across the three nodes
  must reach the gate over the single node.

Acceptance gate: 1 primary + 2 replicas ≥ 1.8x single-node read
throughput (asserted at every scale; the CI smoke runs quick).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench import FigureTable
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.replication import ReplicaServer, ReplicationEndpoint
from repro.server import QueryClient, QueryServer
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice

#: closed-loop requests per reader, by scale preset.
REQUESTS = {"quick": 80, "default": 200, "full": 400}

#: ingest operations for the lag curve, by scale preset.
INGEST_OPS = {"quick": 150, "default": 400, "full": 800}

#: per-statement think interval (closed-loop application model).
THINK_SECONDS = 0.01

#: readers pinned to each served node.
READERS_PER_NODE = 2

SCALE_OUT_GATE = 1.8


def _primary(rows: int) -> QueryServer:
    """A started replication primary over a fresh seeded database."""
    db = Database(buffer_pages=256)
    db.attach_wal(MemoryWALDevice())
    db.create_table(
        "t", [Column("name", ValueType.TEXT), Column("v", ValueType.INT)]
    )
    for i in range(rows):
        db.insert("t", [f"r{i}", i % 50])
    server = QueryServer(db, port=0, workers=2)
    ReplicationEndpoint(server).install()
    server.start()
    return server


def _replica(primary_port: int) -> ReplicaServer:
    """A started, bootstrapped replica of the primary on ``primary_port``."""
    replica = ReplicaServer(
        "127.0.0.1", primary_port, port=0, poll_interval=0.005, workers=2,
    )
    replica.start()
    assert replica.wait_ready(10), "replica bootstrap timed out"
    return replica


def _reader(port: int, requests: int, out: list, idx: int):
    client = QueryClient("127.0.0.1", port)
    sink = 0
    started = time.perf_counter()
    try:
        for i in range(requests):
            if i % 2 == 0:
                result = client.execute("Select name, v From t")
            else:
                result = client.execute(
                    "Select name, v From t r Where r.v < 25"
                )
            sink += result["row_count"]
            time.sleep(THINK_SECONDS)
        out[idx] = requests / (time.perf_counter() - started)
    finally:
        client.close()


def _read_phase(ports: list[int], requests: int) -> float:
    """READERS_PER_NODE closed-loop readers pinned to every port;
    returns aggregate statements/sec."""
    slots = len(ports) * READERS_PER_NODE
    results = [0.0] * slots
    threads = [
        threading.Thread(
            target=_reader,
            args=(ports[i % len(ports)], requests, results, i),
            daemon=True,
        )
        for i in range(slots)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    assert all(r > 0 for r in results), "a reader died or hung"
    return sum(results)


@pytest.mark.benchmark(group="replication")
def test_replication_lag_curve(benchmark, preset, figure_writer):
    ops = INGEST_OPS.get(preset.name, 200)
    primary = _primary(rows=100)
    replica = _replica(primary.port)
    link = replica.link
    try:
        assert link.wait_caught_up(10)
        samples: list[int] = []

        def ingest():
            db = primary.db
            for i in range(ops):
                oid = db.insert("t", [f"ingest{i}", i % 50])
                if i % 4 == 0:
                    db.add_annotation(
                        f"note {i} on tuple", table="t", oid=oid
                    )
                if i % 10 == 0:
                    samples.append(link.lag_bytes())

        started = time.perf_counter()
        benchmark.pedantic(ingest, rounds=1, iterations=1)
        ingest_s = time.perf_counter() - started
        drain_started = time.perf_counter()
        assert link.wait_caught_up(30), "replica never drained the lag"
        drain_ms = (time.perf_counter() - drain_started) * 1000
        assert link.lag_bytes() == 0

        table = figure_writer.setdefault(
            "replication_lag",
            FigureTable(
                "Replication lag under sustained ingest", unit="bytes"
            ),
        )
        table.add("peak lag", preset.name, max(samples))
        table.add("mean lag", preset.name,
                  sum(samples) / max(1, len(samples)))
        table.add("drain ms", preset.name, drain_ms)
        table.add("ingest ops/s", preset.name, ops / ingest_s)
    finally:
        replica.stop()
        primary.stop()


@pytest.mark.benchmark(group="replication")
def test_read_scale_out_gate(benchmark, preset, figure_writer):
    requests = REQUESTS.get(preset.name, 100)
    rows = max(60, preset.num_birds)
    primary = _primary(rows=rows)
    replicas = [_replica(primary.port) for _ in range(2)]
    try:
        for r in replicas:
            assert r.link.wait_caught_up(10)
            # A replica must serve the same rows it will be read for.
            with QueryClient("127.0.0.1", r.port) as c:
                assert c.execute("Select * From t")["row_count"] == rows

        def run_phases():
            single = _read_phase([primary.port], requests)
            scaled = _read_phase(
                [primary.port] + [r.port for r in replicas], requests
            )
            return single, scaled

        single, scaled = benchmark.pedantic(
            run_phases, rounds=1, iterations=1
        )
    finally:
        for r in replicas:
            r.stop()
        primary.stop()

    speedup = scaled / single
    table = figure_writer.setdefault(
        "replication_scale_out",
        FigureTable(
            "Read scale-out — closed-loop readers, aggregate stmts/sec",
            unit="stmt/s",
        ),
    )
    table.add("1 node", preset.name, single)
    table.add("1 primary + 2 replicas", preset.name, scaled)

    assert speedup >= SCALE_OUT_GATE, (
        f"three nodes reached only {speedup:.2f}x the single-node read "
        f"throughput ({scaled:.0f} vs {single:.0f} stmt/s); the gate "
        f"is {SCALE_OUT_GATE}x"
    )
