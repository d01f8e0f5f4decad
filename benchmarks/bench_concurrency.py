"""Concurrency scaling — the query server under parallel clients.

The point of the server + striped-lock stack (ISSUE 7) is that N clients
get more aggregate work through one engine than one client can: readers
hold shared locks concurrently, each connection's statements run on its
own thread, and each client's own result processing (JSON decode, row
consumption) overlaps other clients' server-side execution.

The bench runs a TPC-style closed-loop workload: each client fires a
read-heavy mix (two SELECT shapes + a 10% insert mix), consumes every
returned row, then spends a fixed think interval emulating
application-side processing before the next statement — the standard
closed-loop client model.  Clients are **subprocesses**, so on
multi-core hosts their work genuinely runs beside the server; on a
single core the think interval still yields the CPU, which is the
point: a server that handled one connection to completion at a time
would idle through every client's think time and score ~1.0x here,
while one thread per connection interleaves other sessions'
statements into those gaps.

Each phase runs on a fresh seeded server (ephemeral port) so the 1- and
4-client runs see identical data.  Reported number is aggregate
statements/sec summed over the closed-loop clients.

Acceptance gate: 4 clients sustain ≥ 1.5× the single-client throughput
at every scale (the CI smoke runs the quick preset).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bench import FigureTable
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.server import QueryServer
from repro.storage.record import ValueType

#: closed-loop requests per client, by scale preset.
REQUESTS = {"quick": 120, "default": 300, "full": 600}

#: per-statement think interval (seconds) emulating application-side
#: result processing in the closed-loop model.
THINK_SECONDS = 0.015

SPEEDUP_GATE = 1.5

#: the client worker, run as a subprocess: connect, fire the read-heavy
#: mix, consume every row, think, report post-connect throughput.
WORKER_SRC = """
import json, sys, time
from repro.server.client import QueryClient

host, port, requests, wid, think = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]),
    float(sys.argv[5]),
)
client = QueryClient(host, port)
sink = 0
started = time.perf_counter()
for i in range(requests):
    if i % 10 == 9:
        client.execute(
            "Insert Into t Values ('w%d-%d', %d)" % (wid, i, i % 50)
        )
    elif i % 2 == 0:
        result = client.execute("Select name, v From t")
        for row in result["rows"]:
            sink += row[1]
    else:
        result = client.execute("Select name, v From t r Where r.v < 25")
        for row in result["rows"]:
            sink += row[1]
    time.sleep(think)
elapsed = time.perf_counter() - started
client.close()
print(json.dumps({"requests": requests, "elapsed": elapsed, "sink": sink}))
"""


def _seeded_server(rows: int) -> QueryServer:
    """A started server over a fresh seeded database."""
    db = Database(buffer_pages=256)
    db.create_table(
        "t", [Column("name", ValueType.TEXT), Column("v", ValueType.INT)]
    )
    for i in range(rows):
        db.insert("t", [f"r{i}", i % 50])
    server = QueryServer(db)
    server.start()
    return server


def _run_phase(num_clients: int, requests: int, rows: int) -> float:
    """One phase on a fresh server; returns aggregate statements/sec
    (sum of each closed-loop client's own throughput)."""
    server = _seeded_server(rows)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)),
         env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    try:
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER_SRC,
                 "127.0.0.1", str(server.port), str(requests), str(w),
                 str(THINK_SECONDS)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            for w in range(num_clients)
        ]
        throughput = 0.0
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            stats = json.loads(out)
            throughput += stats["requests"] / stats["elapsed"]
        return throughput
    finally:
        server.stop()


@pytest.mark.benchmark(group="concurrency")
def test_concurrent_client_scaling(benchmark, preset, figure_writer):
    requests = REQUESTS.get(preset.name, 150)
    rows = preset.num_birds * 3

    def run_all():
        single = _run_phase(1, requests, rows)
        quad = _run_phase(4, requests, rows)
        return single, quad

    single, quad = benchmark.pedantic(run_all, rounds=1, iterations=1)
    speedup = quad / single

    table = figure_writer.setdefault(
        "concurrency_scaling",
        FigureTable(
            "Query-server scaling — read-heavy mix, aggregate stmts/sec",
            unit="stmt/s",
        ),
    )
    table.add("1 client", preset.name, single)
    table.add("4 clients", preset.name, quad)

    assert speedup >= SPEEDUP_GATE, (
        f"4 clients reached only {speedup:.2f}x the single-client "
        f"throughput ({quad:.0f} vs {single:.0f} stmt/s); the gate "
        f"is {SPEEDUP_GATE}x"
    )
