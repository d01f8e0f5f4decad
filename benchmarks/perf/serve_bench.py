"""The benchmark's server process.

``serve_bench.py IMAGE WAL CPU TRACE`` loads the image, attaches a file
WAL, and runs the production ``repro.server.server.serve`` with three
extra ops registered through the public ``QueryServer.register_op``:

* ``bench_stats`` — ``db.metrics_snapshot()``, WAL bytes, image load
  time and peak RSS; with ``"pages": true`` also page counts per
  structure (counting B-Tree nodes reads them through the pool, so the
  harness asks for it only after its last counter delta);
* ``bench_explain`` — the engine's own EXPLAIN ANALYZE operator
  breakdown for one statement;
* ``bench_spans`` — per-request layer self times from the tracer, then
  clears it (``TRACE`` = 1 only).

``CPU`` ≥ 0 pins the process before anything is imported, so the server
and the harness alternate on one core.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time


def _peak_rss_kib() -> int:
    # VmHWM, not getrusage().ru_maxrss: the latter survives exec and so
    # reports the (larger) harness process this server was forked from.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _page_counts(db) -> dict:
    pages = {"storage": db.disk.num_pages, "summaries": 0, "index": 0,
             "annotations": db.manager.annotations.heap_pages}
    for name in db.catalog.table_names():
        # storage_for() creates a missing storage: ask only linked tables.
        if db.manager.instances_for(name):
            pages["summaries"] += db.manager.storage_for(name).num_pages
    for index in db.summary_indexes.values():
        pages["index"] += index.pages_used()
    return pages


def main(argv: list[str]) -> int:
    image, wal_path, cpu, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})

    from repro.core.database import Database
    from repro.server import server as server_module
    from repro.wal.device import FileWALDevice

    started = time.perf_counter()
    db = Database.load(image)
    load_seconds = time.perf_counter() - started
    device = FileWALDevice(wal_path)
    db.attach_wal(device)

    tracer = None
    if trace:
        from benchmarks.perf.trace import Tracer, install_server_wrappers

        tracer = Tracer()
        install_server_wrappers(tracer)

    def bench_stats(request, conn):
        return {
            "metrics": db.metrics_snapshot(),
            "pages": _page_counts(db) if request.get("pages") else None,
            "disk_pages": db.disk.num_pages,
            "page_size": db.disk.page_size,
            "wal_bytes": device.total_len,
            "load_seconds": load_seconds,
            "peak_rss_kib": _peak_rss_kib(),
        }

    def bench_explain(request, conn):
        execution = db.explain(request["sql"], analyze=True).execution
        return {
            "elapsed_s": execution["elapsed_s"],
            "rows": execution["rows"],
            "operators": [
                {"label": op["label"], "depth": op["depth"],
                 "rows": op["rows"], "self_time_s": op["self_time_s"]}
                for op in execution["operators"]
            ],
        }

    def bench_spans(request, conn):
        return tracer.drain_requests() if tracer is not None else []

    class BenchServer(server_module.QueryServer):
        """``serve`` builds its own QueryServer; building this subclass
        instead is the one way to reach ``register_op`` on it."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.register_op("bench_stats", bench_stats)
            self.register_op("bench_explain", bench_explain)
            self.register_op("bench_spans", bench_spans)

    server_module.QueryServer = BenchServer
    asyncio.run(server_module.serve(db, port=0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
