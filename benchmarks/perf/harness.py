"""Set-up, replay, oracle, epilogue and metric computation.

One run: build the database and serve it from a real server process
(``SETUPS`` times; the last server is measured), compute every expected
reply in-process, replay the seeded statement list through
``QueryClient`` until the time box is spent, and reduce each statement's
latency to its minimum over the replays.  Every replay starts a new
server on the same image with an empty WAL, so statement *i* meets
identical state each time and no process's memory layout is measured
twice.  The run ends with ``SIGKILL`` + ``Database.recover``.  See
README.md for the definitions.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.database import Database
from repro.errors import RecordNotFoundError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.server.client import QueryClient
from repro.server.protocol import encode_frame, jsonable_result
from repro.wal.device import FileWALDevice
from repro.workload import build_database

from benchmarks.perf.trace import REQUEST_ROOT, Tracer, install_client_wrappers
from benchmarks.perf.workloads import (
    CLASSES,
    RECOVERIES,
    RECOVERY_SECONDS,
    SETUPS,
    Scale,
    Statement,
    Workload,
    statements,
    statements_sha256,
    warmup,
)

ROOT = Path(__file__).resolve().parents[2]
SCRATCH = Path(__file__).resolve().parent / ".scratch"

#: physical operators reported as ``physical.<Op>.self_ms``.
OPERATORS = (
    "SeqScan", "SummaryIndexScan", "SummarySelect", "Filter", "Project",
    "NestedLoopJoin", "IndexNestedLoopJoin", "Sort",
)


# -- environment ----------------------------------------------------------------


@contextmanager
def gc_paused():
    """Timed regions run without the cyclic collector: when it fires
    depends on what this process allocated before, not on the code
    being timed."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def allowed_cpus() -> list[int]:
    """CPUs this process may be pinned to ([] when pinning is
    unavailable)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def on_tmpfs(path: Path) -> bool:
    best, fstype = "", ""
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        return False
    return fstype == "tmpfs"


def server_env() -> dict:
    """The server measures the engine's defaults: no ``REPRO_*`` knob
    survives, and hashing is fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Server:
    """One ``serve_bench`` process and the single connection to it."""

    def __init__(self, image: Path, wal: Path, cpu: int, trace: bool = False):
        wal.unlink(missing_ok=True)
        self.wal = wal
        self.trace = trace
        #: False until a statement was sent: set_up()'s server is reused
        #: by the first replay.
        self.used = False
        self.client = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.perf.serve_bench",
             str(image), str(wal), str(cpu), "1" if trace else "0"],
            cwd=ROOT, env=server_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            # No statement here takes a second; a reply that takes two
            # minutes is a hung server, and the run must still end.
            self.client = QueryClient(port=int(line.rsplit(":", 1)[1]),
                                      response_timeout=120)
            self.client.health()
        except BaseException:
            self.kill()
            raise

    def op(self, name: str, **fields):
        return self.client.request({"op": name, **fields})

    def stop(self) -> None:
        """Graceful drain (SIGTERM), escalating to SIGKILL."""
        self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if self.client is not None:
            self.client.close()


# -- one run's state -------------------------------------------------------------


@dataclass
class Run:
    workload: Workload
    seed: int
    scale: Scale
    #: CPUs to pin to, taken in turn: one per set-up, replay and
    #: recovery.  Harness and server always share the CPU of the turn —
    #: they alternate and a reply never waits for a cross-CPU wake-up,
    #: the largest noise source on a 2-vCPU guest — and the turns rotate
    #: because each vCPU has slow stretches of its own lasting seconds,
    #: which a minimum over replays on different CPUs steps around.
    cpus: list[int]
    scratch: Path
    stmts: list[Statement]
    image: Path | None = None
    server: Server | None = None
    setup_seconds: list[float] = field(default_factory=list)
    save_seconds: float = 0.0
    #: ``Database.load`` of the image in this process (the oracle's).
    load_seconds: float = 0.0
    #: warm-up slice + the list: what every fresh server is sent.
    sequence: list[Statement] = field(default_factory=list)
    expected: list = field(default_factory=list)
    oracle_db: Database | None = None
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    turns: int = 0
    cpu: int = -1

    def pin_next(self) -> None:
        """Pin this process to the next CPU in turn (``cpu`` is -1 when
        pinning is unavailable)."""
        if self.cpus:
            self.cpu = self.cpus[self.turns % len(self.cpus)]
            self.turns += 1
            os.sched_setaffinity(0, {self.cpu})

    @property
    def warmup_len(self) -> int:
        return len(self.sequence) - len(self.stmts)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    def fresh_server(self, trace: bool = False) -> Server:
        """A server no statement has reached yet."""
        server = self.server
        if server is not None and not server.used and server.trace == trace:
            return server
        self.stop_server()
        self.server = Server(self.image, self.scratch / "bench.wal",
                             self.cpu, trace)
        return self.server

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # unless another run is using it
        except OSError:
            pass


def set_up(run: Run, times: int) -> None:
    """Build, save and serve ``times`` times; keep the last server."""
    for i in range(times):
        run.stop_server()
        image = run.scratch / f"bench-{i}.img"
        run.pin_next()
        with gc_paused():
            started = time.perf_counter()
            db = build_database(run.workload.config(run.scale))
            saving = time.perf_counter()
            db.save(image)
            run.save_seconds = time.perf_counter() - saving
            run.image = image
            run.fresh_server()
            run.setup_seconds.append(time.perf_counter() - started)


def run_oracle(run: Run) -> None:
    """Expected replies: ``Database.sql`` in this process on the same
    image, in the order the server will see the statements.  Read-only
    lists are answered once per distinct statement."""
    started = time.perf_counter()
    db = Database.load(run.image)
    run.load_seconds = time.perf_counter() - started
    run.sequence = warmup(run.workload, run.stmts) + run.stmts
    memo: dict[str, object] = {}
    for stmt in run.sequence:
        if run.workload.writes or stmt.sql not in memo:
            memo[stmt.sql] = json.loads(json.dumps(
                jsonable_result(db.sql(stmt.sql))))
        run.expected.append(memo[stmt.sql])
    run.oracle_db = db


def user_bytes(db: Database) -> int:
    """Bytes a user handed the system: row values (text as UTF-8,
    numbers as 8 bytes) plus raw annotation text."""
    total = 0
    for name in db.catalog.table_names():
        for _oid, values in db.catalog.table(name).scan():
            for value in values:
                total += len(value.encode()) if isinstance(value, str) else 8
    for annotation in db.manager.annotations.scan():
        total += len(annotation.text.encode())
    return total


# -- replay ----------------------------------------------------------------------


def send_all(run: Run, server: Server, stmts: list[Statement],
             expected: list) -> list[tuple[float, float]]:
    """Closed loop: send each statement, wait for its reply, time it.
    Returns one ``(sent, answered)`` pair per statement.  Replies are
    checked after the loop so checking never sits between two
    statements."""
    server.used = True
    client = server.client
    replies = []
    spans = []
    clock = time.perf_counter
    with gc_paused():
        for stmt in stmts:
            sent = clock()
            try:
                reply = client.execute(stmt.sql)
            except ReproError as exc:
                reply = exc
            spans.append((sent, clock()))
            replies.append(reply)
    for stmt, reply, want in zip(stmts, replies, expected):
        run.check(not isinstance(reply, ReproError) and reply == want,
                  f"{stmt.sql[:60]!r}: got {str(reply)[:80]!r}")
    return spans


def replay(run: Run, tracer: Tracer | None = None) -> dict:
    """One replay: a fresh server, the warm-up slice, then the timed
    list.  Returns the statements' client spans and latencies and the
    server-side counter delta across the timed list; with a ``tracer``
    the server runs its wrappers too and both span logs start empty at
    the first timed statement."""
    trace = tracer is not None
    if run.server is None or run.server.used:
        run.pin_next()
    server = run.fresh_server(trace)
    k = run.warmup_len
    send_all(run, server, run.sequence[:k], run.expected[:k])
    before = server.op("bench_stats")["metrics"]
    if trace:
        server.op("bench_spans")
        tracer.spans.clear()
    roots = send_all(run, server, run.sequence[k:], run.expected[k:])
    client_spans = list(tracer.spans) if trace else []
    requests = server.op("bench_spans") if trace else []
    after = server.op("bench_stats")["metrics"]
    delta = MetricsRegistry.delta(after, before)
    return {"latencies": [end - start for start, end in roots],
            "roots": roots, "client_spans": client_spans,
            "requests": requests, "delta": delta}


def timed_replays(run: Run, seconds: float, min_replays: int) -> list[dict]:
    """Replay until the time box is spent, at least ``min_replays``
    times; a replay that would overrun the box is not started."""
    replays: list[dict] = []
    started = time.perf_counter()
    while True:
        replays.append(replay(run))
        elapsed = time.perf_counter() - started
        if len(replays) >= min_replays and (
                elapsed + elapsed / len(replays) > seconds):
            return replays


# -- epilogue --------------------------------------------------------------------


def crash_and_recover(run: Run, times: int, floor_seconds: float) -> dict:
    """Write workloads: send one more annotate without reading the
    reply, SIGKILL the server, recover from image + WAL copy.  Every
    acknowledged annotation must be there and integrity must be clean.
    Read-only workloads have an empty log: the recovery is an image
    load, timed the same way so the metric exists on every workload."""
    server = run.server
    acked = []
    if run.workload.writes:
        acked = [reply for stmt, reply in zip(run.sequence, run.expected)
                 if stmt.sql.startswith("Annotate")]
        server.client.send_raw(encode_frame(
            {"sql": "Annotate birds 1 'unacknowledged wing note'"}, crc=True))
    server.kill()
    run.server = None
    seconds = []
    copy = run.scratch / "recover.wal"
    while len(seconds) < times or sum(seconds) < floor_seconds:
        shutil.copyfile(server.wal, copy)
        run.pin_next()
        with gc_paused():
            started = time.perf_counter()
            db, report = Database.recover(run.image, FileWALDevice(copy))
            seconds.append(time.perf_counter() - started)
    for ann_id in acked:
        try:
            db.manager.annotations.get(ann_id)
            present = True
        except RecordNotFoundError:
            present = False
        run.check(present, f"acknowledged annotation {ann_id} lost")
    integrity = db.check_integrity()
    run.check(integrity.ok, f"after recovery: {integrity}")
    return {"seconds": min(seconds), "replayed": report.replayed}


# -- metrics ---------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def band_mean(sorted_values: list[float], q: float) -> float:
    """Mean of the values ranked within ±5 % of the ``q`` percentile.

    A list is a few statement classes, each a block of near-equal
    latencies; a nearest-rank percentile that lands on a block edge
    flips between two blocks from run to run.  The band covers several
    blocks, so neighbours trading places inside it change nothing."""
    n = len(sorted_values)
    lo = max(0, math.floor((q - 0.05) * n))
    hi = min(n, max(lo + 1, math.ceil((q + 0.05) * n)))
    return statistics.fmean(sorted_values[lo:hi])


def measure(run: Run, seconds: float, anchor_only: bool = False) -> dict:
    """The untraced run: every end-to-end metric, plus the raw samples
    the traced run attributes.  ``anchor_only`` is the cheap form the
    traced run uses for its overhead ratio and class medians: one
    set-up, two replays, one recovery."""
    setups, min_replays, recoveries, floor_seconds = (
        (1, 2, 1, 0.0) if anchor_only
        else (SETUPS, run.scale.min_replays, RECOVERIES, RECOVERY_SECONDS))
    set_up(run, setups)
    run_oracle(run)
    replays = timed_replays(run, seconds, min_replays)
    final = run.server.op("bench_stats")
    recovery = crash_and_recover(run, recoveries, floor_seconds)

    n = len(run.stmts)
    # A statement's latency is its minimum over the replays.  On a
    # read-only list equal SQL meets equal state wherever it stands, so
    # its copies within a replay are further samples of one statement.
    keys = (list(range(n)) if run.workload.writes
            else [stmt.sql for stmt in run.stmts])
    best: dict = {}
    for r in replays:
        for key, latency in zip(keys, r["latencies"]):
            best[key] = min(best.get(key, latency), latency)
    minima = [best[key] for key in keys]
    ordered = sorted(minima)
    disk_bytes = final["disk_pages"] * final["page_size"]
    delta = replays[-1]["delta"]
    end_to_end = {
        "setup_s": statistics.median(run.setup_seconds),
        "stmt_per_s": n / sum(minima),
        "p50_ms": band_mean(ordered, 0.50) * 1e3,
        "p90_ms": band_mean(ordered, 0.90) * 1e3,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "pages_per_stmt": delta["pool.pages"] / n,
        "space_amp": (disk_bytes + final["wal_bytes"])
        / user_bytes(run.oracle_db),
        "rss_mb": final["peak_rss_kib"] / 1024,
        "recover_s": recovery["seconds"],
    }
    return {
        "end_to_end": end_to_end,
        "replays": replays,
        "minima": minima,
        "recovery": recovery,
        "final": final,
    }


def _per_class_p50(stmts: list[Statement], minima: list[float]) -> dict:
    out = {}
    for cls in CLASSES:
        values = [m for s, m in zip(stmts, minima) if s.cls == cls]
        out[f"client.{cls}.p50_ms"] = (
            statistics.median(values) * 1e3 if values else 0.0)
    return out


def _explain_breakdown(run: Run) -> dict:
    """The engine's own EXPLAIN ANALYZE operator self times, averaged
    over the list (non-SELECT statements contribute nothing)."""
    self_ms = dict.fromkeys(OPERATORS, 0.0)
    scanned = returned = 0
    counts: dict[str, int] = {}
    for stmt in run.stmts:
        if stmt.sql.startswith("Select"):
            counts[stmt.sql] = counts.get(stmt.sql, 0) + 1
    for sql, times in counts.items():
        ops = run.server.op("bench_explain", sql=sql)["operators"]
        for i, op in enumerate(ops):
            name = re.match(r"\w+", op["label"]).group()
            if name in self_ms:
                self_ms[name] += op["self_time_s"] * 1e3 * times
            is_leaf = i + 1 == len(ops) or ops[i + 1]["depth"] <= op["depth"]
            if is_leaf:
                scanned += op["rows"] * times
        returned += ops[0]["rows"] * times
    n = len(run.stmts)
    out = {f"physical.{name}.self_ms": ms / n for name, ms in self_ms.items()}
    out["physical.rows_examined_per_row"] = scanned / max(returned, 1)
    return out


def trace(run: Run, base: dict) -> dict:
    """One more replay against a server with the wrappers installed;
    returns every per-layer metric plus a per-class breakdown."""
    tracer = Tracer()
    install_client_wrappers(tracer)
    try:
        traced = replay(run, tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(run.stmts)
    roots, requests = traced["roots"], traced["requests"]
    client = sorted(traced["client_spans"], key=lambda s: s[1])
    if len(requests) != n or len(client) != 2 * n:
        raise RuntimeError(
            f"trace mismatch: {len(requests)} server requests and "
            f"{len(client)} client spans for {n} statements")

    def add(into: dict, key: str, *values) -> None:
        entry = into.setdefault(key, [0] * len(values))
        for i, value in enumerate(values):
            entry[i] += value

    totals: dict[str, list] = {}   # span name -> [calls, n]
    edges: dict[str, list] = {}    # "parent>child" -> [calls, n]
    self_s: dict[str, list] = {}   # span name -> [self seconds]
    by_class: dict[str, dict[str, list]] = {}
    wall = unattributed = 0.0
    for i, (stmt, request, (started, ended)) in enumerate(
            zip(run.stmts, requests, roots)):
        encode, decode = client[2 * i], client[2 * i + 1]
        layers = {name: v[0] for name, v in request["layers"].items()}
        layers["client.encode"] = encode[2] - encode[1]
        layers["client.decode"] = decode[2] - decode[1]
        # What is left of the client's wall once both ends are taken
        # out: socket, kernel and the two process hand-offs.
        layers["client.wait"] = (ended - started) - sum(layers.values())
        wall += ended - started
        unattributed += layers["client.wait"] + layers.get("core.other", 0.0)
        group = by_class.setdefault(stmt.cls, {})
        for name, seconds in layers.items():
            add(self_s, name, seconds)
            add(group, name, seconds)
        for name, (_self, calls, size) in request["layers"].items():
            add(totals, name, calls, size)
        for name, (calls, size) in request["edges"].items():
            add(edges, name, calls, size)

    def ms(name):
        return self_s.get(name, (0.0,))[0] * 1e3 / n

    def calls(name):
        return totals.get(name, (0, 0))[0] / n

    delta = traced["delta"]

    def count(key):
        return delta.get(key, 0) / n

    def ratio(hit_key, miss_key):
        hits, misses = delta.get(hit_key, 0), delta.get(miss_key, 0)
        return hits / (hits + misses) if hits + misses else 0.0

    explain = _explain_breakdown(run)
    final = run.server.op("bench_stats", pages=True)
    run.stop_server()
    raw = sorted(x for r in base["replays"] for x in r["latencies"])
    best_untraced = min(sum(r["latencies"]) for r in base["replays"])
    node_writes = sum(
        v[0] for key, v in edges.items()
        if key.startswith("btree.") and key.endswith(">storage.put_page"))

    metrics = {
        "client.encode_ms": ms("client.encode"),
        "client.wait_ms": ms("client.wait"),
        "client.decode_ms": ms("client.decode"),
        "client.raw_p50_ms": percentile(raw, 0.50) * 1e3,
        "client.raw_p99_ms": percentile(raw, 0.99) * 1e3,
        **_per_class_p50(run.stmts, base["minima"]),
        "server.frame_decode_ms": ms("server.frame_decode"),
        "server.queue_wait_ms": ms("server.queue_wait"),
        "server.dispatch_ms": ms(REQUEST_ROOT),
        "server.marshal_ms": ms("server.marshal"),
        "server.response_bytes": totals.get("server.marshal", (0, 0))[1] / n,
        "server.requests": count("server.requests"),
        "server.errors": count("server.errors"),
        "server.shed": count("server.shed"),
        "txn.session_ms": ms("txn.session"),
        "txn.lock_wait_ms": ms("txn.lock_wait"),
        "txn.lock_acquires": calls("txn.lock_wait"),
        "txn.commit_ms": ms("txn.commit"),
        "txn.commits": count("txn.commits"),
        "query.parse_ms": ms("query.parse"),
        "query.bind_ms": ms("query.bind"),
        "optimizer.plan_ms": ms("optimizer.plan"),
        "optimizer.analyze_ms": ms("optimizer.analyze"),
        "optimizer.analyze_calls": calls("optimizer.analyze"),
        "physical.exec_ms": ms("physical.exec"),
        **explain,
        "summaries.get_ms": ms("summaries.get"),
        "summaries.get_calls": calls("summaries.get"),
        "summaries.decode_bytes":
            edges.get("summaries.get>storage.heap", (0, 0))[1] / n,
        "summaries.put_ms": ms("summaries.put"),
        "summaries.put_calls": calls("summaries.put"),
        "summaries.maintain_ms": ms("summaries.maintain"),
        "summaries.zoom_ms": ms("summaries.zoom"),
        "summaries.pages": final["pages"]["summaries"],
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "cache.hit_ratio": ratio("cache.hits", "cache.misses"),
        "cache.evictions": count("cache.evictions"),
        "cache.invalidations": count("cache.invalidations"),
        "index.probe_ms": ms("index.probe"),
        # lookup_range is a generator (one span per next()): count the
        # engine's own probe counters instead of spans.
        "index.probes": sum(
            value for key, value in delta.items()
            if key.startswith("index.summary.") and key.endswith(".probes")
        ) / n,
        "index.maintain_ms": ms("index.maintain"),
        "index.maintain_calls": calls("index.maintain"),
        "index.pages": final["pages"]["index"],
        "btree.search_ms": ms("btree.search"),
        "btree.insert_ms": ms("btree.insert"),
        "btree.delete_ms": ms("btree.delete"),
        "btree.node_writes": node_writes / n,
        "storage.pool_hits": count("pool.hits"),
        "storage.pool_misses": count("pool.misses"),
        "storage.hit_ratio": ratio("pool.hits", "pool.misses"),
        "storage.disk_reads": count("disk.reads"),
        "storage.disk_writes": count("disk.writes"),
        "storage.disk_ms": ms("storage.disk"),
        "storage.heap_ms": ms("storage.heap"),
        "storage.put_page_ms": ms("storage.put_page"),
        "storage.pages": final["pages"]["storage"],
        "annotations.create_ms": ms("annotations.create"),
        "annotations.texts_ms": ms("annotations.texts"),
        "annotations.texts_calls": calls("annotations.texts"),
        "annotations.pages": final["pages"]["annotations"],
        "mining.classify_ms": ms("mining.classify"),
        "mining.snippet_ms": ms("mining.snippet"),
        "wal.append_ms": ms("wal.append"),
        "wal.sync_ms": ms("wal.sync"),
        "wal.records": count("wal.records"),
        "wal.bytes": count("wal.bytes"),
        "wal.syncs": count("wal.syncs"),
        "wal.forced_flushes": count("wal.forced_flushes"),
        # Database.recover is load + replay: take this process's own
        # load of the same image out.
        "wal.replay_ms": max(0.0, base["recovery"]["seconds"]
                             - run.load_seconds) * 1e3,
        "wal.records_replayed": base["recovery"]["replayed"],
        "core.load_ms": base["final"]["load_seconds"] * 1e3,
        "core.save_ms": run.save_seconds * 1e3,
        "core.other_ms": ms("core.other"),
        "trace.overhead_ratio": wall / best_untraced,
        "trace.unattributed_frac": unattributed / wall,
    }
    classes = {
        cls: {name: total[0] * 1e3 / sum(s.cls == cls for s in run.stmts)
              for name, total in sorted(group.items())}
        for cls, group in by_class.items()
    }
    return {"per_layer": metrics, "by_class_ms": classes,
            "requests": requests}


def new_run(workload: Workload, seed: int, scale: Scale) -> Run:
    scratch = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    run = Run(workload, seed, scale, allowed_cpus(), scratch,
              statements(workload, seed, scale))
    run.pin_next()
    return run


def provenance(run: Run, replays: int) -> dict:
    n = len(run.stmts)
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus": run.cpus,
        "pinned": bool(run.cpus),
        "tmpfs": on_tmpfs(run.scratch),
        "seed": run.seed,
        "num_birds": run.scale.num_birds,
        "pool_pages": run.workload.pool_pages(run.scale),
        "n": n,
        "warmup": run.warmup_len,
        "replays": replays,
        "samples": {"p50_ms": n, "p90_ms": n, "client.raw": n * replays},
        "statements_sha256": statements_sha256(run.stmts),
    }
