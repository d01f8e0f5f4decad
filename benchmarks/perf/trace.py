"""Span tracing from outside the engine.

A :class:`Tracer` replaces public entry points of each layer with timing
wrappers and keeps one ``(name, start, end, thread, n)`` tuple per call
in memory.  ``time.perf_counter`` is CLOCK_MONOTONIC, shared by every
process on the machine, so the harness's client spans and the server's
spans sit on one time line.

With one connection and a closed loop, exactly one statement is in
flight, and the server hands it from the event loop to a worker thread
and back synchronously — so the spans of one request nest by plain
interval containment, whichever thread recorded them.  A span's *self*
time is its duration minus the time its direct children cover; the self
times of a request therefore add up to the request's root span exactly.
"""

from __future__ import annotations

import inspect
import threading
import time
from importlib import import_module

#: span whose start opens a new request on the server's time line.
REQUEST_START = "server.frame_decode"
#: synthetic per-request root: first server span start → last span end.
#: Its self time is server time between the wrapped calls (validation,
#: admission, executor hand-off, socket write).
REQUEST_ROOT = "server.dispatch"

#: (module, class or None, attribute, span name) — the public entry
#: points of each layer, named ``<layer>.<what>``.
SERVER_WRAPS = [
    ("repro.server.server", None, "decode_payload", REQUEST_START),
    ("repro.server.server", None, "jsonable_result", "server.marshal"),
    ("asyncio", "Semaphore", "acquire", "server.queue_wait"),
    ("repro.txn.session", "Session", "execute_stmt", "txn.session"),
    ("repro.txn.locks", "StripedLockManager", "acquire_shared",
     "txn.lock_wait"),
    ("repro.txn.locks", "StripedLockManager", "acquire_exclusive",
     "txn.lock_wait"),
    ("repro.txn.manager", "TransactionManager", "commit", "txn.commit"),
    ("repro.txn.session", None, "parse_sql", "query.parse"),
    ("repro.query.binder", "Binder", "bind", "query.bind"),
    ("repro.optimizer.planner", "Planner", "plan", "optimizer.plan"),
    ("repro.optimizer.statistics", "StatisticsCatalog", "analyze",
     "optimizer.analyze"),
    # The session → engine surface; what no deeper wrapper claims of it
    # is ``core.other``.
    ("repro.core.database", "Database", "_dispatch_stmt", "core.other"),
    ("repro.core.database", "Database", "add_annotation", "core.other"),
    ("repro.summaries.storage", "SummaryStorage", "get", "summaries.get"),
    ("repro.summaries.storage", "SummaryStorage", "label_count",
     "summaries.get"),
    ("repro.summaries.storage", "SummaryStorage", "label_counts",
     "summaries.get"),
    ("repro.summaries.storage", "SummaryStorage", "put", "summaries.put"),
    ("repro.summaries.maintenance", "SummaryManager", "add_annotation",
     "summaries.maintain"),
    ("repro.summaries.maintenance", "SummaryManager", "zoom_in",
     "summaries.zoom"),
    ("repro.index.summary_btree", "SummaryBTreeIndex", "lookup_eq",
     "index.probe"),
    ("repro.index.summary_btree", "SummaryBTreeIndex", "lookup_range",
     "index.probe"),
    ("repro.index.summary_btree", "SummaryBTreeIndex", "on_summary_insert",
     "index.maintain"),
    ("repro.index.summary_btree", "SummaryBTreeIndex", "on_summary_update",
     "index.maintain"),
    ("repro.index.summary_btree", "SummaryBTreeIndex", "on_tuple_delete",
     "index.maintain"),
    ("repro.btree.tree", "BTree", "search", "btree.search"),
    ("repro.btree.tree", "BTree", "insert", "btree.insert"),
    ("repro.btree.tree", "BTree", "delete", "btree.delete"),
    ("repro.annotations.store", "AnnotationStore", "create",
     "annotations.create"),
    ("repro.annotations.store", "AnnotationStore", "texts",
     "annotations.texts"),
    ("repro.summaries.instances", "ClassifierInstance", "classify",
     "mining.classify"),
    ("repro.summaries.instances", "SnippetInstance", "snippet_for",
     "mining.snippet"),
    ("repro.wal.writer", "WALWriter", "append", "wal.append"),
    ("repro.wal.writer", "WALWriter", "sync", "wal.sync"),
    ("repro.wal.writer", "WALWriter", "flush", "wal.sync"),
    ("repro.storage.heapfile", "HeapFile", "insert", "storage.heap"),
    ("repro.storage.heapfile", "HeapFile", "update", "storage.heap"),
    ("repro.storage.heapfile", "HeapFile", "delete", "storage.heap"),
    ("repro.storage.buffer", "BufferPool", "put_page", "storage.put_page"),
    ("repro.storage.disk", "DiskManager", "read_page", "storage.disk"),
    ("repro.storage.disk", "DiskManager", "write_page", "storage.disk"),
]
# Left unwrapped because they run hundreds to thousands of times per
# statement and a span each would cost more than the call:
# BufferPool.get_page (counted from metrics_snapshot() deltas instead),
# and the HeapFile.scan / BTree.range_scan generators a SeqScan or the
# inner side of a nested-loop join steps through (their time stays in
# the enclosing span, physical.exec).


class Tracer:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._replaced: list[tuple] = []

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._replaced:
            owner, attr, orig = self._replaced.pop()
            setattr(owner, attr, orig)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording one ``name``
        span per call.  ``size(result)`` fills the span's ``n`` (bytes).
        A coroutine function is awaited inside its span; a call that
        returns a generator gets one more span per ``next()``."""
        orig = getattr(owner, attr)
        append = self.spans.append
        clock, ident = time.perf_counter, threading.get_ident

        if inspect.iscoroutinefunction(orig):
            async def traced(*args, **kwargs):
                start = clock()
                try:
                    return await orig(*args, **kwargs)
                finally:
                    append((name, start, clock(), ident(), 0))
        else:
            def traced(*args, **kwargs):
                n = 0
                start = clock()
                try:
                    result = orig(*args, **kwargs)
                    if size is not None:
                        n = size(result)
                finally:
                    append((name, start, clock(), ident(), n))
                if inspect.isgenerator(result):
                    return self._iterate(name, result)
                return result

        self._replaced.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def _iterate(self, name: str, inner):
        append = self.spans.append
        clock, ident = time.perf_counter, threading.get_ident
        while True:
            start = clock()
            try:
                item = next(inner)
            except StopIteration:
                append((name, start, clock(), ident(), 0))
                return
            append((name, start, clock(), ident(), 0))
            yield item

    def wrap_plan_root(self, owner, attr: str, name: str) -> None:
        """One span over the whole drain of the *outermost* iterator
        ``owner.attr`` returns on a thread (a plan's root operator);
        nested operators pass through untouched — a join re-opens its
        inner side thousands of times."""
        orig = getattr(owner, attr)
        append = self.spans.append
        clock, ident = time.perf_counter, threading.get_ident
        local = threading.local()

        def drain(inner):
            local.active = True
            start = clock()
            try:
                yield from inner
            finally:
                local.active = False
                append((name, start, clock(), ident(), 0))

        def traced(self_, *args, **kwargs):
            inner = orig(self_, *args, **kwargs)
            if getattr(local, "active", False):
                return inner
            return drain(inner)

        self._replaced.append((owner, attr, orig))
        setattr(owner, attr, traced)

    # -- reading --------------------------------------------------------------

    def drain_requests(self) -> list[dict]:
        """Summaries of every complete request recorded so far, oldest
        first; clears the log.  The request being served right now (the
        fetch itself) is the last group and is dropped."""
        spans, self.spans[:] = sorted(self.spans, key=_span_order), []
        groups: list[list[tuple]] = []
        for span in spans:
            if span[0] == REQUEST_START:
                groups.append([])
            if groups:
                groups[-1].append(span)
        return [summarize_request(group) for group in groups[:-1]]


def _span_order(span: tuple):
    return span[1], -span[2]


def summarize_request(spans: list[tuple]) -> dict:
    """Nest one request's spans (sorted by start, longest first) and
    total self time, calls and ``n`` per name, plus calls and ``n`` per
    ``parent>child`` edge."""
    start = spans[0][1]
    end = max(span[2] for span in spans)
    layers: dict[str, list] = {REQUEST_ROOT: [end - start, 1, 0]}
    edges: dict[str, list] = {}
    stack: list[tuple] = []
    for span in spans:
        name, s, e, _tid, n = span
        while stack and s >= stack[-1][2]:
            stack.pop()
        parent = stack[-1][0] if stack else REQUEST_ROOT
        layers[parent][0] -= e - s
        entry = layers.setdefault(name, [0.0, 0, 0])
        entry[0] += e - s
        entry[1] += 1
        entry[2] += n
        edge = edges.setdefault(f"{parent}>{name}", [0, 0])
        edge[0] += 1
        edge[1] += n
        stack.append(span)
    return {"start": start, "end": end, "layers": layers, "edges": edges}


def install_server_wrappers(tracer: Tracer) -> None:
    for module_name, class_name, attr, name in SERVER_WRAPS:
        owner = import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name)
    server = import_module("repro.server.server")
    tracer.wrap(server, "encode_frame", "server.marshal", size=len)
    heapfile = import_module("repro.storage.heapfile").HeapFile
    tracer.wrap(heapfile, "read", "storage.heap", size=len)
    operator = import_module("repro.query.physical.base").PhysicalOperator
    tracer.wrap_plan_root(operator, "rows", "physical.exec")
    tracer.wrap_plan_root(operator, "batches", "physical.exec")


def install_client_wrappers(tracer: Tracer) -> None:
    client = import_module("repro.server.client")
    tracer.wrap(client, "encode_frame", "client.encode")
    tracer.wrap(client, "decode_payload", "client.decode")
