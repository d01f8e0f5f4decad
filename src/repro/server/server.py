"""The asyncio query server: N concurrent clients over one engine.

One :class:`QueryServer` wraps a :class:`~repro.core.database.Database`
and serves the length-prefixed JSON protocol (``repro.server.protocol``)
on a TCP socket.  Each connection gets its own locking
:class:`~repro.txn.session.Session` — its transactions and table locks
live exactly as long as the connection — and statements execute on a
worker thread pool, so readers under shared locks genuinely overlap
while the asyncio loop stays free to accept traffic.

Three layers keep the server standing when traffic outruns it
(DESIGN.md §5h):

* **Admission control.**  Connections beyond ``max_connections`` are
  answered a typed ``ServerOverloadedError`` frame and closed before a
  session exists.  Admitted statements pass through a bounded queue in
  front of the worker pool: when ``queue_limit`` statements are already
  waiting, or ``queue_timeout`` passes before a worker frees up, the
  statement is shed with a typed overload error instead of letting
  latency collapse — the client knows within the queue deadline, and
  because a shed statement never started executing, retrying it is
  always safe.  ``server.shed[.<cause>]`` counts sheds;
  ``server.queue_depth`` / ``server.active_connections`` gauges track
  levels.

* **Graceful lifecycle.**  :meth:`stop` drains: accepting stops, idle
  connections close, in-flight statements get ``drain_timeout`` seconds
  to finish, stragglers are cooperatively cancelled through the PR-5
  :meth:`~repro.txn.session.Session.cancel` path, and every session is
  closed before the worker pool shuts down — no lock and no transaction
  outlives shutdown.  An optional ``idle_timeout`` reclaims connections
  that stop talking, and server-side ``default_timeout``/``max_timeout``
  clamp client-supplied statement deadlines.

* **Network fault injection.**  A seeded
  :class:`~repro.faults.network.NetworkFaultPlan` may be injected at
  the accept/read/write points — connection resets, stalls, partial
  response frames, garbled bytes — driving the chaos battery that
  proves the invariants above hold under transport failure.  Frame
  checksums (``protocol.CRC_FLAG``) turn in-flight corruption into
  typed :class:`~repro.errors.ProtocolError`\\ s on either end.

Disconnect handling is the part worth reading twice: while a statement
runs on a worker thread, the loop concurrently watches the socket.  A
client that hangs up mid-statement triggers
:meth:`~repro.txn.session.Session.cancel` — the PR-5 cooperative
cancellation path — so the statement dies at its next batch boundary or
lock-wait slice and the session's locks are released with the
connection, never leaked.  Bytes that arrive instead (a pipelining
client) are kept as the prefix of the next frame.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ProtocolError, ReplicaLaggingError, ReproError
from repro.faults.network import NetworkFaultKind, NETWORK_OPS
from repro.server.protocol import (
    LENGTH,
    MAX_FRAME,
    decode_header,
    decode_payload,
    encode_frame,
    jsonable_result,
    verify_crc,
)

_log = logging.getLogger(__name__)

#: Default statement worker threads per server.
DEFAULT_WORKERS = 8

#: Default connection cap (env ``REPRO_SERVER_MAX_CONNECTIONS``).
DEFAULT_MAX_CONNECTIONS = 64

#: Default queue deadline in seconds (env ``REPRO_SERVER_QUEUE_TIMEOUT``).
DEFAULT_QUEUE_TIMEOUT = 2.0

#: Default drain deadline in seconds (env ``REPRO_SERVER_DRAIN_TIMEOUT``).
DEFAULT_DRAIN_TIMEOUT = 5.0


def _env_number(name: str, default, cast):
    """Parse an env knob; ``0``/``off``/``none`` mean disabled (None)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    if raw.strip().lower() in ("off", "none", ""):
        return None
    try:
        value = cast(raw)
    except ValueError:
        return default
    return None if value <= 0 else value


class _Conn:
    """Per-connection server state: the session, its transport, and
    whether a statement is currently on a worker thread. ``snapshot``
    caches a replication bootstrap image while its chunks stream out."""

    __slots__ = ("session", "writer", "busy", "snapshot")

    def __init__(self, session, writer):
        self.session = session
        self.writer = writer
        self.busy = False
        self.snapshot = None


def _error_response(message: str, error_type: str) -> dict:
    return {"ok": False, "error": message, "error_type": error_type}


class QueryServer:
    """Serve one database to concurrent clients over TCP."""

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = MAX_FRAME, workers: int = DEFAULT_WORKERS,
                 max_connections: int | None = None,
                 queue_limit: int | None = None,
                 queue_timeout: float | None = None,
                 drain_timeout: float | None = None,
                 idle_timeout: float | None = None,
                 default_timeout: float | None = None,
                 max_timeout: float | None = None,
                 network_faults=None):
        self.db = db
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.workers = workers
        #: connection cap; None = unbounded (not recommended).
        self.max_connections = (
            max_connections if max_connections is not None
            else _env_number("REPRO_SERVER_MAX_CONNECTIONS",
                             DEFAULT_MAX_CONNECTIONS, int)
        )
        #: statements allowed to wait for a worker before shedding.
        self.queue_limit = (
            queue_limit if queue_limit is not None
            else _env_number("REPRO_SERVER_QUEUE_LIMIT", workers * 4, int)
            or workers * 4
        )
        #: seconds a queued statement may wait before it is shed.
        self.queue_timeout = (
            queue_timeout if queue_timeout is not None
            else _env_number("REPRO_SERVER_QUEUE_TIMEOUT",
                             DEFAULT_QUEUE_TIMEOUT, float)
            or DEFAULT_QUEUE_TIMEOUT
        )
        #: seconds stop() lets in-flight statements finish before
        #: cooperatively cancelling them.
        self.drain_timeout = (
            drain_timeout if drain_timeout is not None
            else _env_number("REPRO_SERVER_DRAIN_TIMEOUT",
                             DEFAULT_DRAIN_TIMEOUT, float)
            or DEFAULT_DRAIN_TIMEOUT
        )
        #: close connections silent for this long between statements
        #: (None = never).
        self.idle_timeout = (
            idle_timeout if idle_timeout is not None
            else _env_number("REPRO_SERVER_IDLE_TIMEOUT", None, float)
        )
        #: statement deadline applied when the client sends none.
        self.default_timeout = (
            default_timeout if default_timeout is not None
            else _env_number("REPRO_SERVER_DEFAULT_TIMEOUT", None, float)
        )
        #: hard cap on client-supplied statement deadlines.
        self.max_timeout = (
            max_timeout if max_timeout is not None
            else _env_number("REPRO_SERVER_MAX_TIMEOUT", None, float)
        )
        #: optional seeded NetworkFaultPlan consulted at accept/read/write.
        self.network_faults = network_faults
        self.draining = False
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._worker_slots: asyncio.Semaphore | None = None
        self._connections: set[_Conn] = set()
        self._queued = 0
        self._net_ops = {op: 0 for op in NETWORK_OPS}
        #: registered non-SQL op handlers: name -> handler(request, conn).
        #: Handlers run on the worker pool (outside the admission queue —
        #: they are infrastructure, not statements); return the result
        #: value, or raise a ReproError for a typed error frame.
        self.ops: dict = {}
        #: replica-side replication link (set by ReplicaServer) — drives
        #: the health frame's repl section and min_lsn waits.
        self.repl_link = None
        #: primary-side replication endpoint once installed.
        self.repl_endpoint = None

    def register_op(self, name: str, handler) -> None:
        """Register an op handler: ``{"op": name, ...}`` requests route
        to ``handler(request, conn)`` on the worker pool."""
        self.ops[name] = handler

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the bound port
        (resolves an ephemeral 0)."""
        self.draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-stmt"
        )
        self._worker_slots = asyncio.Semaphore(self.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float | None = None) -> None:
        """Gracefully drain and shut down.

        Stops accepting, closes idle connections, lets in-flight
        statements finish for up to ``drain_timeout`` seconds (default:
        the server's configured drain deadline), then cooperatively
        cancels stragglers via :meth:`Session.cancel` and closes every
        session before the worker pool shuts down — no table lock and
        no open transaction survives this call.
        """
        timeout = drain_timeout if drain_timeout is not None \
            else self.drain_timeout
        already_stopped = (self._server is None and not self._connections
                           and self._executor is None)
        if not already_stopped:
            self.db.metrics.inc("server.drains")
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle connections have nothing to drain: close their transports
        # so their handlers unwind on EOF and release their sessions.
        for conn in list(self._connections):
            if not conn.busy:
                conn.writer.close()
        deadline = time.monotonic() + timeout
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        # Past the drain deadline: cooperatively cancel what is still
        # running, so no statement (and no lock it holds) outlives us.
        cancelled = 0
        for conn in list(self._connections):
            if conn.session.cancel():
                cancelled += 1
            conn.writer.close()
        if cancelled:
            self.db.metrics.inc("server.drain_cancelled", cancelled)
        grace = time.monotonic() + max(1.0, timeout)
        while self._connections and time.monotonic() < grace:
            await asyncio.sleep(0.005)
        # Whatever did not unwind in time still must not strand a lock:
        # force-close the sessions (abort + release is idempotent).
        for conn in list(self._connections):
            conn.session.close()
            self._connections.discard(conn)
        self.db.metrics.set_gauge("server.active_connections", 0)
        # Quiesce background summary maintenance: stop the worker thread
        # and fold any remaining staleness in inline, so a drained server
        # leaves fully maintained summaries behind.
        stop_maintenance = getattr(self.db, "stop_maintenance", None)
        if stop_maintenance is not None:
            stop_maintenance()
        if self._executor is not None:
            # wait=True: never abandon a live worker thread mid-statement.
            self._executor.shutdown(wait=True)
            self._executor = None
        self._worker_slots = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- health --------------------------------------------------------------

    def health(self) -> dict:
        """Liveness snapshot for load balancers: drain state, queue
        depth, connection counts, and the PR-5 degraded-path list."""
        db = self.db
        txn_manager = getattr(db, "txn_manager", None)
        path_health = getattr(db, "health", None)
        snap = db.metrics_snapshot()
        return {
            "lsn": self._current_lsn(),
            "repl": self._repl_health(),
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "accepting": self._server is not None and not self.draining,
            "connections": len(self._connections),
            "max_connections": self.max_connections,
            "queue_depth": self._queued,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "open_txns": (
                len(txn_manager.active) if txn_manager is not None else 0
            ),
            "shed": db.metrics.get("server.shed"),
            "degraded_paths": (
                [list(key) for key in path_health.unhealthy()]
                if path_health is not None else []
            ),
            "summary_async": "deferred" if db.summary_async else "off",
            "maint_backlog": db.manager.pending_count(),
            "maint_lag_seconds": db.manager.pending_lag_seconds(),
            # A full_analyze that keeps climbing under annotation traffic
            # means statistics fell back to rescans.
            "stats_full_analyze": db.metrics.get("stats.full_analyze"),
            "stats_incremental_deltas": db.metrics.get(
                "stats.incremental_deltas"
            ),
            # The statement cache: climbing misses or invalidations mean
            # statements are re-planned (DESIGN.md §5n).
            "plan_cache_hits": snap["optimizer.plan_cache.hits"],
            "plan_cache_misses": snap["optimizer.plan_cache.misses"],
            "plan_cache_invalidations":
                snap["optimizer.plan_cache.invalidations"],
            "parse_cache_hits": snap["query.parse_cache.hits"],
            "parse_cache_misses": snap["query.parse_cache.misses"],
            # Each publish re-prices every plan over its table.
            "stats_publishes": snap["optimizer.stats.publishes"],
        }

    def _current_lsn(self) -> int:
        """This node's durable log position: the flushed WAL tail on a
        primary, the applied-prefix watermark on a replica. Stamped into
        every success response so clients can carry their last commit
        LSN into bounded-staleness reads."""
        wal = getattr(self.db, "wal", None)
        if wal is not None:
            return wal.flushed_lsn
        return getattr(self.db, "_applied_lsn", 0)

    def _repl_health(self) -> dict:
        """The health frame's repl section: replica lag when a link is
        attached, stream/retention state when this node is a primary."""
        link = self.repl_link
        if link is not None:
            return link.health()
        wal = getattr(self.db, "wal", None)
        if wal is not None:
            return {
                "role": "primary",
                "wal_lsn": wal.next_lsn,
                "durable_lsn": wal.flushed_lsn,
                "streams": wal.stream_acks,
                "min_stream_lsn": wal.min_stream_lsn(),
                "retained_bytes": wal.retained_bytes,
            }
        return {"role": "standalone"}

    def _await_min_lsn(self, min_lsn: int, wait_timeout: float) -> None:
        """Bounded-staleness gate (runs on the worker thread): block
        until this node has applied through ``min_lsn``, else raise a
        typed ReplicaLaggingError — the statement never executes."""
        current = self._current_lsn()
        if current >= min_lsn:
            return
        link = self.repl_link
        if link is not None and wait_timeout > 0:
            current = link.wait_for_lsn(min_lsn, wait_timeout)
            if current >= min_lsn:
                return
        self.db.metrics.inc("repl.lagging_rejects")
        raise ReplicaLaggingError(
            f"applied through LSN {current}, statement requires "
            f"{min_lsn}",
            applied_lsn=current, min_lsn=min_lsn,
        )

    # -- network fault injection ---------------------------------------------

    def _net_fault(self, op: str):
        """Consume the next scheduled network fault for ``op`` (None
        when no plan is installed or nothing fires)."""
        plan = self.network_faults
        if plan is None:
            return None
        index = self._net_ops[op]
        self._net_ops[op] = index + 1
        fault = plan.consume(op, index)
        if fault is not None:
            self.db.metrics.inc("server.faults.injected")
            self.db.metrics.inc(f"server.faults.injected.{fault.kind}")
        return fault

    @staticmethod
    def _abort_transport(writer: asyncio.StreamWriter) -> None:
        transport = writer.transport
        if transport is not None:
            try:
                transport.abort()
            except Exception:  # pragma: no cover - transport already dead
                pass

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        fault = self._net_fault("accept")
        if fault is not None:
            if fault.kind == NetworkFaultKind.RESET:
                self._abort_transport(writer)
                return
            if fault.kind == NetworkFaultKind.STALL:
                await asyncio.sleep(fault.stall_seconds)
        if self.draining:
            await self._send_best_effort(writer, _error_response(
                "server is draining; connection rejected",
                "ServerShuttingDownError",
            ))
            writer.close()
            return
        if (self.max_connections is not None
                and len(self._connections) >= self.max_connections):
            # Admission control: shed the connection with a typed frame
            # before any session (or lock surface) exists for it.
            self.db.metrics.inc("server.shed")
            self.db.metrics.inc("server.shed.connections")
            await self._send_best_effort(writer, _error_response(
                f"server at its {self.max_connections}-connection cap; "
                "connection rejected", "ServerOverloadedError",
            ))
            writer.close()
            return
        self.db.metrics.inc("server.connections")
        conn = _Conn(self.db.session(), writer)
        self._connections.add(conn)
        self.db.metrics.set_gauge(
            "server.active_connections", len(self._connections))
        buffer = b""
        try:
            while True:
                try:
                    frame_read = self._read_frame(reader, buffer)
                    if self.idle_timeout is not None:
                        request, buffer = await asyncio.wait_for(
                            frame_read, self.idle_timeout
                        )
                    else:
                        request, buffer = await frame_read
                except asyncio.TimeoutError:
                    self.db.metrics.inc("server.idle_closed")
                    await self._send_best_effort(writer, _error_response(
                        f"connection idle for more than "
                        f"{self.idle_timeout}s; closing", "ServerError",
                    ))
                    return
                except ProtocolError as exc:
                    # A peer that cannot frame is out of sync with the
                    # stream: answer once, then hang up.
                    await self._send_best_effort(writer, _error_response(
                        str(exc), "ProtocolError"))
                    self.db.metrics.inc("server.errors")
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # clean or mid-frame EOF between statements
                if request is None:
                    return  # EOF at a frame boundary: clean disconnect
                response, buffer, alive = await self._run_request(
                    conn, reader, request, buffer
                )
                if response is not None:
                    try:
                        await self._send(writer, response)
                    except ProtocolError as exc:
                        # The *result* frame exceeds the cap — that is a
                        # statement-level failure, not a framing breach
                        # by the peer: answer typed, keep the connection.
                        self.db.metrics.inc("server.errors")
                        try:
                            await self._send(writer, _error_response(
                                f"result exceeds the {self.max_frame}-byte "
                                f"frame cap ({exc})", "ServerError",
                            ))
                        except (ProtocolError, ConnectionError):
                            return
                    except ConnectionError:
                        return
                if not alive:
                    return
                if self.draining:
                    # Statement finished during a drain: its response is
                    # out; now let the connection go.
                    return
        finally:
            # Aborts any open transaction and releases every lock: a
            # dropped connection can never strand a table lock.
            self._connections.discard(conn)
            self.db.metrics.set_gauge(
                "server.active_connections", len(self._connections))
            conn.session.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _clamp_timeout(self, timeout: float | None) -> float | None:
        """Apply the server's default and maximum statement deadlines."""
        effective = timeout if timeout is not None else self.default_timeout
        if self.max_timeout is not None:
            effective = (self.max_timeout if effective is None
                         else min(effective, self.max_timeout))
        return effective

    def _shed(self, cause: str, message: str) -> dict:
        self.db.metrics.inc("server.shed")
        self.db.metrics.inc(f"server.shed.{cause}")
        return _error_response(message, "ServerOverloadedError")

    async def _run_request(self, conn: _Conn, reader, request: dict,
                           buffer: bytes):
        """Execute one request on the worker pool while watching the
        socket; returns ``(response, buffer, connection_alive)``."""
        op = request.get("op")
        if op is not None:
            if op == "health":
                # Health probes are answered inline — never queued,
                # never shed, still answered while draining — so load
                # balancers can always see the server's state.
                self.db.metrics.inc("server.health_requests")
                return {"ok": True, "result": self.health()}, buffer, True
            handler = self.ops.get(op)
            if handler is not None:
                return await self._run_op(conn, op, handler, request,
                                          buffer)
            self.db.metrics.inc("server.errors")
            return (
                _error_response(f"unknown op {op!r}", "ProtocolError"),
                buffer, True,
            )
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self.db.metrics.inc("server.errors")
            return (
                _error_response("request needs a non-empty 'sql'",
                                "ProtocolError"),
                buffer, True,
            )
        timeout = request.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            self.db.metrics.inc("server.errors")
            return (
                _error_response("'timeout' must be a number",
                                "ProtocolError"),
                buffer, True,
            )
        min_lsn = request.get("min_lsn")
        if min_lsn is not None and (
            not isinstance(min_lsn, int) or isinstance(min_lsn, bool)
            or min_lsn < 0
        ):
            self.db.metrics.inc("server.errors")
            return (
                _error_response("'min_lsn' must be a non-negative integer",
                                "ProtocolError"),
                buffer, True,
            )
        min_lsn_timeout = request.get("min_lsn_timeout", 0)
        if not isinstance(min_lsn_timeout, (int, float)) \
                or isinstance(min_lsn_timeout, bool):
            self.db.metrics.inc("server.errors")
            return (
                _error_response("'min_lsn_timeout' must be a number",
                                "ProtocolError"),
                buffer, True,
            )
        self.db.metrics.inc("server.requests")
        if self.draining:
            self.db.metrics.inc("server.shed")
            self.db.metrics.inc("server.shed.draining")
            return (
                _error_response(
                    "server is draining; statement rejected",
                    "ServerShuttingDownError",
                ),
                buffer, False,
            )
        timeout = self._clamp_timeout(timeout)
        # Bounded admission queue in front of the worker pool: when all
        # workers are busy, at most queue_limit statements wait, and
        # none waits longer than queue_timeout — everything else is
        # shed *now*, with a typed error, instead of stacking latency.
        if self._queued >= self.queue_limit:
            return (
                self._shed("queue_full",
                           f"statement queue is full "
                           f"({self._queued} waiting); statement shed"),
                buffer, True,
            )
        self._queued += 1
        self.db.metrics.set_gauge("server.queue_depth", self._queued)
        try:
            await asyncio.wait_for(
                self._worker_slots.acquire(), self.queue_timeout
            )
        except asyncio.TimeoutError:
            return (
                self._shed("queue_deadline",
                           f"no worker free within the "
                           f"{self.queue_timeout}s queue deadline; "
                           "statement shed"),
                buffer, True,
            )
        finally:
            self._queued -= 1
            self.db.metrics.set_gauge("server.queue_depth", self._queued)
        conn.busy = True
        try:
            return await self._run_on_worker(conn, reader, sql, timeout,
                                             buffer, min_lsn,
                                             float(min_lsn_timeout))
        finally:
            conn.busy = False
            self._worker_slots.release()

    async def _run_op(self, conn: _Conn, op: str, handler, request: dict,
                      buffer: bytes):
        """Run a registered op handler on the worker pool (outside the
        admission queue — ops are infrastructure, not statements)."""
        self.db.metrics.inc(f"server.ops.{op}")
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor, handler, request, conn
            )
        except ReproError as exc:
            self.db.metrics.inc("server.errors")
            return (
                _error_response(str(exc), type(exc).__name__),
                buffer, True,
            )
        except Exception as exc:  # never let a handler kill the server
            self.db.metrics.inc("server.errors")
            return (
                _error_response(f"op {op!r} failed: {exc}", "ServerError"),
                buffer, True,
            )
        return (
            {"ok": True, "result": result, "lsn": self._current_lsn()},
            buffer, True,
        )

    async def _run_on_worker(self, conn: _Conn, reader, sql: str,
                             timeout: float | None, buffer: bytes,
                             min_lsn: int | None = None,
                             min_lsn_timeout: float = 0.0):
        """The statement is admitted: run it on the pool, watching the
        socket for a mid-statement hangup."""
        session = conn.session
        loop = asyncio.get_running_loop()
        started = time.perf_counter()

        def _call():
            # The bounded-staleness gate waits (or raises) on the worker
            # thread, so the event loop never blocks on replication lag.
            if min_lsn:
                self._await_min_lsn(min_lsn, min_lsn_timeout)
            return session.execute(sql, timeout)

        stmt_future = loop.run_in_executor(self._executor, _call)
        peek = asyncio.ensure_future(reader.read(1))
        disconnected = False
        try:
            while not stmt_future.done():
                done, _pending = await asyncio.wait(
                    {stmt_future, peek}, return_when=asyncio.FIRST_COMPLETED
                )
                if peek in done and not stmt_future.done():
                    data = peek.result()
                    if data:
                        # The client pipelined its next frame; keep the
                        # byte and go back to waiting on the statement.
                        buffer += data
                        peek = asyncio.ensure_future(reader.read(1))
                        continue
                    # EOF mid-statement: cancel through the cooperative
                    # path and wait for the worker to unwind (it must
                    # finish before the session's locks are released).
                    disconnected = True
                    session.cancel()
                    self.db.metrics.inc("server.cancelled_disconnects")
                    try:
                        await stmt_future
                    except Exception:
                        pass
                    return None, buffer, False
        finally:
            # The peek must be fully retired before anything else reads
            # the stream: a cancelled asyncio read stays registered as
            # the reader's waiter until the cancellation is *awaited*.
            if not peek.done():
                peek.cancel()
            try:
                data = await peek
                # A byte that raced the statement's completion belongs
                # to the next frame; b"" (EOF) resurfaces on next read.
                if not disconnected and data:
                    buffer += data
            except (asyncio.CancelledError, ConnectionError):
                pass
        try:
            result = stmt_future.result()
        except ReproError as exc:
            self.db.metrics.inc("server.errors")
            return (
                _error_response(str(exc), type(exc).__name__),
                buffer, True,
            )
        except Exception as exc:  # an engine bug must not drop the client
            _log.exception("statement failed: %s", sql)
            self.db.metrics.inc("server.errors")
            return (
                _error_response(f"statement failed: {exc}", "ServerError"),
                buffer, True,
            )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        try:
            payload = jsonable_result(result)
        except Exception as exc:  # never let rendering kill the server
            self.db.metrics.inc("server.errors")
            return (
                _error_response(f"unserializable result: {exc}",
                                "ServerError"),
                buffer, True,
            )
        return (
            {"ok": True, "result": payload,
             "elapsed_ms": round(elapsed_ms, 3),
             "lsn": self._current_lsn()},
            buffer, True,
        )

    # -- framing over asyncio streams ----------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader,
                          buffer: bytes):
        """Read one frame, honouring bytes already peeked into ``buffer``.
        Returns ``(request, remaining_buffer)``; request is None on a
        clean EOF at a frame boundary."""
        garble = None
        fault = self._net_fault("read")
        if fault is not None:
            if fault.kind == NetworkFaultKind.RESET:
                self._abort_transport_of(reader)
                raise ConnectionResetError("injected network reset (read)")
            if fault.kind == NetworkFaultKind.STALL:
                await asyncio.sleep(fault.stall_seconds)
            elif fault.kind == NetworkFaultKind.GARBLE:
                garble = fault
        header, buffer, eof = await self._read_exactly(
            reader, LENGTH.size, buffer
        )
        if header is None:
            if eof and buffer:
                raise ProtocolError(
                    f"connection closed mid-header ({len(buffer)} of "
                    f"{LENGTH.size} bytes)"
                )
            return None, b""
        length, has_crc = decode_header(header, self.max_frame)
        declared_crc = None
        if has_crc:
            crc_word, buffer, _eof = await self._read_exactly(
                reader, LENGTH.size, buffer
            )
            if crc_word is None:
                raise ProtocolError(
                    f"connection closed mid-frame ({len(buffer)} of "
                    f"{LENGTH.size} checksum bytes)"
                )
            (declared_crc,) = LENGTH.unpack(crc_word)
        payload, buffer, _eof = await self._read_exactly(
            reader, length, buffer
        )
        if payload is None:
            raise ProtocolError(
                f"connection closed mid-frame ({len(buffer)} of "
                f"{length} payload bytes)"
            )
        if garble is not None:
            # Corrupt the received request the way a broken network
            # would have: the checksum (or the JSON decode) must catch
            # it — a garbled statement is never executed.
            payload = self.network_faults.garble(
                payload, garble.garble_bytes)
        if declared_crc is not None:
            verify_crc(payload, declared_crc)
        return decode_payload(payload), buffer

    def _abort_transport_of(self, reader: asyncio.StreamReader) -> None:
        transport = getattr(reader, "_transport", None)
        if transport is not None:
            try:
                transport.abort()
            except Exception:  # pragma: no cover - transport already dead
                pass

    @staticmethod
    async def _read_exactly(reader: asyncio.StreamReader, n: int,
                            buffer: bytes):
        """``(chunk, rest, eof)``: ``chunk`` is ``n`` bytes or None when
        the stream ended first (``rest`` then holds the partial tail)."""
        while len(buffer) < n:
            data = await reader.read(65536)
            if not data:
                return None, buffer, True
            buffer += data
        return buffer[:n], buffer[n:], False

    async def _send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        frame = encode_frame(obj, self.max_frame, crc=True)
        fault = self._net_fault("write")
        if fault is not None:
            if fault.kind == NetworkFaultKind.RESET:
                self._abort_transport(writer)
                raise ConnectionResetError("injected network reset (write)")
            if fault.kind == NetworkFaultKind.STALL:
                await asyncio.sleep(fault.stall_seconds)
            elif fault.kind == NetworkFaultKind.PARTIAL_FRAME:
                # Only a prefix reaches the wire, then the connection
                # drops — the client must never read this as a result.
                prefix = self.network_faults.partial_length(
                    len(frame), fault)
                writer.write(frame[:prefix])
                try:
                    await writer.drain()
                except ConnectionError:
                    pass
                self._abort_transport(writer)
                raise ConnectionResetError(
                    "injected partial frame (write)")
            elif fault.kind == NetworkFaultKind.GARBLE:
                # Corrupt bytes anywhere in the frame (header included):
                # the length check or checksum catches it client-side.
                frame = self.network_faults.garble(
                    frame, fault.garble_bytes)
        writer.write(frame)
        await writer.drain()

    async def _send_best_effort(self, writer: asyncio.StreamWriter,
                                obj: dict) -> None:
        """Send a frame to a peer we are about to hang up on; its death
        mid-send is its own problem."""
        try:
            await self._send(writer, obj)
        except (ProtocolError, ConnectionError, OSError):
            pass


async def serve(db, host: str = "127.0.0.1", port: int = 0,
                workers: int = DEFAULT_WORKERS, **kwargs) -> None:
    """Convenience runner: start a server, serve until SIGTERM/SIGINT
    (or cancellation), then gracefully drain."""
    server = QueryServer(db, host=host, port=port, workers=workers, **kwargs)
    if getattr(db, "wal", None) is not None:
        # A WAL-backed database served standalone is a replication-
        # capable primary: replicas may attach at any time.
        from repro.replication.primary import ReplicationEndpoint

        ReplicationEndpoint(server).install()
    await server.start()
    print(f"repro server listening on {server.host}:{server.port}",
          flush=True)
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    installed: list = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_requested.set)
            installed.append(sig)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # non-main thread or platform without signal support
    forever = asyncio.ensure_future(server.serve_forever())
    stopper = asyncio.ensure_future(stop_requested.wait())
    try:
        await asyncio.wait({forever, stopper},
                           return_when=asyncio.FIRST_COMPLETED)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        stopper.cancel()
        await server.stop()  # graceful drain: finish or cancel in-flight
        if not forever.done():
            forever.cancel()
        try:
            await forever
        except (asyncio.CancelledError, Exception):
            pass
        print("repro server drained", flush=True)
