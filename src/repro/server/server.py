"""The query server: N concurrent clients over one engine, a thread each.

One :class:`QueryServer` wraps a :class:`~repro.core.database.Database`
and serves the length-prefixed JSON protocol (``repro.server.protocol``)
on a TCP socket.  Each accepted connection gets a thread that owns the
blocking socket and a locking :class:`~repro.txn.session.Session` — its
transactions and table locks live exactly as long as the connection —
and runs each request the client sends itself: read a frame, execute,
write the answer.

Three layers keep the server standing when traffic outruns it
(DESIGN.md §5h):

* **Admission control.**  Connections beyond ``max_connections`` are
  answered a typed ``ServerOverloadedError`` frame and closed before a
  session exists.  At most ``workers`` statements hold a slot; when all
  ``queue_limit`` queue places are taken, or ``queue_timeout`` passes
  before a slot frees up, the statement is shed with a typed overload
  error instead of letting latency collapse.  A statement keeps its slot
  (and queue place) until its answer is written — see
  :meth:`QueryServer._serve_request`.  A shed statement never started,
  so retrying it is always safe.
  ``server.shed[.<cause>]`` counts sheds; ``server.queue_depth`` /
  ``server.active_connections`` gauges track levels.

* **Graceful lifecycle.**  :meth:`stop` drains: accepting stops, idle
  connections close, in-flight statements get ``drain_timeout`` seconds
  to finish, stragglers are cooperatively cancelled, and every session
  is closed — no lock and no transaction outlives shutdown.
  ``idle_timeout`` reclaims silent connections, and
  ``default_timeout``/``max_timeout`` clamp client statement deadlines.

* **Network fault injection.**  A seeded
  :class:`~repro.faults.network.NetworkFaultPlan` fires resets, stalls,
  partial and garbled frames at the accept/read/write points; frame
  checksums turn corruption into typed ``ProtocolError``\\ s.

Disconnects: a statement's
:class:`~repro.resilience.context.ExecutionContext` polls the
connection's hangup probe at its cooperative checkpoints (operator
batches, lock-wait slices), so a client that hangs up mid-statement
cancels it there and its locks go with the connection.
"""

from __future__ import annotations

import asyncio
import logging
import os
import select
import signal
import socket
import struct
import sys
import threading
import time

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

#: Default concurrently executing statements per server.
DEFAULT_WORKERS = 8

#: Default connection cap (env ``REPRO_SERVER_MAX_CONNECTIONS``).
DEFAULT_MAX_CONNECTIONS = 64

#: Default queue deadline in seconds (env ``REPRO_SERVER_QUEUE_TIMEOUT``).
DEFAULT_QUEUE_TIMEOUT = 2.0

#: Default drain deadline in seconds (env ``REPRO_SERVER_DRAIN_TIMEOUT``).
DEFAULT_DRAIN_TIMEOUT = 5.0


def _knob(value, name: str, default, cast):
    """An explicit keyword wins; else parse env knob ``name``, where
    ``0``/``off``/``none`` mean disabled (None)."""
    if value is not None:
        return value
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


def _seconds(request: dict, name: str, default=None) -> float | None:
    """A client-supplied duration: absent, or a finite non-negative
    number (NaN, infinities and booleans would defeat the clamps)."""
    value = request.get(name, default)
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and 0 <= value <= sys.float_info.max:
        return float(value)
    raise ProtocolError(
        f"{name!r} must be a finite, non-negative number of seconds")


def _recv_exactly(sock: socket.socket, n: int, what: str,
                  head: bytes = b"") -> bytes:
    """``head`` topped up to ``n`` bytes off ``sock``; a peer that
    closes first raises a ProtocolError naming the part it cut short."""
    data = bytearray(head)
    while len(data) < n:
        chunk = sock.recv(min(n - len(data), 1 << 16))
        if not chunk:
            raise ProtocolError(f"connection closed mid-frame ({len(data)} "
                                f"of {n} {what} bytes)")
        data += chunk
    return bytes(data)


def _shutdown(sock: socket.socket) -> None:
    """Wake whatever blocks on ``sock`` (an ``accept`` or a ``recv``)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already closed or never connected
        pass


def _abort(sock: socket.socket) -> None:
    """Drop a connection with a reset: ``SO_LINGER`` 0, then close."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    except OSError:  # pragma: no cover - socket already dead
        pass
    sock.close()


class _Conn:
    """A connection's socket and session, and its request in hand
    (``busy`` while answered, ``hung_up`` if the client left, what its
    statement holds); ``snapshot`` caches a replication bootstrap image
    while its chunks stream out."""

    __slots__ = ("sock", "session", "busy", "hung_up", "has_slot", "queued",
                 "snapshot")

    def __init__(self, sock, session):
        self.sock = sock
        self.session = session
        self.busy = False
        self.hung_up = False
        self.has_slot = False
        self.queued = False
        self.snapshot = None

    def peer_gone(self) -> bool:
        """The statement's hangup probe: True once the client closed its
        end. Peeks, so a pipelined next frame stays in the socket."""
        try:
            readable, _, _ = select.select([self.sock], [], [], 0)
            gone = bool(readable) and \
                self.sock.recv(1, socket.MSG_PEEK) == b""
        except (BlockingIOError, InterruptedError, ValueError):
            gone = False
        except OSError:  # reset by the peer, or shut down by stop()
            gone = True
        self.hung_up = gone
        return gone


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
        self.max_connections = _knob(
            max_connections, "REPRO_SERVER_MAX_CONNECTIONS",
            DEFAULT_MAX_CONNECTIONS, int)
        #: statements allowed to wait for a slot before shedding.
        self.queue_limit = _knob(queue_limit, "REPRO_SERVER_QUEUE_LIMIT",
                                 workers * 4, int) or workers * 4
        #: seconds a queued statement may wait before it is shed.
        self.queue_timeout = _knob(
            queue_timeout, "REPRO_SERVER_QUEUE_TIMEOUT",
            DEFAULT_QUEUE_TIMEOUT, float) or DEFAULT_QUEUE_TIMEOUT
        #: seconds stop() lets in-flight statements finish before
        #: cooperatively cancelling them.
        self.drain_timeout = _knob(
            drain_timeout, "REPRO_SERVER_DRAIN_TIMEOUT",
            DEFAULT_DRAIN_TIMEOUT, float) or DEFAULT_DRAIN_TIMEOUT
        #: close connections silent for this long between statements
        #: (None = never).
        self.idle_timeout = _knob(idle_timeout, "REPRO_SERVER_IDLE_TIMEOUT",
                                  None, float)
        #: statement deadline applied when the client sends none.
        self.default_timeout = _knob(
            default_timeout, "REPRO_SERVER_DEFAULT_TIMEOUT", None, float)
        #: hard cap on client-supplied statement deadlines.
        self.max_timeout = _knob(max_timeout, "REPRO_SERVER_MAX_TIMEOUT",
                                 None, float)
        #: optional seeded NetworkFaultPlan consulted at accept/read/write.
        self.network_faults = network_faults
        self.draining = False
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        #: one slot per concurrently executing statement.
        self._slots = threading.BoundedSemaphore(workers)
        #: guards the connection set, the queue count and ``draining``
        #: against the connection threads.
        self._lock = threading.Lock()
        self._connections: set[_Conn] = set()
        #: connection threads, pruned of finished ones at each accept:
        #: a thread leaves ``_connections`` before its session closes.
        self._threads: set[threading.Thread] = set()
        self._queued = 0
        self._net_ops = {op: 0 for op in NETWORK_OPS}
        #: registered non-SQL op handlers: name -> handler(request, conn).
        #: Handlers run on the connection's thread (outside the admission
        #: queue — they are infrastructure, not statements); return the
        #: result value, or raise a ReproError for a typed error frame.
        self.ops: dict = {}
        #: replica-side replication link (set by ReplicaServer) — drives
        #: the health frame's repl section and min_lsn waits.
        self.repl_link = None
        #: primary-side replication endpoint once installed.
        self.repl_endpoint = None

    def register_op(self, name: str, handler) -> None:
        """Register an op handler: ``{"op": name, ...}`` requests route
        to ``handler(request, conn)`` on the connection's thread."""
        self.ops[name] = handler

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the bound port
        (resolves an ephemeral 0)."""
        self.draining = False
        family = socket.getaddrinfo(self.host, self.port,
                                    type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((self.host, self.port),
                                              family=family)
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            name=f"repro-accept-{self.port}", daemon=True,
        )
        self._acceptor.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Gracefully drain and shut down: stop accepting, close idle
        connections, give in-flight statements ``drain_timeout`` seconds
        (default: the configured drain deadline), cooperatively cancel
        stragglers via :meth:`Session.cancel`, and close every session —
        no table lock and no open transaction survives this call."""
        if drain_timeout is None:
            drain_timeout = self.drain_timeout
        listener, self._listener = self._listener, None
        with self._lock:
            if listener is not None or self._connections:
                self.db.metrics.inc("server.drains")
            self.draining = True
            idle = [conn for conn in self._connections if not conn.busy]
        if listener is not None:
            _shutdown(listener)  # close() alone leaves accept() blocked
            listener.close()
            self._acceptor.join()
        # Idle connections have nothing to drain: wake their reads so
        # their threads unwind on EOF and release their sessions.
        for conn in idle:
            _shutdown(conn.sock)
        self._join(drain_timeout)
        # Past the drain deadline: cooperatively cancel what is still
        # running, so no statement (and no lock it holds) outlives us.
        cancelled = sum(conn.session.cancel() for conn in self._live())
        if cancelled:
            self.db.metrics.inc("server.drain_cancelled", cancelled)
        self._join(max(1.0, drain_timeout))
        # Whatever did not unwind in time still must not strand a lock:
        # force-close the sessions (abort + release is idempotent).
        for conn in self._live():
            conn.session.close()
            _shutdown(conn.sock)
        with self._lock:
            self._connections.clear()
        self.db.metrics.set_gauge("server.active_connections", 0)

    def _live(self) -> list[_Conn]:
        with self._lock:
            return list(self._connections)

    def _join(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for every connection thread,
        those already unregistered and closing their session included."""
        deadline = time.monotonic() + timeout
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                if self._listener is not listener:
                    return  # stop() shut the listener down
                time.sleep(0.01)  # transient (out of descriptors, ...)
                continue
            thread = threading.Thread(
                target=self._handle_connection, args=(sock,),
                name=f"repro-conn-{self.port}", daemon=True,
            )
            with self._lock:
                self._threads = {t for t in self._threads if t.is_alive()}
                self._threads.add(thread)
            thread.start()

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
            "accepting": self._listener is not None and not self.draining,
            "connections": len(self._connections),
            "max_connections": self.max_connections,
            "queue_depth": self._queued,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "open_txns": 0 if txn_manager is None else len(
                txn_manager.active),
            "shed": db.metrics.get("server.shed"),
            "degraded_paths": [] if path_health is None else [
                list(key) for key in path_health.unhealthy()],
            # A full_analyze that keeps climbing under annotation traffic
            # means statistics fell back to rescans.
            "stats_full_analyze": db.metrics.get("stats.full_analyze"),
            "stats_incremental_deltas":
                db.metrics.get("stats.incremental_deltas"),
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
        """This node's durable log position (flushed WAL tail on a primary,
        applied watermark on a replica), stamped into every success so
        clients can carry their last commit LSN into staleness reads."""
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
        """Bounded-staleness gate (runs inside the statement's slot):
        block until this node has applied through ``min_lsn``, else raise
        a typed ReplicaLaggingError — the statement never executes."""
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
            f"applied through LSN {current}, statement requires {min_lsn}",
            applied_lsn=current, min_lsn=min_lsn)

    # -- network fault injection ---------------------------------------------

    def _net_fault(self, op: str, sock: socket.socket):
        """Act out the next scheduled network fault for ``op`` on
        ``sock``: a reset aborts the connection and raises
        ConnectionResetError, a stall sleeps, and a garble or partial
        frame is returned for the caller to apply (else None)."""
        plan = self.network_faults
        if plan is None:
            return None
        with self._lock:
            index = self._net_ops[op]
            self._net_ops[op] = index + 1
            fault = plan.consume(op, index)
        if fault is None:
            return None
        self.db.metrics.inc("server.faults.injected")
        self.db.metrics.inc(f"server.faults.injected.{fault.kind}")
        if fault.kind == NetworkFaultKind.RESET:
            _abort(sock)
            raise ConnectionResetError(f"injected network reset ({op})")
        if fault.kind == NetworkFaultKind.STALL:
            time.sleep(fault.stall_seconds)
            return None
        return fault

    # -- connection handling -------------------------------------------------

    def _handle_connection(self, sock: socket.socket) -> None:
        """A connection's thread: admit it, then answer one request at a
        time until the client leaves, idles out or the server drains."""
        conn = None
        try:
            sock.settimeout(self.idle_timeout)
            self._net_fault("accept", sock)
            conn = self._admit(sock)
            while conn is not None and self._serve_request(conn):
                pass
        except OSError:
            pass  # reset at accept
        finally:
            if conn is not None:
                # Aborts any open transaction and releases every lock: a
                # dropped connection can never strand a table lock.
                with self._lock:
                    self._connections.discard(conn)
                    self.db.metrics.set_gauge(
                        "server.active_connections", len(self._connections))
                conn.session.close()
            sock.close()

    def _admit(self, sock: socket.socket) -> _Conn | None:
        """Register the connection and its session, or refuse it with a
        typed frame (draining, or at the connection cap)."""
        with self._lock:
            if self.draining:
                refusal = _error_response(
                    "server is draining; connection rejected",
                    "ServerShuttingDownError")
            elif (self.max_connections is not None
                    and len(self._connections) >= self.max_connections):
                # Admission control: shed the connection with a typed
                # frame before any session (or lock surface) exists.
                refusal = self._shed("connections", f"server at its "
                                     f"{self.max_connections}-connection "
                                     "cap; connection rejected")
            else:
                self.db.metrics.inc("server.connections")
                conn = _Conn(sock, self.db.session())
                self._connections.add(conn)
                self.db.metrics.set_gauge(
                    "server.active_connections", len(self._connections))
                return conn
        self._send_best_effort(sock, refusal)
        return None

    def _serve_request(self, conn: _Conn) -> bool:
        """Read, run and answer one request; False ends the connection."""
        sock = conn.sock
        try:
            request = self._read_frame(sock)
        except TimeoutError:
            self.db.metrics.inc("server.idle_closed")
            self._send_best_effort(sock, _error_response(
                f"connection idle for more than {self.idle_timeout}s; "
                "closing", "ServerError",
            ))
            return False
        except ProtocolError as exc:
            # A peer that cannot frame is out of sync with the stream:
            # answer once, then hang up.
            self.db.metrics.inc("server.errors")
            self._send_best_effort(sock, _error_response(
                str(exc), "ProtocolError"))
            return False
        except OSError:
            return False  # reset, or stop() closed this idle connection
        if request is None:
            return False  # EOF at a frame boundary: clean disconnect
        with self._lock:
            conn.busy = True
        try:
            response = self._respond(conn, request)
            if conn.hung_up:
                # The statement was cancelled at a checkpoint; there is
                # no one left to answer.
                self.db.metrics.inc("server.cancelled_disconnects")
                return False
            try:
                self._send(sock, response)
            except ProtocolError as exc:
                # The *result* frame exceeds the cap — that is a
                # statement-level failure, not a framing breach by the
                # peer: answer typed, keep the connection.
                self.db.metrics.inc("server.errors")
                self._send(sock, _error_response(
                    f"result exceeds the {self.max_frame}-byte frame cap "
                    f"({exc})", "ServerError",
                ))
        except (ProtocolError, OSError):
            return False
        finally:
            # A statement keeps its slot (and queue place) until its
            # answer is written: under the interpreter lock, that write is
            # where requests that arrived meanwhile reach admission, and
            # they must meet the busy slot (DESIGN.md §5h).
            self._release_slot(conn)
            with self._lock:
                conn.busy = False
                # stop() closes the connections it finds idle; one it
                # found busy ends here, its last answer out.
                stopping = self._listener is None
        return not stopping

    def _respond(self, conn: _Conn, request: dict) -> dict:
        """The response to one decoded request (never raises)."""
        op = request.get("op")
        try:
            if op is None:
                return self._run_statement(conn, request)
            if op == "health":
                # Health probes are answered inline — never queued, never
                # shed, still answered while draining — so load
                # balancers can always see the server's state.
                self.db.metrics.inc("server.health_requests")
                return {"ok": True, "result": self.health()}
            handler = self.ops.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            self.db.metrics.inc(f"server.ops.{op}")
            return {"ok": True, "result": handler(request, conn),
                    "lsn": self._current_lsn()}
        except ReproError as exc:
            self.db.metrics.inc("server.errors")
            return _error_response(str(exc), type(exc).__name__)
        except Exception as exc:  # an engine bug must not drop the client
            what = "statement" if op is None else f"op {op!r}"
            _log.exception("%s failed: %r", what, request)
            self.db.metrics.inc("server.errors")
            return _error_response(f"{what} failed: {exc}", "ServerError")

    def _shed(self, cause: str, message: str,
              error_type: str = "ServerOverloadedError") -> dict:
        self.db.metrics.inc("server.shed")
        self.db.metrics.inc(f"server.shed.{cause}")
        return _error_response(message, error_type)

    def _run_statement(self, conn: _Conn, request: dict) -> dict:
        """Validate, admit and execute one SQL request on this thread."""
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("request needs a non-empty 'sql'")
        # The server's default and maximum clamp the client's deadline.
        timeout = _seconds(request, "timeout")
        if timeout is None:
            timeout = self.default_timeout
        if self.max_timeout is not None:
            timeout = (self.max_timeout if timeout is None
                       else min(timeout, self.max_timeout))
        min_lsn = request.get("min_lsn")
        if min_lsn is not None and (isinstance(min_lsn, bool) or not
                                    isinstance(min_lsn, int) or min_lsn < 0):
            raise ProtocolError("'min_lsn' must be a non-negative integer")
        min_lsn_timeout = _seconds(request, "min_lsn_timeout", 0)
        self.db.metrics.inc("server.requests")
        if self.draining:
            return self._shed("draining",
                              "server is draining; statement rejected",
                              "ServerShuttingDownError")
        shed = self._take_slot(conn)
        if shed is not None:
            return shed
        started = time.perf_counter()
        # The bounded-staleness gate waits (or raises) inside the slot,
        # before the statement runs.
        if min_lsn:
            self._await_min_lsn(min_lsn, min_lsn_timeout)
        result = conn.session.execute(sql, timeout, hangup=conn.peer_gone)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        return {"ok": True, "result": jsonable_result(result),
                "elapsed_ms": round(elapsed_ms, 3),
                "lsn": self._current_lsn()}

    def _take_slot(self, conn: _Conn) -> dict | None:
        """Take a statement slot for ``conn``, else a queue place to wait
        for one at most ``queue_timeout``; with every queue place taken
        the statement is shed *now*, typed, instead of stacking latency.
        Returns the shed response, or None."""
        if self._slots.acquire(blocking=False):
            conn.has_slot = True
            return None
        with self._lock:
            if self._queued >= self.queue_limit:
                return self._shed(
                    "queue_full", f"statement queue is full "
                    f"({self._queued} queued); statement shed")
            self._queued += 1
            self.db.metrics.set_gauge("server.queue_depth", self._queued)
        conn.queued = True
        if self._slots.acquire(timeout=self.queue_timeout):
            conn.has_slot = True
            return None
        self._release_slot(conn)
        return self._shed("queue_deadline",
                          f"no worker free within the {self.queue_timeout}s "
                          "queue deadline; statement shed")

    def _release_slot(self, conn: _Conn) -> None:
        """Give back what ``conn``'s statement held, once its answer is
        out (see :meth:`_serve_request`)."""
        if conn.queued:
            conn.queued = False
            with self._lock:
                self._queued -= 1
                self.db.metrics.set_gauge("server.queue_depth",
                                          self._queued)
        if conn.has_slot:
            conn.has_slot = False
            self._slots.release()

    # -- framing over a blocking socket --------------------------------------

    def _read_frame(self, sock: socket.socket) -> dict | None:
        """Read one request frame; None on a clean EOF at a frame
        boundary."""
        garble = self._net_fault("read", sock)
        header = sock.recv(LENGTH.size)
        if not header:
            return None
        length, has_crc = decode_header(
            _recv_exactly(sock, LENGTH.size, "header", header),
            self.max_frame)
        declared_crc = None
        if has_crc:
            (declared_crc,) = LENGTH.unpack(
                _recv_exactly(sock, LENGTH.size, "checksum"))
        payload = _recv_exactly(sock, length, "payload")
        if garble is not None:
            # Corrupt the received request the way a broken network
            # would have: the checksum (or the JSON decode) must catch
            # it — a garbled statement is never executed.
            payload = self.network_faults.garble(
                payload, garble.garble_bytes)
        if declared_crc is not None:
            verify_crc(payload, declared_crc)
        return decode_payload(payload)

    def _send(self, sock: socket.socket, obj: dict) -> None:
        frame = encode_frame(obj, self.max_frame, crc=True)
        fault = self._net_fault("write", sock)
        if fault is not None and \
                fault.kind == NetworkFaultKind.PARTIAL_FRAME:
            # Only a prefix reaches the wire, then the connection drops —
            # the client must never read this as a result.
            sock.sendall(frame[:self.network_faults.partial_length(
                len(frame), fault)])
            _abort(sock)
            raise ConnectionResetError("injected partial frame (write)")
        if fault is not None:
            # A garble: corrupt bytes anywhere in the frame (header
            # included); the length check or checksum catches it.
            frame = self.network_faults.garble(frame, fault.garble_bytes)
        sock.sendall(frame)

    def _send_best_effort(self, sock: socket.socket, obj: dict) -> None:
        """Answer a peer we are about to hang up on, if it still listens."""
        try:
            self._send(sock, obj)
        except (ProtocolError, OSError):
            pass


async def run_until_signalled(node, listening: str, drained: str) -> None:
    """The CLI runners' shell, and the only asyncio in the server: start
    ``node`` (anything with ``start``/``stop``/``host``/``port``), print
    ``listening`` and its address, serve until SIGTERM/SIGINT (or
    cancellation), then drain it and print ``drained``."""
    node.start()
    print(f"{listening} {node.host}:{node.port}", flush=True)
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    installed: list = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_requested.set)
            installed.append(sig)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # non-main thread or platform without signal support
    try:
        await stop_requested.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        node.stop()  # graceful drain: finish or cancel in-flight
        print(drained, flush=True)


async def serve(db, host: str = "127.0.0.1", port: int = 0,
                workers: int = DEFAULT_WORKERS, **kwargs) -> None:
    """Convenience runner (drive it with ``asyncio.run``): serve ``db``
    until SIGTERM/SIGINT (or cancellation), then gracefully drain."""
    server = QueryServer(db, host=host, port=port, workers=workers, **kwargs)
    if getattr(db, "wal", None) is not None:
        # A WAL-backed database served standalone is a replication-
        # capable primary: replicas may attach at any time.
        from repro.replication.primary import ReplicationEndpoint

        ReplicationEndpoint(server).install()
    await run_until_signalled(server, "repro server listening on",
                              "repro server drained")
