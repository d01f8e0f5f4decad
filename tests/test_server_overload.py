"""Overload-safe serving: admission control, clamping, graceful drain.

Covers the PR-8 robustness contract end to end (DESIGN.md §5h):

* admission control — the connection cap and the bounded statement
  queue shed with *typed* overload errors, within the queue deadline,
  and a shed statement is guaranteed to never have executed;
* the oversized-*result* regression — a result that cannot fit the
  frame cap answers a typed ``ServerError`` and keeps the connection
  (only peers that cannot frame get hung up on);
* server-side statement-deadline clamping and idle-connection reaping;
* the ``{"op": "health"}`` frame (answered inline, never queued);
* metrics reconciliation under churn — every well-formed statement is
  accounted exactly once: succeeded, erred, or shed;
* graceful drain — ``stop()`` lets in-flight statements finish, then
  cooperatively cancels stragglers; no lock and no open transaction
  survives shutdown (the PR-7 ``shutdown(wait=False)`` regression);
* the ``python -m repro serve`` SIGTERM path drains and exits 0.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import ProtocolError, ServerError
from repro.server import QueryClient, QueryServer
from repro.storage.record import ValueType
from repro.txn.session import Session
from tests.test_server import ServerHarness, wait_for


def held_locks(db) -> dict:
    """Owners that actually hold lock modes right now (the registry's
    lock *entries* are intentionally never deleted, so ``len(lock
    manager)`` is not a leak signal — held modes are)."""
    manager = db.lock_manager
    with manager._held_lock:
        return {owner: set(resources)
                for owner, resources in manager._held.items() if resources}


@pytest.fixture()
def db():
    database = Database(buffer_pages=32)
    database.create_table("t", [Column("name", ValueType.TEXT),
                                Column("v", ValueType.INT)])
    database.create_table("u", [Column("name", ValueType.TEXT),
                                Column("v", ValueType.INT)])
    for i in range(10):
        database.insert("t", [f"r{i}", i])
        database.insert("u", [f"u{i}", i])
    return database


def make_harness(db, **kwargs) -> ServerHarness:
    return ServerHarness(db, **kwargs)


class _LockHolder:
    """Pins table ``t`` exclusively so admitted statements park in a
    lock wait — a deterministic way to keep workers busy."""

    def __init__(self, db, table: str = "t"):
        self.db = db
        self.table = table
        db.lock_manager.acquire_exclusive("holder", table)
        self.released = False

    def release(self):
        if not self.released:
            self.db.lock_manager.release_all("holder")
            self.released = True


class TestConnectionCap:
    def test_excess_connection_sheds_with_typed_frame(self, db):
        h = make_harness(db, max_connections=2, workers=2)
        try:
            a = QueryClient(port=h.port)
            b = QueryClient(port=h.port)
            a.execute("Select * From t")
            b.execute("Select * From t")
            # Third connection: rejected before any session exists.
            with QueryClient(port=h.port) as c:
                with pytest.raises(ServerError) as exc_info:
                    c.execute("Select * From t")
            assert exc_info.value.error_type == "ServerOverloadedError"
            snap = db.metrics.snapshot()
            assert snap["server.shed"] == 1
            assert snap["server.shed.connections"] == 1
            # No session was created for the shed connection.
            assert snap["server.connections"] == 2
            # Releasing an admitted slot re-opens admission.
            a.close()
            assert wait_for(lambda: db.metrics.get_gauge(
                "server.active_connections") == 1)
            with QueryClient(port=h.port) as d:
                assert d.execute("Select * From t")["row_count"] == 10
            b.close()
        finally:
            h.stop()

    def test_shed_connection_acquired_nothing(self, db):
        h = make_harness(db, max_connections=1, workers=1)
        try:
            keeper = QueryClient(port=h.port)
            keeper.execute("Select * From t")
            with QueryClient(port=h.port) as shed:
                with pytest.raises(ServerError):
                    shed.execute("Insert Into t Values ('shed', 1)")
            assert db.metrics.get("txn.begins") >= 0  # server survived
            keeper.close()
            assert wait_for(lambda: not held_locks(db))
        finally:
            h.stop()


class TestStatementQueue:
    def test_queue_full_sheds_immediately(self, db):
        h = make_harness(db, workers=1, max_connections=16,
                         queue_limit=1, queue_timeout=5.0)
        holder = _LockHolder(db)
        try:
            busy = QueryClient(port=h.port)
            results: dict = {}

            def run_busy():
                try:
                    results["busy"] = busy.execute(
                        "Insert Into t Values ('busy', 1)", timeout=30)
                except Exception as exc:  # pragma: no cover
                    results["busy"] = exc

            t_busy = threading.Thread(target=run_busy, daemon=True)
            t_busy.start()
            # Wait until the worker is genuinely occupied.
            assert wait_for(lambda: db.metrics.get("server.requests") >= 1)
            time.sleep(0.1)

            queued = QueryClient(port=h.port)

            def run_queued():
                try:
                    results["queued"] = queued.execute(
                        "Select * From u", timeout=30)
                except Exception as exc:  # pragma: no cover
                    results["queued"] = exc

            t_queued = threading.Thread(target=run_queued, daemon=True)
            t_queued.start()
            assert wait_for(lambda: db.metrics.get_gauge(
                "server.queue_depth") == 1)

            # Queue is at its limit: the next statement sheds *now*.
            started = time.monotonic()
            with QueryClient(port=h.port) as extra:
                with pytest.raises(ServerError) as exc_info:
                    extra.execute("Select * From u")
            assert time.monotonic() - started < 2.0
            assert exc_info.value.error_type == "ServerOverloadedError"
            assert db.metrics.get("server.shed.queue_full") == 1

            holder.release()
            t_busy.join(30)
            t_queued.join(30)
            assert results["busy"] is None  # INSERT returns None
            assert results["queued"]["row_count"] == 10
            busy.close()
            queued.close()
        finally:
            holder.release()
            h.stop()

    def test_queue_deadline_sheds_within_deadline(self, db):
        h = make_harness(db, workers=1, max_connections=16,
                         queue_limit=8, queue_timeout=0.2)
        holder = _LockHolder(db)
        try:
            busy = QueryClient(port=h.port)
            done: list = []

            def run_busy():
                try:
                    busy.execute("Insert Into t Values ('busy', 1)",
                                 timeout=30)
                finally:
                    done.append(True)

            threading.Thread(target=run_busy, daemon=True).start()
            assert wait_for(lambda: db.metrics.get("server.requests") >= 1)
            time.sleep(0.1)

            started = time.monotonic()
            with QueryClient(port=h.port) as waiter:
                with pytest.raises(ServerError) as exc_info:
                    waiter.execute("Select * From u")
            elapsed = time.monotonic() - started
            assert exc_info.value.error_type == "ServerOverloadedError"
            assert "queue deadline" in str(exc_info.value)
            # Typed answer within the queue deadline (+ scheduling slack).
            assert 0.15 <= elapsed < 2.0
            assert db.metrics.get("server.shed.queue_deadline") == 1

            holder.release()
            assert wait_for(lambda: bool(done), timeout=30)
            busy.close()
        finally:
            holder.release()
            h.stop()

    def test_shed_statement_never_executed(self, db):
        h = make_harness(db, workers=1, max_connections=16,
                         queue_limit=1, queue_timeout=0.15)
        holder = _LockHolder(db)
        try:
            busy = QueryClient(port=h.port)
            threading.Thread(
                target=lambda: busy.execute(
                    "Insert Into t Values ('busy', 1)", timeout=30),
                daemon=True,
            ).start()
            assert wait_for(lambda: db.metrics.get("server.requests") >= 1)
            time.sleep(0.1)
            # This write is shed (queue deadline) — it must never run.
            with QueryClient(port=h.port) as shed:
                with pytest.raises(ServerError) as exc_info:
                    shed.execute("Insert Into u Values ('phantom', 9)")
            assert exc_info.value.error_type == "ServerOverloadedError"
            holder.release()
            assert wait_for(
                lambda: len(db.sql(
                    "Select * From t r Where r.name = 'busy'")) == 1,
                timeout=30)
            with QueryClient(port=h.port) as check:
                assert check.execute(
                    "Select * From u r Where r.name = 'phantom'"
                )["row_count"] == 0
            busy.close()
        finally:
            holder.release()
            h.stop()


class TestTimeoutClamping:
    def test_max_timeout_clamps_client_deadline(self, db):
        h = make_harness(db, workers=2, max_connections=16,
                         max_timeout=0.15)
        holder = _LockHolder(db)
        try:
            started = time.monotonic()
            with QueryClient(port=h.port) as client:
                with pytest.raises(ServerError) as exc_info:
                    # The client asks for a minute; the server caps it.
                    client.execute("Insert Into t Values ('x', 1)",
                                   timeout=60)
            elapsed = time.monotonic() - started
            assert exc_info.value.error_type in (
                "QueryTimeoutError", "LockTimeoutError")
            assert elapsed < 5.0
        finally:
            holder.release()
            h.stop()

    def test_default_timeout_applies_when_client_sends_none(self, db):
        h = make_harness(db, workers=2, max_connections=16,
                         default_timeout=0.15)
        holder = _LockHolder(db)
        try:
            with QueryClient(port=h.port) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.execute("Insert Into t Values ('x', 1)")
            assert exc_info.value.error_type in (
                "QueryTimeoutError", "LockTimeoutError")
        finally:
            holder.release()
            h.stop()


class TestOversizedResult:
    def test_oversized_result_answers_typed_error_and_keeps_conn(self, db):
        # Small response cap; requests stay tiny, the SELECT result
        # does not fit.
        h = make_harness(db, max_frame=2048, workers=2, max_connections=16)
        try:
            with QueryClient(port=h.port, max_frame=2048) as client:
                wide = "x" * 120
                for i in range(40):
                    client.execute(
                        f"Insert Into u Values ('{wide}{i}', {i})")
                with pytest.raises(ServerError) as exc_info:
                    client.execute("Select * From u")
                assert exc_info.value.error_type == "ServerError"
                assert "frame cap" in str(exc_info.value)
                # The connection survived: narrow queries still answer.
                assert client.execute(
                    "Select * From u r Where r.v = 1"
                )["row_count"] == 2
        finally:
            h.stop()


class TestIdleTimeout:
    def test_idle_connection_is_reaped(self, db):
        h = make_harness(db, workers=2, max_connections=16,
                         idle_timeout=0.2)
        try:
            client = QueryClient(port=h.port)
            assert client.execute("Select * From t")["row_count"] == 10
            assert wait_for(
                lambda: db.metrics.get("server.idle_closed") == 1,
                timeout=5)
            # The server said goodbye (typed frame) and hung up.
            with pytest.raises((ServerError, ProtocolError,
                                ConnectionError, OSError)):
                client.execute("Select * From t")
                client.execute("Select * From t")
            client.close()
            assert wait_for(lambda: db.metrics.get_gauge(
                "server.active_connections") == 0)
            assert not held_locks(db)
        finally:
            h.stop()


class TestHealthFrame:
    def test_health_snapshot_shape(self, db):
        h = make_harness(db, workers=3, max_connections=7, queue_limit=5)
        try:
            with QueryClient(port=h.port) as client:
                health = client.health()
            assert health["status"] == "ok"
            assert health["draining"] is False
            assert health["accepting"] is True
            assert health["connections"] == 1
            assert health["max_connections"] == 7
            assert health["queue_depth"] == 0
            assert health["queue_limit"] == 5
            assert health["workers"] == 3
            assert health["open_txns"] == 0
            assert health["shed"] == 0
            assert health["degraded_paths"] == []
            assert db.metrics.get("server.health_requests") == 1
            # Health probes are not statements: requests stays 0.
            assert db.metrics.get("server.requests") == 0
        finally:
            h.stop()

    def test_health_reports_degraded_paths(self, db):
        h = make_harness(db, workers=2, max_connections=16)
        try:
            db.health.quarantine("summary", "t", "SummaryIndex",
                                 reason="chaos test")
            with QueryClient(port=h.port) as client:
                health = client.health()
            assert ["summary", "t", "SummaryIndex"] in \
                health["degraded_paths"]
        finally:
            db.health.restore_all()
            h.stop()

    def test_health_reflects_drain_state(self, db):
        h = make_harness(db, workers=2, max_connections=16)
        try:
            with QueryClient(port=h.port) as client:
                # Round-trip first so the connection is fully admitted
                # before the drain flag flips.
                client.execute("Select * From t")
                h.server.draining = True
                health = client.health()  # still answered while draining
                assert health["status"] == "draining"
                assert health["draining"] is True
                assert health["accepting"] is False
                h.server.draining = False
        finally:
            h.stop()

    def test_draining_server_rejects_new_statements(self, db):
        h = make_harness(db, workers=2, max_connections=16)
        try:
            with QueryClient(port=h.port) as client:
                client.execute("Select * From t")
                h.server.draining = True
                with pytest.raises(ServerError) as exc_info:
                    client.execute("Select * From t")
                assert exc_info.value.error_type == \
                    "ServerShuttingDownError"
                h.server.draining = False
            assert db.metrics.get("server.shed.draining") == 1
        finally:
            h.stop()


class TestMetricsReconciliation:
    def test_churn_reconciles_exactly(self, db):
        """Every well-formed statement is accounted exactly once:
        ``server.requests == succeeded + server.errors + server.shed``
        (shape errors and health probes are not statements)."""
        h = make_harness(db, workers=1, max_connections=16,
                         queue_limit=1, queue_timeout=0.15)
        outcomes = {"ok": 0, "error": 0, "shed": 0}
        lock = threading.Lock()

        def record(kind):
            with lock:
                outcomes[kind] += 1

        def run(client, sql, timeout=None):
            try:
                client.execute(sql, timeout=timeout)
                record("ok")
            except ServerError as exc:
                record("shed" if exc.error_type == "ServerOverloadedError"
                       else "error")

        try:
            # Phase 1: plain traffic — successes and statement errors.
            with QueryClient(port=h.port) as client:
                for _ in range(5):
                    run(client, "Select * From t")
                for _ in range(2):
                    run(client, "SELEKT nope")
                client.health()  # not a statement

            # Phase 2: congestion — one statement occupies the worker,
            # one queues, one is shed off the full queue.
            holder = _LockHolder(db)
            busy = QueryClient(port=h.port)
            queued = QueryClient(port=h.port)
            threads = [
                threading.Thread(target=run, args=(
                    busy, "Insert Into t Values ('busy', 1)", 0.6),
                    daemon=True),
            ]
            threads[0].start()
            assert wait_for(lambda: db.metrics.get("server.requests") >= 8)
            time.sleep(0.1)
            threads.append(threading.Thread(
                target=run, args=(queued, "Select * From u", 30),
                daemon=True))
            threads[1].start()
            assert wait_for(lambda: db.metrics.get_gauge(
                "server.queue_depth") == 1)
            with QueryClient(port=h.port) as extra:
                run(extra, "Select * From u")  # queue full -> shed
            for t in threads:
                t.join(30)
            holder.release()
            busy.close()
            queued.close()

            assert wait_for(lambda: db.metrics.get_gauge(
                "server.active_connections") == 0)
            snap = db.metrics.snapshot()
            attempted = snap["server.requests"]
            assert attempted == sum(outcomes.values()) == 10
            # Each bucket is individually right, and they partition.
            assert outcomes["shed"] >= 1
            assert snap["server.shed"] == outcomes["shed"]
            assert snap["server.errors"] == outcomes["error"]
            assert attempted == (outcomes["ok"] + snap["server.errors"]
                                 + snap["server.shed"])
            assert snap.get("server.queue_depth", 0) == 0
        finally:
            h.stop()


class TestAdmissionUnderContention:
    def test_every_slot_and_queue_place_comes_back(self, db):
        """Eight client threads against one slot and one queue place,
        with a shortened switch interval so the connection threads
        interleave at every bytecode boundary: each statement is
        accounted exactly once and every slot and queue place returns."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        h = make_harness(db, workers=1, max_connections=16,
                         queue_limit=1, queue_timeout=0.05)
        outcomes = {"ok": 0, "error": 0, "shed": 0}
        lock = threading.Lock()

        def run():
            with QueryClient(port=h.port, response_timeout=30) as client:
                for _ in range(25):
                    try:
                        client.execute("Select * From t r Where r.v = 3")
                        kind = "ok"
                    except ServerError as exc:
                        kind = ("shed" if exc.error_type
                                == "ServerOverloadedError" else "error")
                    with lock:
                        outcomes[kind] += 1

        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert wait_for(lambda: db.metrics.get_gauge(
                "server.active_connections") == 0)
            snap = db.metrics.snapshot()
            assert snap["server.requests"] == sum(outcomes.values()) == 200
            assert outcomes["error"] == snap.get("server.errors", 0) == 0
            assert snap.get("server.shed", 0) == outcomes["shed"]
            assert db.metrics.get_gauge("server.queue_depth") == 0
            assert h.server.health()["queue_depth"] == 0
            # The one slot is free again (an extra release would have
            # raised: the semaphore is bounded).
            assert h.server._slots.acquire(blocking=False)
            h.server._slots.release()
        finally:
            sys.setswitchinterval(previous)
            h.stop()


class TestGracefulDrain:
    def test_stop_with_open_transaction_releases_everything(self, db):
        """The PR-7 regression: ``stop()`` used to abandon live
        connections (``shutdown(wait=False)``), stranding their
        transactions and table locks."""
        h = make_harness(db, workers=2, max_connections=16)
        client = QueryClient(port=h.port)
        client.execute("BEGIN")
        client.execute("Insert Into t Values ('open-txn', 1)")
        assert len(db.txn_manager.active) == 1
        assert held_locks(db)
        h.stop()  # graceful drain, no client cooperation
        assert len(db.txn_manager.active) == 0
        assert not held_locks(db)
        assert not any(thread.name == f"repro-conn-{h.port}"
                       for thread in threading.enumerate())
        assert h.server._connections == set()
        client.close()
        # The uncommitted write is gone (txn aborted, not committed).
        assert len(db.sql("Select * From t")) == 10

    def test_stop_joins_a_connection_thread_still_closing(
        self, db, monkeypatch
    ):
        """A connection thread leaves the connection set before its
        session closes; ``stop()`` must still wait for it to end."""
        h = make_harness(db, workers=2, max_connections=16)
        client = QueryClient(port=h.port)
        assert client.execute("Select * From t")["row_count"] == 10
        closing = threading.Event()
        close = Session.close

        def slow_close(session):
            if threading.current_thread().name == f"repro-conn-{h.port}":
                closing.set()
                time.sleep(0.3)
            close(session)

        monkeypatch.setattr(Session, "close", slow_close)
        client.close()  # the thread unregisters, then closes its session
        assert closing.wait(10)
        assert h.server._connections == set()
        h.stop()
        assert not any(thread.name == f"repro-conn-{h.port}"
                       for thread in threading.enumerate())

    def test_drain_waits_for_inflight_statement(self, db):
        h = make_harness(db, workers=2, max_connections=16)
        holder = _LockHolder(db)
        client = QueryClient(port=h.port)
        results: dict = {}

        def run():
            try:
                results["value"] = client.execute(
                    "Insert Into t Values ('drained', 7)", timeout=30)
            except Exception as exc:  # pragma: no cover
                results["value"] = exc

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        assert wait_for(lambda: db.metrics.get("server.requests") >= 1)
        time.sleep(0.1)
        # Free the statement shortly *after* the drain begins.
        threading.Timer(0.3, holder.release).start()
        h.server.stop(drain_timeout=10)
        worker.join(10)
        # The in-flight statement finished and its response went out.
        assert results["value"] is None
        assert db.metrics.get("server.drain_cancelled") == 0
        assert len(db.sql(
            "Select * From t r Where r.name = 'drained'")) == 1
        assert len(db.txn_manager.active) == 0
        assert not held_locks(db)
        client.close()
        h.stop()

    def test_drain_deadline_cancels_stragglers(self, db):
        h = make_harness(db, workers=2, max_connections=16)
        holder = _LockHolder(db)
        client = QueryClient(port=h.port)
        failures: list = []

        def run():
            try:
                client.execute("Insert Into t Values ('stuck', 1)",
                               timeout=60)
            except Exception as exc:
                failures.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        assert wait_for(lambda: db.metrics.get("server.requests") >= 1)
        time.sleep(0.15)
        started = time.monotonic()
        h.server.stop(drain_timeout=0.3)
        elapsed = time.monotonic() - started
        # Past the deadline the straggler was cooperatively cancelled —
        # stop() never waits for the full 60s statement deadline.
        assert elapsed < 10
        assert db.metrics.get("server.drain_cancelled") == 1
        assert len(db.txn_manager.active) == 0
        holder.release()
        assert not held_locks(db)
        worker.join(10)
        assert failures  # the client saw a failure, never a fake success
        client.close()
        h.stop()


class TestServeSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """tier-1 smoke for the CLI lifecycle: start ``python -m repro
        serve``, open a transaction, SIGTERM, expect a clean drain."""
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--drain-timeout", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=repo_root,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            client = QueryClient(port=port, connect_timeout=10)
            client.execute(
                "Create Table s (name TEXT, v INT)")
            client.execute("BEGIN")
            client.execute("Insert Into s Values ('inflight', 1)")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert "repro server drained" in out
            # The drained server hung up on the open-transaction client.
            with pytest.raises((ServerError, ProtocolError,
                                ConnectionError, OSError)):
                client.execute("COMMIT")
                client.execute("COMMIT")
            client.close()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.communicate()

    def test_second_connection_during_drain_is_rejected_typed(self, db):
        h = make_harness(db, workers=2, max_connections=16)
        try:
            h.server.draining = True
            with QueryClient(port=h.port) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.execute("Select * From t")
            assert exc_info.value.error_type == "ServerShuttingDownError"
            h.server.draining = False
        finally:
            h.stop()
