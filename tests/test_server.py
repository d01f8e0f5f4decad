"""Query-server tests: protocol framing, error handling, concurrency.

The server fixture binds an ephemeral port, so suites run in parallel
without port collisions.  Beyond the happy path, the suite covers the
protocol's documented failure contract — malformed frames and oversized
payloads answer an error frame and drop the connection, statement
errors keep it — pipelined frames, and the disconnect guarantee:
a client that hangs up mid-statement gets its statement *cancelled*
through the cooperative path and its session closed, so no table lock
outlives the connection.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database, QueryReport
from repro.errors import ProtocolError, ServerError
from repro.query.parser import parse_sql
from repro.server import QueryClient, QueryServer
from repro.server.protocol import (
    LENGTH,
    decode_length,
    decode_payload,
    encode_frame,
    jsonable_result,
)
from repro.storage.record import ValueType


class ServerHarness:
    """One started server; exposes the bound port."""

    def __init__(self, db: Database, **kwargs):
        self.db = db
        self.server = QueryServer(db, **kwargs)
        self.server.start()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self):
        # Idempotent: failover tests kill the primary before teardown.
        self.server.stop()


@pytest.fixture()
def harness():
    db = Database(buffer_pages=32)
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    for i in range(10):
        db.insert("t", [f"r{i}", i])
    h = ServerHarness(db)
    try:
        yield h
    finally:
        h.stop()


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestProtocolUnits:
    def test_frame_roundtrip(self):
        frame = encode_frame({"sql": "SELECT 1"})
        length = decode_length(frame[:LENGTH.size])
        assert length == len(frame) - LENGTH.size
        assert decode_payload(frame[LENGTH.size:]) == {"sql": "SELECT 1"}

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"sql": "x" * 100}, max_frame=50)

    def test_oversized_length_rejected(self):
        with pytest.raises(ProtocolError):
            decode_length(struct.pack(">I", 1 << 30), max_frame=1024)

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError):
            decode_length(b"\x00\x01")

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"{not json")
        with pytest.raises(ProtocolError):
            decode_payload(b'"a bare string"')

    def test_jsonable_result_shapes(self):
        db = Database()
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        db.insert("t", ["a", 1])
        rs = jsonable_result(db.sql("Select name, v From t"))
        assert rs == {"columns": ["name", "v"],
                      "rows": [["a", 1]], "row_count": 1}
        assert jsonable_result(None) is None
        assert jsonable_result(7) == 7
        assert jsonable_result(["x", "y"]) == ["x", "y"]
        report = db.sql("Explain Select name From t")
        assert isinstance(report, QueryReport)
        assert isinstance(jsonable_result(report), str)


class TestServerBasics:
    def test_execute_and_result_shape(self, harness):
        with QueryClient(port=harness.port) as client:
            result = client.execute("Select name, v From t")
            assert result["row_count"] == 10
            assert ["r0", 0] in result["rows"]
            assert client.execute(
                "Insert Into t Values ('fresh', 99)") is None
            assert client.execute(
                "Delete From t r Where r.name = 'fresh'") == 1

    def test_statement_error_keeps_connection(self, harness):
        with QueryClient(port=harness.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client.execute("SELEKT nope")
            assert exc_info.value.error_type == "ParseError"
            with pytest.raises(ServerError) as exc_info:
                client.execute("Select * From missing_table")
            assert exc_info.value.error_type == "BindError"
            # Same connection still serves statements.
            assert client.execute("Select * From t")["row_count"] == 10

    def test_engine_bug_answers_typed_error_and_keeps_connection(
        self, harness, monkeypatch
    ):
        """A statement that raises something other than a ReproError (an
        engine bug) is answered a typed ServerError; the connection and
        its session keep serving."""
        from repro.catalog.table import Table

        real = Table.scan_batches
        calls = []

        def broken_once(self, batch_rows):
            calls.append(self.name)
            if len(calls) == 1:
                raise RuntimeError("injected engine bug")
            return real(self, batch_rows)

        monkeypatch.setattr(Table, "scan_batches", broken_once)
        errors = harness.db.metrics.snapshot().get("server.errors", 0)
        with QueryClient(port=harness.port) as client:
            with pytest.raises(ServerError) as exc_info:
                client.execute("Select name From t")
            assert exc_info.value.error_type == "ServerError"
            assert "injected engine bug" in str(exc_info.value)
            assert client.execute("Select name From t")["row_count"] == 10
        assert harness.db.metrics.snapshot()["server.errors"] == errors + 1

    def test_transactions_over_the_wire(self, harness):
        with QueryClient(port=harness.port) as client:
            client.execute("BEGIN")
            client.execute("Insert Into t Values ('txn-row', 50)")
            assert client.execute("Select * From t")["row_count"] == 10
            client.execute("COMMIT")
            assert client.execute("Select * From t")["row_count"] == 11

    def test_disconnect_aborts_open_transaction(self, harness):
        client = QueryClient(port=harness.port)
        client.execute("BEGIN")
        client.execute("Insert Into t Values ('ghost', 1)")
        client.close()
        # The server-side session closes with the connection: the txn
        # aborts and its exclusive table lock is released.
        assert wait_for(lambda: len(harness.db.txn_manager.active) == 0)
        with QueryClient(port=harness.port) as other:
            assert other.execute("Select * From t")["row_count"] == 10
            other.execute("Insert Into t Values ('after', 2)")

    def test_request_shape_errors_keep_connection(self, harness):
        with QueryClient(port=harness.port) as client:
            client.send_raw(encode_frame({"nosql": True}))
            response = client.recv_response()
            assert response["ok"] is False
            assert response["error_type"] == "ProtocolError"
            client.send_raw(encode_frame({"sql": "SELECT 1",
                                          "timeout": "soon"}))
            assert client.recv_response()["ok"] is False
            assert client.execute("Select * From t")["row_count"] == 10

    def test_metrics(self, harness):
        with QueryClient(port=harness.port) as client:
            client.execute("Select * From t")
            with pytest.raises(ServerError):
                client.execute("SELEKT")
        snap = harness.db.metrics.snapshot()
        assert snap["server.connections"] == 1
        assert snap["server.requests"] == 2
        assert snap["server.errors"] == 1


class TestProtocolViolations:
    def test_malformed_json_frame_drops_connection(self, harness):
        client = QueryClient(port=harness.port)
        payload = b"{definitely not json"
        client.send_raw(LENGTH.pack(len(payload)) + payload)
        response = client.recv_response()
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"
        # The server hung up after answering.
        with pytest.raises((ProtocolError, ConnectionError)):
            client.send_raw(encode_frame({"sql": "Select * From t"}))
            client.recv_response()
        client.close()

    def test_oversized_frame_drops_connection(self, harness):
        client = QueryClient(port=harness.port)
        client.send_raw(LENGTH.pack(64 * 1024 * 1024))  # > MAX_FRAME
        response = client.recv_response()
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"
        client.close()

    def test_mid_header_disconnect_is_clean(self, harness):
        sock = socket.create_connection(("127.0.0.1", harness.port))
        sock.sendall(b"\x00\x00")  # half a header
        sock.close()
        # The server must survive; a fresh connection works.
        with QueryClient(port=harness.port) as client:
            assert client.execute("Select * From t")["row_count"] == 10

    def test_mid_frame_disconnect_is_clean(self, harness):
        sock = socket.create_connection(("127.0.0.1", harness.port))
        sock.sendall(LENGTH.pack(1000) + b"only a bit")
        sock.close()
        with QueryClient(port=harness.port) as client:
            assert client.execute("Select * From t")["row_count"] == 10

    def test_nonlocking_sql_still_parses(self, harness):
        # Sanity: the SQL sent over the wire is ordinary parser input.
        parse_sql("Select name, v From t")


class TestDeadlineValidation:
    """Client deadlines must be finite, non-negative numbers: NaN would
    slip past ``min(timeout, max_timeout)`` and never fire, infinity
    overflows a replica's staleness wait, and ``true`` is not 1s."""

    @pytest.mark.parametrize("field,value", [
        ("timeout", float("nan")),
        ("timeout", float("inf")),
        ("timeout", True),
        ("timeout", -1),
        ("min_lsn_timeout", float("nan")),
        ("min_lsn_timeout", float("inf")),
        ("min_lsn_timeout", -0.5),
    ])
    def test_bad_deadline_is_a_typed_protocol_error(self, harness, field,
                                                    value):
        with QueryClient(port=harness.port) as client:
            client.send_raw(encode_frame(
                {"sql": "Select * From t", "min_lsn": 0, field: value}))
            response = client.recv_response()
            assert response["ok"] is False
            assert response["error_type"] == "ProtocolError"
            assert field in response["error"]
            # A shape error keeps the connection.
            assert client.execute("Select * From t")["row_count"] == 10
        assert harness.db.metrics.get("server.requests") == 1

    def test_nan_cannot_escape_the_max_timeout_clamp(self):
        db = Database(buffer_pages=32)
        db.create_table("t", [Column("name", ValueType.TEXT)])
        h = ServerHarness(db, max_timeout=0.15)
        db.lock_manager.acquire_exclusive("holder", "t")
        try:
            with QueryClient(port=h.port) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.execute("Insert Into t Values ('x')",
                                   timeout=float("nan"))
            assert exc_info.value.error_type == "ProtocolError"
            assert db.metrics.get("lock.waits") == 0
        finally:
            db.lock_manager.release_all("holder")
            h.stop()


class TestPipelining:
    def test_two_frames_in_one_send_answer_in_order(self, harness):
        db = harness.db
        # The first statement parks in a lock wait, so its hangup probe
        # polls while the second frame sits unread in the socket.
        db.lock_manager.acquire_exclusive("holder", "t")
        threading.Timer(0.2, db.lock_manager.release_all,
                        args=("holder",)).start()
        with QueryClient(port=harness.port) as client:
            client.send_raw(
                encode_frame({"sql": "Insert Into t Values ('piped', 42)",
                              "timeout": 10})
                + encode_frame({"sql": "Select name From t r "
                                       "Where r.v = 42"}))
            first = client.recv_response()
            second = client.recv_response()
            assert first["ok"] is True and first["result"] is None
            assert second["ok"] is True
            assert second["result"]["rows"] == [["piped"]]
        assert db.metrics.get("server.connections") == 1
        assert db.metrics.get("server.cancelled_disconnects") == 0


class TestMidStatementDisconnect:
    def test_disconnect_cancels_and_releases_locks(self, harness):
        db = harness.db
        # An external holder pins t exclusively, so the client's INSERT
        # parks in a lock wait — a long-running statement we can hang up
        # on deterministically.
        db.lock_manager.acquire_exclusive("holder", "t")
        client = QueryClient(port=harness.port)
        client.send_raw(encode_frame(
            {"sql": "Insert Into t Values ('never', 1)", "timeout": 60}
        ))
        # Wait until the statement is genuinely inside the lock wait.
        assert wait_for(lambda: db.metrics.get("lock.timeouts") == 0
                        and db.metrics.get("server.requests") >= 1)
        time.sleep(0.15)
        client.close()  # hang up mid-statement
        assert wait_for(
            lambda: db.metrics.get("server.cancelled_disconnects") == 1
        ), "disconnect was not noticed while the statement ran"
        # The cancelled statement's cooperative path fired: resilience
        # counts a cancellation, not a lock timeout.
        assert wait_for(lambda: db.metrics.get("resilience.cancelled") == 1)
        db.lock_manager.release_all("holder")
        # No leaked locks: a new client writes immediately.
        with QueryClient(port=harness.port) as other:
            other.execute("Insert Into t Values ('works', 5)", timeout=5)
            assert other.execute(
                "Select * From t r Where r.name = 'never'"
            )["row_count"] == 0


class TestConcurrentClients:
    def test_parallel_readers(self, harness):
        errors: list[str] = []

        def reader():
            try:
                with QueryClient(port=harness.port) as client:
                    for _ in range(10):
                        result = client.execute("Select name, v From t")
                        if result["row_count"] != 10:
                            errors.append(f"saw {result['row_count']}")
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert errors == []
        assert harness.db.metrics.get("server.connections") == 4

    def test_parallel_writers_serialize_cleanly(self, harness):
        errors: list[str] = []

        def writer(wid: int):
            try:
                with QueryClient(port=harness.port) as client:
                    for i in range(5):
                        client.execute("BEGIN")
                        client.execute(
                            f"Insert Into t Values ('w{wid}-{i}', {i})"
                        )
                        client.execute("COMMIT")
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert errors == []
        with QueryClient(port=harness.port) as client:
            assert client.execute("Select * From t")["row_count"] == 25
        assert harness.db.metrics.get("txn.commits") == 15
