"""Concurrency test battery: the proof obligations of ISSUE 7.

Three layers, cheapest first:

* **Hypothesis stateful machine** — several persistent sessions over one
  engine, driven through randomized BEGIN/DML/COMMIT/ABORT interleavings
  on a single thread, against a dict model that encodes the documented
  semantics exactly: buffered redo (no read-your-writes), strict 2PL at
  table granularity with timeout-as-deadlock-victim, monotonic OID
  pre-assignment.  Every statement's return value and every lock-table
  entry is checked against the model after every step.

* **Threaded serializability stress** — N worker threads of real
  transactions over one WAL-attached database.  The serialization order
  is read back from the WAL (commit groups land contiguously under the
  commit mutex while the committing transaction still holds its table
  locks, so log order *is* the serial order); the oracle replays each
  committed transaction's logical ops in that order on a dict model and
  must land exactly on the engine's final state.  Recorded per-statement
  row counts are replayed too — a lost update or phantom write shows up
  as a count mismatch at the exact transaction that observed it.

* **Transaction crash matrix** — the workload of explicit transactions
  is run against a WAL device that fail-stops at *every* append index
  and *every* sync index in turn; recovery from the surviving durable
  bytes must land on exactly the acked-commit prefix (the crashing
  commit may round up to durable when the fault hit at-or-after its
  commit sync — never a torn or partial transaction).

Example counts honour the conftest Hypothesis profiles; the slow-CI leg
raises them via ``HYPOTHESIS_PROFILE=ci-slow``.
"""

from __future__ import annotations

import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.catalog.schema import Column  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.errors import (  # noqa: E402
    InjectedFaultError,
    LockTimeoutError,
    ReproError,
    TransactionError,
)
from repro.faults import FaultPlan  # noqa: E402
from repro.storage.record import ValueType  # noqa: E402
from repro.txn.locks import ANNOTATION_RESOURCE  # noqa: E402
from repro.wal.device import MemoryWALDevice  # noqa: E402
from repro.wal.record import WALRecordType, scan_records  # noqa: E402

NUM_SESSIONS = 3


def fresh_db(device=None, **kwargs) -> Database:
    db = Database(buffer_pages=32, **kwargs)
    if device is not None:
        db.attach_wal(device)  # before DDL so recovery can rebuild 't'
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    return db


def table_rows(db: Database) -> dict[int, tuple]:
    if not db.catalog.has_table("t"):
        return {}  # a crash can land before the logged CREATE TABLE
    return {oid: tuple(values)
            for oid, values in db.catalog.table("t").scan()}


# ---------------------------------------------------------------------------
# Layer 1: Hypothesis stateful machine (single-threaded interleavings)
# ---------------------------------------------------------------------------


class ConcurrentTxnMachine(RuleBasedStateMachine):
    """Dict-model oracle for multi-session transaction semantics."""

    def __init__(self):
        super().__init__()
        self.db = fresh_db()
        # Sub-second deadlock detection keeps conflicting steps cheap.
        self.db.lock_manager.timeout = 0.05
        self.sessions = [self.db.session() for _ in range(NUM_SESSIONS)]
        # Committed state: oid -> (name, v); OIDs are a monotone counter.
        self.rows: dict[int, tuple[str, int]] = {}
        self.next_oid = 1
        # Per-session transaction state (None = autocommit).
        self.open = [False] * NUM_SESSIONS
        #: buffered effects, applied to self.rows at COMMIT:
        #: ("ins", oid, row) | ("del", oid) | ("upd", oid, row)
        self.pending: list[list[tuple]] = [[] for _ in range(NUM_SESSIONS)]
        self.pending_inserts = [0] * NUM_SESSIONS
        self.pending_deleted: list[set[int]] = [set()
                                                for _ in range(NUM_SESSIONS)]
        #: model lock table: per session, resource -> "S" | "X".
        self.locks: list[dict[str, str]] = [{} for _ in range(NUM_SESSIONS)]
        self.counter = 0

    # -- model helpers -------------------------------------------------------

    def _conflicts(self, k: int, resource: str, exclusive: bool) -> bool:
        for j in range(NUM_SESSIONS):
            if j == k:
                continue
            mode = self.locks[j].get(resource)
            if mode is None:
                continue
            if exclusive or mode == "X":
                return True
        return False

    def _acquire(self, k: int, resources: list[str], exclusive: bool) -> bool:
        """Model a statement's lock acquisition; returns False when the
        real engine must raise LockTimeoutError."""
        if any(self._conflicts(k, r, exclusive) for r in resources):
            return False
        if self.open[k]:
            mode = "X" if exclusive else "S"
            for r in resources:
                if self.locks[k].get(r) != "X":
                    self.locks[k][r] = mode
        return True

    def _victim(self, k: int) -> None:
        """Timeout: the session's transaction dies and its locks drop."""
        if self.open[k]:
            self.open[k] = False
            self.pending[k] = []
            self.pending_inserts[k] = 0
            self.pending_deleted[k] = set()
        self.locks[k] = {}

    def _matching(self, k: int, threshold: int) -> list[int]:
        """OIDs a predicate ``v < threshold`` sees: committed state minus
        the session's own buffered deletes (never its buffered inserts)."""
        return [oid for oid, (_n, v) in sorted(self.rows.items())
                if v < threshold and oid not in self.pending_deleted[k]]

    # -- rules ---------------------------------------------------------------

    sess = st.integers(min_value=0, max_value=NUM_SESSIONS - 1)

    @rule(k=sess)
    def begin(self, k):
        if self.open[k]:
            with pytest.raises(TransactionError):
                self.sessions[k].execute("BEGIN")
        else:
            self.sessions[k].execute("BEGIN")
            self.open[k] = True

    @rule(k=sess, v=st.integers(min_value=0, max_value=9))
    def insert(self, k, v):
        self.counter += 1
        name = f"s{k}-{self.counter}"
        stmt = f"Insert Into t Values ('{name}', {v})"
        if not self._acquire(k, ["t"], exclusive=True):
            with pytest.raises(LockTimeoutError):
                self.sessions[k].execute(stmt)
            self._victim(k)
            return
        self.sessions[k].execute(stmt)
        if self.open[k]:
            oid = self.next_oid + self.pending_inserts[k]
            self.pending_inserts[k] += 1
            self.pending[k].append(("ins", oid, (name, v)))
        else:
            self.rows[self.next_oid] = (name, v)
            self.next_oid += 1

    @rule(k=sess, threshold=st.integers(min_value=0, max_value=10))
    def delete(self, k, threshold):
        stmt = f"Delete From t r Where r.v < {threshold}"
        if not self._acquire(k, [ANNOTATION_RESOURCE, "t"], exclusive=True):
            with pytest.raises(LockTimeoutError):
                self.sessions[k].execute(stmt)
            self._victim(k)
            return
        count = self.sessions[k].execute(stmt)
        victims = self._matching(k, threshold)
        assert count == len(victims)
        if self.open[k]:
            for oid in victims:
                self.pending[k].append(("del", oid))
                self.pending_deleted[k].add(oid)
        else:
            for oid in victims:
                del self.rows[oid]

    @rule(k=sess, threshold=st.integers(min_value=0, max_value=10),
          v=st.integers(min_value=0, max_value=9))
    def update(self, k, threshold, v):
        stmt = f"Update t r Set v = {v} Where r.v < {threshold}"
        if not self._acquire(k, ["t"], exclusive=True):
            with pytest.raises(LockTimeoutError):
                self.sessions[k].execute(stmt)
            self._victim(k)
            return
        count = self.sessions[k].execute(stmt)
        targets = self._matching(k, threshold)
        assert count == len(targets)
        for oid in targets:
            row = (self.rows[oid][0], v)
            if self.open[k]:
                self.pending[k].append(("upd", oid, row))
            else:
                self.rows[oid] = row

    @rule(k=sess)
    def read(self, k):
        stmt = "Select name, v From t"
        if not self._acquire(k, ["t"], exclusive=False):
            with pytest.raises(LockTimeoutError):
                self.sessions[k].execute(stmt)
            self._victim(k)
            return
        result = self.sessions[k].execute(stmt)
        got = sorted(tuple(t.values) for t in result.tuples)
        # No read-your-writes: every session sees committed state only.
        assert got == sorted(self.rows.values())

    @rule(k=sess)
    def commit(self, k):
        if not self.open[k]:
            with pytest.raises(TransactionError):
                self.sessions[k].execute("COMMIT")
            return
        self.sessions[k].execute("COMMIT")
        for effect in self.pending[k]:
            if effect[0] == "ins":
                _tag, oid, row = effect
                self.rows[oid] = row
                self.next_oid = max(self.next_oid, oid + 1)
            elif effect[0] == "del":
                del self.rows[effect[1]]
            else:
                self.rows[effect[1]] = effect[2]
        self.open[k] = False
        self.pending[k] = []
        self.pending_inserts[k] = 0
        self.pending_deleted[k] = set()
        self.locks[k] = {}

    @rule(k=sess)
    def abort(self, k):
        if not self.open[k]:
            with pytest.raises(TransactionError):
                self.sessions[k].execute("ABORT")
            return
        self.sessions[k].execute("ABORT")
        self.open[k] = False
        self.pending[k] = []
        self.pending_inserts[k] = 0
        self.pending_deleted[k] = set()
        self.locks[k] = {}

    # -- invariants ----------------------------------------------------------

    @invariant()
    def committed_state_matches_model(self):
        assert {oid: tuple(row) for oid, row in table_rows(self.db).items()} \
            == {oid: tuple(row) for oid, row in self.rows.items()}

    @invariant()
    def lock_table_matches_model(self):
        for k, session in enumerate(self.sessions):
            held = self.db.lock_manager.held_by(session)
            assert held == set(self.locks[k]), (
                f"session {k}: engine holds {held}, model {set(self.locks[k])}"
            )

    @invariant()
    def no_leaked_transactions(self):
        assert len(self.db.txn_manager.active) == sum(self.open)

    def teardown(self):
        for session in self.sessions:
            session.close()


TestConcurrentTxnMachine = ConcurrentTxnMachine.TestCase


# ---------------------------------------------------------------------------
# Layer 2: threaded serializability stress (real parallelism)
# ---------------------------------------------------------------------------


def _committed_order_from_wal(device) -> list[int]:
    """Transaction ids in serialization order: the order their commit
    groups landed in the log."""
    records = scan_records(device.durable(), base_lsn=device.base_lsn).records
    return [r.txn_id for r in records if r.type == WALRecordType.TXN_COMMIT]


class _Model:
    """Dict replay of one transaction with buffered-redo semantics."""

    def __init__(self):
        self.rows: dict[int, tuple[str, int]] = {}
        self.next_oid = 1

    def apply_txn(self, ops: list[tuple]) -> list[int]:
        """Apply one committed transaction's logical ops; returns the
        per-op row counts the live statements must have reported."""
        counts = []
        inserts = 0
        deleted: set[int] = set()
        effects: list[tuple] = []
        for op in ops:
            if op[0] == "insert":
                _tag, name, v = op
                effects.append(("ins", self.next_oid + inserts, (name, v)))
                inserts += 1
                counts.append(1)
            elif op[0] == "delete_lt":
                victims = [oid for oid, (_n, v) in sorted(self.rows.items())
                           if v < op[1] and oid not in deleted]
                deleted.update(victims)
                effects.extend(("del", oid) for oid in victims)
                counts.append(len(victims))
            elif op[0] == "update_lt":
                _tag, threshold, v = op
                targets = [oid for oid, (_n, val) in sorted(self.rows.items())
                           if val < threshold and oid not in deleted]
                effects.extend(
                    ("upd", oid, (self.rows[oid][0], v)) for oid in targets
                )
                counts.append(len(targets))
        for effect in effects:
            if effect[0] == "ins":
                self.rows[effect[1]] = effect[2]
                self.next_oid = max(self.next_oid, effect[1] + 1)
            elif effect[0] == "del":
                self.rows.pop(effect[1], None)
            else:
                self.rows[effect[1]] = effect[2]
        return counts


class TestThreadedSerializability:
    THREADS = 4
    TXNS_PER_THREAD = 12

    def _worker(self, db, worker_id, log, failures):
        """Run a deterministic-per-thread mix of transactions; record
        (txn_id, logical ops, returned counts, outcome) for the oracle."""
        session = db.session()
        try:
            for i in range(self.TXNS_PER_THREAD):
                session.execute("BEGIN")
                txn_id = session.txn.txn_id
                ops: list[tuple] = []
                counts: list[int] = []
                try:
                    name = f"w{worker_id}-{i}"
                    v = (worker_id + i) % 8
                    session.execute(f"Insert Into t Values ('{name}', {v})")
                    ops.append(("insert", name, v))
                    counts.append(1)
                    if i % 3 == 1:
                        threshold = (worker_id * 2 + i) % 5
                        counts.append(session.execute(
                            f"Delete From t r Where r.v < {threshold}"
                        ))
                        ops.append(("delete_lt", threshold))
                    elif i % 3 == 2:
                        threshold = (worker_id + i) % 6
                        newv = 7
                        counts.append(session.execute(
                            f"Update t r Set v = {newv} "
                            f"Where r.v < {threshold}"
                        ))
                        ops.append(("update_lt", threshold, newv))
                    if i % 5 == 4:
                        session.execute("ABORT")
                        log.append((txn_id, ops, counts, "aborted"))
                    else:
                        session.execute("COMMIT")
                        log.append((txn_id, ops, counts, "committed"))
                except LockTimeoutError:
                    # Deadlock victim: the session auto-aborted the txn.
                    log.append((txn_id, ops, counts, "victim"))
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append((worker_id, repr(exc)))
        finally:
            session.close()

    def test_wal_order_replay_matches_engine(self):
        device = MemoryWALDevice()
        db = fresh_db(device)
        db.lock_manager.timeout = 0.5
        log: list[tuple] = []
        failures: list[tuple] = []
        threads = [
            threading.Thread(
                target=self._worker, args=(db, w, log, failures)
            )
            for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert failures == []
        db.wal.flush()

        by_txn = {txn_id: (ops, counts, outcome)
                  for txn_id, ops, counts, outcome in log}
        order = _committed_order_from_wal(device)
        committed = {txn_id for txn_id, (_o, _c, out) in by_txn.items()
                     if out == "committed"}
        # The durable commit groups are exactly the acked commits.
        assert set(order) == committed
        assert len(order) == len(committed)

        # Replay the committed transactions in log order; both the final
        # state and every recorded statement count must match.
        model = _Model()
        for txn_id in order:
            ops, counts, _outcome = by_txn[txn_id]
            assert model.apply_txn(ops) == counts, (
                f"txn {txn_id} observed different row counts than the "
                "serial replay — lost update or phantom"
            )
        assert table_rows(db) == model.rows

        # And the whole thing survives a crash: recovery over the durable
        # log lands on the same committed state.
        survivor = MemoryWALDevice.from_durable(
            device.durable(), base_lsn=device.base_lsn
        )
        recovered, report = Database.recover(None, survivor)
        assert table_rows(recovered) == model.rows
        assert report.committed_txns == len(order)

    def test_concurrent_readers_share_the_lock(self):
        db = fresh_db()
        for i in range(50):
            db.insert("t", [f"r{i}", i])
        barrier = threading.Barrier(4)
        errors: list[str] = []

        def reader():
            session = db.session()
            try:
                barrier.wait(10)
                for _ in range(20):
                    result = session.execute("Select name, v From t")
                    if len(result) != 50:
                        errors.append(f"saw {len(result)} rows")
            except Exception as exc:
                errors.append(repr(exc))
            finally:
                session.close()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert errors == []
        assert db.metrics.get("lock.timeouts") == 0


# ---------------------------------------------------------------------------
# Layer 3: transaction crash matrix
# ---------------------------------------------------------------------------


def txn_script() -> list[list[str]]:
    """Deterministic workload units: each inner list is one explicit
    transaction (an ``["<stmt>"]`` singleton models autocommit)."""
    units: list[list[str]] = []
    for i in range(4):
        units.append([
            f"Insert Into t Values ('a{i}', {i})",
            f"Insert Into t Values ('b{i}', {i + 10})",
        ])
        units.append([f"Insert Into t Values ('auto{i}', {i})"])
        if i % 2 == 1:
            units.append([
                f"Delete From t r Where r.v < {i}",
                f"Update t r Set v = 99 Where r.v > 9",
            ])
    return units


def run_units(db: Database) -> None:
    session = db.session()
    for unit in txn_script():
        if len(unit) == 1:
            session.execute(unit[0])
        else:
            session.execute("BEGIN")
            for stmt in unit:
                session.execute(stmt)
            session.execute("COMMIT")
    session.close()


def crash_units(plan) -> tuple:
    """Run the unit script against a faulted device until the injected
    crash; returns (device, acked-unit-count)."""
    device = MemoryWALDevice(plan=plan)
    acked = 0
    try:
        db = fresh_db(device)  # the logged DDL can crash too
        session = db.session()
        for unit in txn_script():
            if len(unit) == 1:
                session.execute(unit[0])
            else:
                session.execute("BEGIN")
                for stmt in unit:
                    session.execute(stmt)
                session.execute("COMMIT")
            acked += 1
    except (InjectedFaultError, ReproError):
        pass
    return device, acked


class TestTxnCrashMatrix:
    @classmethod
    def setup_class(cls):
        # Oracle: logical state after each acked unit.
        db = fresh_db()
        session = db.session()
        cls.oracle = [tuple(sorted(table_rows(db).items()))]
        for unit in txn_script():
            if len(unit) == 1:
                session.execute(unit[0])
            else:
                session.execute("BEGIN")
                for stmt in unit:
                    session.execute(stmt)
                session.execute("COMMIT")
            cls.oracle.append(tuple(sorted(table_rows(db).items())))
        session.close()
        # Probe: count device ops over a no-fault WAL run.
        probe = MemoryWALDevice()
        probe_db = fresh_db(probe)
        run_units(probe_db)
        cls.total_appends = probe.append_ops
        cls.total_syncs = probe.sync_ops
        assert cls.total_appends > len(txn_script())
        assert cls.total_syncs >= len(txn_script())

    def check(self, device, acked):
        survivor = MemoryWALDevice.from_durable(
            device.durable(), base_lsn=device.base_lsn
        )
        recovered, report = Database.recover(None, survivor)
        state = tuple(sorted(table_rows(recovered).items()))
        # Exactly the acked prefix; the crashing unit may round up to
        # durable when the fault hit at-or-after its commit sync. Either
        # way no partial transaction: the discarded groups carried no
        # durable TXN_COMMIT.
        allowed = self.oracle[acked:min(acked + 2, len(self.oracle))]
        assert state in allowed, (
            f"crash after {acked} acked units recovered to a state "
            f"outside the committed prefix "
            f"({report.committed_txns} committed txns replayed, "
            f"{report.discarded_txn_records} txn records discarded)"
        )

    def test_crash_at_every_append(self):
        for at in range(self.total_appends):
            device, acked = crash_units(FaultPlan().fail_append(at=at))
            assert device.dead, f"append fault #{at} never fired"
            self.check(device, acked)

    def test_crash_at_every_sync(self):
        for at in range(self.total_syncs):
            device, acked = crash_units(FaultPlan().fail_sync(at=at))
            assert device.dead, f"sync fault #{at} never fired"
            self.check(device, acked)

    def test_no_fault_full_replay(self):
        device, acked = crash_units(FaultPlan())
        assert acked == len(txn_script())
        self.check(device, acked)

    def test_mid_txn_crash_discards_whole_group(self):
        """A fault landing inside a commit group (after TXN_BEGIN, before
        the commit sync) must discard the *whole* group on recovery."""
        # The first explicit txn's TXN_BEGIN is the first append of a
        # commit group; crashing on its second op record leaves a durable
        # prefix of the group without its commit frame.
        device, acked = crash_units(FaultPlan().fail_append(at=2))
        survivor = MemoryWALDevice.from_durable(
            device.durable(), base_lsn=device.base_lsn
        )
        recovered, report = Database.recover(None, survivor)
        state = tuple(sorted(table_rows(recovered).items()))
        assert state == self.oracle[acked]
        assert report.committed_txns == 0
