"""Replication chaos battery: crash the primary everywhere, storm the
link, and check the replica lands on exactly the right bytes.

Three escalating layers:

* **The crash matrix** — the primary is killed at *every* WAL append and
  fsync index of the mixed crash-matrix workload (plus torn syncs).  The
  surviving durable bytes are the stream a replica would have received,
  so feeding them to a :class:`~repro.replication.applier.WALApplier`
  must converge to a state **identical to a crash-recovered primary**
  over the same bytes, and inside the acked-prefix oracle window.  This
  is the strongest statement the design makes: replication *is* recovery,
  continuously.
* **The seeded network storm** — a real primary + replica pair with the
  full :class:`~repro.faults.network.NetworkFaultPlan` storm (resets,
  stalls, garbled and partial frames) injected on the primary's sockets
  while writes flow.  The link must reconnect-and-resume through it,
  applying every record exactly once, and the replica must converge to
  the primary's state with its health endpoint still answering.
* **The live kill** — the primary's WAL device fail-stops mid-ingest
  under a real served pair; the replica must converge to exactly the
  durable prefix (byte-compared against a recovered primary), promote,
  and take writes.

A failing seed reproduces from ``REPRO_FAULT_SEED`` alone, same as the
server chaos battery.
"""

from __future__ import annotations

import time

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import InjectedFaultError
from repro.faults import FaultPlan
from repro.replication import ReplicationEndpoint, WALApplier
from repro.resilience import RetryPolicy
from repro.server import QueryClient
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice
from tests.test_crash_matrix import (
    crash_run,
    db_state,
    oracle_states,
    recover_state,
    wal_script,
)
from tests.test_network_chaos import SEEDS, chaos_plan
from tests.test_replication import ReplicaHarness, table_rows
from tests.test_server import ServerHarness, wait_for

pytestmark = pytest.mark.usefixtures("no_fd_growth")


# ---------------------------------------------------------------------------
# layer 1: the full crash matrix, replayed through the applier
# ---------------------------------------------------------------------------

class TestPrimaryCrashMatrix:
    """Kill the primary at every WAL I/O index; the durable bytes fed to
    a fresh applier must equal a recovered primary, record for record."""

    @classmethod
    def setup_class(cls):
        cls.oracle = oracle_states()
        probe = MemoryWALDevice()
        db = Database(buffer_pages=32)
        db.attach_wal(probe)
        for statement in wal_script():
            statement(db)
        cls.total_appends = probe.append_ops
        cls.total_syncs = probe.sync_ops
        assert cls.total_appends >= len(wal_script())

    def check(self, device, acked, *, chunk: int | None = None):
        stream = device.durable()
        replica = WALApplier(Database(buffer_pages=32), 0)
        if chunk is None:
            replica.feed(stream)
        else:
            # Chunked delivery with a reconnect every third poll — the
            # shape a flaky link actually produces (including its
            # window-doubling when a frame outgrows the poll budget).
            polls = 0
            window = chunk
            while replica.fetch_lsn < len(stream):
                polls += 1
                if polls % 3 == 0:
                    replica.reset_to_ack()
                fed = replica.feed(
                    stream[replica.fetch_lsn:replica.fetch_lsn + window]
                )
                if fed.parsed_bytes == 0:
                    if replica.fetch_lsn + window >= len(stream):
                        break  # torn tail: nothing more can ever parse
                    window *= 2
                else:
                    window = chunk
        recovered, report = recover_state(device)
        state = db_state(replica.db)
        assert state == recovered, (
            f"replica diverges from recovered primary after {acked} acked "
            f"statements ({report.replayed} replayed, "
            f"{report.torn_bytes} torn bytes)"
        )
        allowed = self.oracle[acked:min(acked + 2, len(self.oracle))]
        assert state in allowed, (
            f"replica outside the acked-prefix window after {acked} acked"
        )

    def test_replica_equals_recovery_at_every_append_crash(self):
        for at in range(self.total_appends):
            device, acked = crash_run(FaultPlan().fail_append(at=at))
            assert device.dead, f"append fault #{at} never fired"
            self.check(device, acked)

    def test_replica_equals_recovery_at_every_sync_crash(self):
        for at in range(self.total_syncs):
            device, acked = crash_run(FaultPlan().fail_sync(at=at))
            assert device.dead, f"sync fault #{at} never fired"
            self.check(device, acked)

    def test_replica_equals_recovery_at_every_torn_sync(self):
        """Torn tails: the device dies mid-record, so the stream ends in
        garbage; the applier must stop exactly where recovery stops."""
        for at in range(self.total_syncs):
            device, acked = crash_run(FaultPlan().torn_sync(at=at))
            assert device.dead, f"torn sync #{at} never fired"
            self.check(device, acked)

    def test_chunked_delivery_with_reconnects_same_matrix(self):
        """Every third sync-crash stream, re-delivered in 97-byte polls
        with periodic reconnect rewinds: same convergence."""
        for at in range(0, self.total_syncs, 3):
            device, acked = crash_run(FaultPlan().torn_sync(at=at))
            self.check(device, acked, chunk=97)


# ---------------------------------------------------------------------------
# layer 2: the seeded network storm over a live pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
class TestReplicationStorm:
    def test_link_converges_through_storm(self, seed):
        db = Database(buffer_pages=32)
        db.attach_wal(MemoryWALDevice())
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        h = ServerHarness(db, workers=2, max_connections=32,
                          network_faults=chaos_plan(seed))
        ReplicationEndpoint(h.server).install()
        rh = ReplicaHarness(
            h.port,
            retry=RetryPolicy(max_attempts=6, base_delay=0.005,
                              max_delay=0.05, seed=seed),
        )
        try:
            # Ingest while the storm rages over the replication sockets.
            for i in range(60):
                db.insert("t", [f"s{i}", i])
                if i % 20 == 10:
                    time.sleep(0.02)
            assert rh.replica.wait_ready(30), "bootstrap never survived"
            assert wait_for(
                lambda: rh.replica.link.wait_caught_up(2.0), timeout=60
            ), f"replica never caught up (seed {seed}): " \
               f"{rh.replica.link.health()}"

            # Converged to the primary's state...
            assert table_rows(rh.replica.db) == table_rows(db)
            # ...with every record applied exactly once: 60 unique
            # names, despite any number of reconnect overlaps.
            names = [v[0] for _, v in table_rows(rh.replica.db)]
            assert len(names) == len(set(names)) == 60
            # The replica's own (fault-free) port still answers health
            # with live repl lag fields.
            with QueryClient(port=rh.port, response_timeout=5.0) as c:
                repl = c.health()["repl"]
            assert repl["role"] == "replica" and repl["bootstrapped"]
            assert repl["lag_bytes"] == 0
        finally:
            rh.stop()
            h.stop()
        # The storm genuinely hit the wire.
        assert db.metrics.get("server.faults.injected") > 0


# ---------------------------------------------------------------------------
# layer 3: fail-stop the primary's log mid-ingest under a served pair
# ---------------------------------------------------------------------------

class TestLiveKillAndPromote:
    """The primary's WAL device dies at a chosen append/sync index while
    a replica streams; the replica must land on exactly the durable
    prefix, promote, and take writes.  (The byte-exhaustive version of
    this matrix is TestPrimaryCrashMatrix; here a sampled set of crash
    points exercises the full server + link path.)"""

    def _run_once(self, plan):
        db = Database(buffer_pages=32)
        device = MemoryWALDevice(plan=plan)
        db.attach_wal(device)
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        h = ServerHarness(db, workers=2)
        ReplicationEndpoint(h.server).install()
        rh = ReplicaHarness(h.port)
        try:
            assert rh.replica.wait_ready(10)
            acked = []
            try:
                for i in range(30):
                    db.insert("t", [f"r{i}", i])
                    acked.append(f"r{i}")
            except InjectedFaultError:
                pass
            assert device.dead, "the fault never fired"

            # The primary is dead for writes but its stream endpoint
            # still serves the durable prefix: the replica converges.
            assert rh.replica.link.wait_caught_up(15), \
                rh.replica.link.health()
            survivor = MemoryWALDevice.from_durable(
                device.durable(), base_lsn=device.base_lsn
            )
            recovered, _ = Database.recover(None, survivor, verify=True)
            assert table_rows(rh.replica.db) == table_rows(recovered), \
                "replica diverges from a recovered primary"
            # Every write the client was told happened is on the replica
            # (the crashing one may round up to durable, never beyond).
            names = {v[0] for _, v in table_rows(rh.replica.db)}
            missing = [n for n in acked if n not in names]
            assert missing == [], f"acked writes lost: {missing}"

            # Failover: promote and write through the new primary.
            with QueryClient(port=rh.port, response_timeout=10.0) as c:
                assert c.request({"op": "promote"})["promoted"] is True
                c.execute("Insert Into t Values ('post-promote', 99)")
                found = c.execute(
                    "Select * From t r Where r.name = 'post-promote'"
                )
                assert found["row_count"] == 1
        finally:
            rh.stop()
            h.stop()

    def test_append_crash_points(self):
        # Index 0 is the CREATE TABLE frame (pre-serve); sample the
        # ingest phase: first, early, middle, and final append.
        for at in (1, 2, 7, 16, 30):
            self._run_once(FaultPlan().fail_append(at=at))

    def test_sync_crash_points(self):
        # Sync 0 is CREATE TABLE, sync 1 the bootstrap snapshot's WAL
        # flush (killing that just means no replica ever attaches);
        # sample the ingest-phase syncs.
        for at in (2, 10, 26):
            self._run_once(FaultPlan().fail_sync(at=at))

    def test_torn_sync_crash_point(self):
        """The log tears mid-record: the replica must stop at the last
        whole frame, exactly like recovery truncates the torn tail."""
        self._run_once(FaultPlan().torn_sync(at=12))
