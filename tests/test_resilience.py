"""Tests for the resilience layer (repro.resilience + its integrations).

Covers, matching DESIGN.md §5e:

* retry policy determinism and bounded backoff,
* DiskGuard retry/metrics semantics over an injecting disk,
* circuit-breaker state machine (closed/open/half-open) under a fake
  clock, including the device-vs-media error distinction,
* statement deadlines and cooperative cancellation checkpointed through
  every physical operator type,
* degraded-mode planning: health-registry quarantine, heap-scan fallback
  equivalence (against both the healthy index run and the pure-heap
  ``index_scheme="none"`` oracle), mid-query index corruption
  quarantining + one transparent statement retry, the integrity-audit
  feed, and repair's restore-all,
* the Database.execute surface (timeout, cancel_running, env default)
  and image round-trips keeping the guard attached, and
* the REPL step surviving timeouts/cancellations/crashes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import repl_step
from repro.errors import (
    CircuitOpenError,
    CorruptPageError,
    InjectedFaultError,
    QueryCancelledError,
    QueryTimeoutError,
    StorageError,
    TransientIOError,
)
from repro.faults import FaultPlan, FaultyDiskManager, installed_faults
from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_sql
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AccessPathHealth,
    CircuitBreaker,
    DiskGuard,
    ExecutionContext,
    RetryPolicy,
)
from repro.resilience.context import HANGUP_POLL_S
from repro.workload.generator import WorkloadConfig, build_database

SP_QUERY = (
    "Select common_name From birds r Where "
    "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0"
)


@pytest.fixture(scope="module")
def db():
    database = build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=20, indexes="both",
        cell_fraction=0.0, seed=6,
    ))
    database.guard.policy.base_delay = 0  # no real sleeps in tests
    return database


@pytest.fixture(autouse=True)
def _healthy(db):
    """Every test starts and ends with a fully healthy database."""
    db.health.restore_all()
    db.guard.breaker.reset()
    yield
    db.health.restore_all()
    db.guard.breaker.reset()
    db.options.force_access = None
    db.options.index_scheme = "summary_btree"


def names(result):
    return sorted(t.get("common_name") for t in result.tuples)


def run(db, sql):
    return names(db.sql(sql))


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- retry policy -------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_from_seed(self):
        a = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.005, seed=7)
        b = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.005, seed=7)
        assert a.delays() == b.delays()

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.005, seed=1)
        b = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.005, seed=2)
        assert a.delays() != b.delays()

    def test_exponential_and_bounded(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.001, jitter=0.0,
                             max_delay=0.01)
        delays = policy.delays()
        assert delays[0] == pytest.approx(0.001)
        assert delays[1] == pytest.approx(0.002)
        assert delays[2] == pytest.approx(0.004)
        assert all(d <= 0.01 for d in delays)
        assert delays[-1] == pytest.approx(0.01)  # clamped at max_delay

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# -- disk guard ---------------------------------------------------------------


def make_faulty_disk(plan: FaultPlan, pages: int = 2) -> FaultyDiskManager:
    disk = FaultyDiskManager(page_size=256)
    for i in range(pages):
        disk.write_page(disk.allocate_page(), bytes([i + 1]) * 256)
    disk.plan = plan
    disk.read_ops = disk.write_ops = 0
    return disk


class TestDiskGuard:
    def guard(self, metrics=None, attempts=3):
        return DiskGuard(
            policy=RetryPolicy(max_attempts=attempts, base_delay=0),
            breaker=CircuitBreaker(metrics=metrics),
            metrics=metrics,
        )

    def test_recovers_within_budget(self):
        disk = make_faulty_disk(FaultPlan().transient_read(at=0))
        metrics = MetricsRegistry()
        guard = self.guard(metrics)
        data = guard.read_page(disk, 0)
        assert data == bytearray([1]) * 256
        assert metrics.get("resilience.retries") == 1
        assert metrics.get("resilience.retries.read") == 1
        assert metrics.get("resilience.recovered") == 1
        assert metrics.get("resilience.failures") == 0

    def test_exhausted_budget_raises_typed(self):
        # period=1: every read faults, so all three attempts fail.
        disk = make_faulty_disk(FaultPlan().transient_read(at=0, period=1))
        metrics = MetricsRegistry()
        guard = self.guard(metrics)
        with pytest.raises(TransientIOError):
            guard.read_page(disk, 0)
        assert metrics.get("resilience.retries") == 2  # attempts - 1
        assert metrics.get("resilience.failures") == 1
        assert metrics.get("resilience.recovered") == 0

    def test_success_counts_nothing(self):
        disk = make_faulty_disk(FaultPlan())
        metrics = MetricsRegistry()
        guard = self.guard(metrics)
        guard.read_page(disk, 0)
        assert metrics.get("resilience.retries") == 0
        assert metrics.get("resilience.recovered") == 0

    def test_permanent_error_not_retried(self):
        disk = make_faulty_disk(FaultPlan().fail_read(at=0))
        metrics = MetricsRegistry()
        guard = self.guard(metrics)
        with pytest.raises(InjectedFaultError):
            guard.read_page(disk, 0)
        assert metrics.get("resilience.retries") == 0
        assert metrics.get("resilience.failures") == 1

    def test_write_retries_counted_per_op(self):
        disk = make_faulty_disk(FaultPlan().transient_write(at=0))
        metrics = MetricsRegistry()
        guard = self.guard(metrics)
        guard.write_page(disk, 0, bytes([7]) * 256)
        assert metrics.get("resilience.retries.write") == 1
        assert disk.read_page(0) == bytearray([7]) * 256

    def test_also_transient_opt_in(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise CorruptPageError("transient rot")
            return "clean"

        guard = self.guard()
        # Without the opt-in, corruption is a permanent (media) error.
        with pytest.raises(CorruptPageError):
            guard.call("read", flaky)
        calls["n"] = 0
        assert guard.call(
            "read", flaky, also_transient=(CorruptPageError,)
        ) == "clean"


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0,
                                 clock=clock, metrics=metrics)
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure(TransientIOError("x"))
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        assert metrics.get("resilience.breaker.open") == 1
        assert metrics.get("resilience.breaker.rejected") == 1

    def test_half_open_trial_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record_failure(TransientIOError("x"))
        assert breaker.state == OPEN
        clock.advance(5.0)
        breaker.before_call()  # admitted as the trial call
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failures == 0

    def test_half_open_trial_reopens_on_failure(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5.0,
                                 clock=clock)
        breaker.record_failure(TransientIOError("x"))
        breaker.record_failure(TransientIOError("x"))
        clock.advance(5.0)
        breaker.before_call()
        assert breaker.state == HALF_OPEN
        # One failure in half-open re-opens regardless of the threshold.
        breaker.record_failure(TransientIOError("x"))
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure(TransientIOError("x"))
        breaker.record_success()
        breaker.record_failure(TransientIOError("x"))
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_media_errors_do_not_trip_it(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        for _ in range(10):
            breaker.record_failure(CorruptPageError("rotten page"))
        assert breaker.state == CLOSED

    def test_state_codes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        assert breaker.state_code == 0
        breaker.record_failure(TransientIOError("x"))
        assert breaker.state_code == 2
        clock.advance(5.0)
        breaker.before_call()
        assert breaker.state_code == 1

    def test_circuit_open_error_is_storage_error(self):
        assert issubclass(CircuitOpenError, StorageError)

    def test_guard_fast_fails_through_open_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                                 clock=clock)
        guard = DiskGuard(policy=RetryPolicy(max_attempts=1, base_delay=0),
                          breaker=breaker)
        disk = make_faulty_disk(FaultPlan().fail_read(at=0))
        with pytest.raises(InjectedFaultError):
            guard.read_page(disk, 0)
        calls = {"n": 0}

        def count():
            calls["n"] += 1

        with pytest.raises(CircuitOpenError):
            guard.call("read", count)
        assert calls["n"] == 0  # rejected before touching the device


# -- access-path health -------------------------------------------------------


class TestAccessPathHealth:
    def test_quarantine_restore_cycle(self):
        metrics = MetricsRegistry()
        health = AccessPathHealth(metrics=metrics)
        assert health.is_healthy("summary", "Birds", "C")
        assert health.quarantine("summary", "Birds", "C", reason="rot")
        assert not health.is_healthy("summary", "birds", "C")  # case-folded
        assert health.reason("summary", "birds", "C") == "rot"
        assert not health.quarantine("summary", "birds", "C")  # not fresh
        assert health.unhealthy() == [("summary", "birds", "C")]
        assert health.restore("summary", "birds", "C")
        assert health.is_healthy("summary", "birds", "C")
        assert metrics.get("resilience.quarantined") == 1
        assert metrics.get("resilience.restored") == 1

    def test_restore_all(self):
        health = AccessPathHealth()
        health.quarantine("summary", "t", "a")
        health.quarantine("keyword", "t", "b")
        assert len(health) == 2 and bool(health)
        assert health.restore_all() == 2
        assert not health

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AccessPathHealth().quarantine("btree", "t", "i")


# -- deadlines and cancellation through every operator ------------------------

#: queries whose plans cover every physical operator family: scans
#: (sequential, summary-index), residual filters, sort, group/aggregate,
#: distinct, limit, projection, and both join shapes.
OPERATOR_QUERIES = [
    "Select common_name From birds r",
    "Select common_name From birds r Where r.aou_id > 10005",
    SP_QUERY,
    ("Select common_name From birds r Where "
     "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 3"),
    ("Select common_name From birds r Order By "
     "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"),
    "Select family, count(*) From birds Group By family",
    "Select Distinct family From birds",
    "Select common_name From birds Limit 5",
    ("Select r.common_name, s.synonym From birds r, synonyms s "
     "Where r.oid = s.bird_id"),
    ("Select r.common_name From birds r, synonyms s "
     "Where r.oid = s.bird_id And "
     "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0"),
]


class TestDeadlinesAndCancellation:
    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_zero_timeout_trips_first_checkpoint(self, db, sql):
        with pytest.raises(QueryTimeoutError) as err:
            db.execute(sql, timeout=0)
        assert err.value.partial["checks"] >= 1

    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_pre_cancelled_context_stops_every_plan(self, db, sql):
        physical, _logical, _cost = db.planner.plan(parse_sql(sql))
        ctx = ExecutionContext()
        ctx.attach(physical)
        ctx.cancel()
        with pytest.raises(QueryCancelledError):
            list(physical.rows())

    def test_deadline_fires_mid_stream(self, db):
        clock = FakeClock()
        physical, _logical, _cost = db.planner.plan(parse_sql(SP_QUERY))
        ctx = ExecutionContext(timeout=10.0, clock=clock)
        ctx.attach(physical)
        rows = physical.rows()
        first = next(rows)
        assert first is not None
        clock.advance(11.0)
        with pytest.raises(QueryTimeoutError) as err:
            list(rows)
        assert err.value.partial["rows"] >= 1
        assert "timed out" in str(err.value)

    def test_cancel_mid_stream(self, db):
        physical, _logical, _cost = db.planner.plan(parse_sql(SP_QUERY))
        ctx = ExecutionContext()
        ctx.attach(physical)
        rows = physical.rows()
        next(rows)
        ctx.cancel()
        with pytest.raises(QueryCancelledError):
            list(rows)

    def test_hangup_probe_polled_at_most_once_per_interval(self):
        clock = FakeClock()
        polls: list[float] = []
        gone = False

        def hangup() -> bool:
            polls.append(clock())
            return gone

        ctx = ExecutionContext(clock=clock, hangup=hangup)
        for _ in range(5):
            ctx.check()
        assert polls == []  # a statement shorter than one interval
        clock.advance(HANGUP_POLL_S)
        for _ in range(5):
            ctx.check()
        assert polls == [HANGUP_POLL_S]
        clock.advance(HANGUP_POLL_S / 2)
        ctx.check()
        assert len(polls) == 1
        gone = True
        clock.advance(HANGUP_POLL_S / 2)
        # The first True cancels at that very checkpoint ...
        with pytest.raises(QueryCancelledError):
            ctx.check()
        assert len(polls) == 2
        # ... and the context stays cancelled without polling again.
        clock.advance(HANGUP_POLL_S)
        with pytest.raises(QueryCancelledError):
            ctx.check()
        assert len(polls) == 2

    def test_timeout_metrics_counted(self, db):
        before = db.metrics.get("resilience.timeouts")
        with pytest.raises(QueryTimeoutError):
            db.execute(SP_QUERY, timeout=0)
        assert db.metrics.get("resilience.timeouts") == before + 1

    def test_generous_timeout_equals_plain_run(self, db):
        assert names(db.execute(SP_QUERY, timeout=3600)) == run(db, SP_QUERY)

    def test_statement_timeout_default(self, db):
        db.statement_timeout = 0
        try:
            with pytest.raises(QueryTimeoutError):
                db.execute(SP_QUERY)
        finally:
            db.statement_timeout = None
        assert len(db.execute(SP_QUERY)) > 0

    def test_cancel_running_without_statement(self, db):
        assert db.cancel_running() is False

    def test_env_timeout_seeds_new_databases(self, monkeypatch):
        from repro.core.database import Database

        monkeypatch.setenv("REPRO_STATEMENT_TIMEOUT", "2.5")
        assert Database().statement_timeout == 2.5
        monkeypatch.delenv("REPRO_STATEMENT_TIMEOUT")
        assert Database().statement_timeout is None


# -- degraded-mode planning ---------------------------------------------------


def heap_oracle(db, sql, run=run):
    """Reference result through the pure heap path (no index schemes);
    ``run`` picks what of the result is compared."""
    saved = db.options.index_scheme
    db.options.index_scheme = "none"
    try:
        return run(db, sql)
    finally:
        db.options.index_scheme = saved


class TestDegradedPlanning:
    def test_quarantined_summary_path_falls_back_to_heap(self, db):
        db.options.force_access = "index"
        report = db.explain(SP_QUERY)
        assert "SummaryIndexScan" in report.physical
        healthy = run(db, SP_QUERY)
        db.health.quarantine("summary", "birds", "ClassBird1")
        degraded_report = db.explain(SP_QUERY)
        assert "SummaryIndexScan" not in degraded_report.physical
        assert "SeqScan" in degraded_report.physical
        assert ("summary", "birds", "ClassBird1") in degraded_report.degraded
        assert "Degraded:" in str(degraded_report)
        before = db.metrics.get("resilience.degraded_plans")
        degraded = run(db, SP_QUERY)
        assert degraded == healthy
        assert degraded == heap_oracle(db, SP_QUERY)
        assert db.metrics.get("resilience.degraded_plans") == before + 1

    def test_fallback_equivalence_across_predicates(self, db):
        db.options.force_access = "index"
        cases = [("Disease", "=", 3), ("Anatomy", ">=", 2), ("Other", "<", 5)]
        for label, op, constant in cases:
            sql = (
                "Select common_name From birds r Where "
                f"r.$.getSummaryObject('ClassBird1').getLabelValue"
                f"('{label}') {op} {constant}"
            )
            healthy = run(db, sql)
            db.health.quarantine("summary", "birds", "ClassBird1")
            try:
                assert run(db, sql) == healthy
                assert healthy == heap_oracle(db, sql)
            finally:
                db.health.restore_all()

    def test_quarantined_baseline_path_excluded(self, db):
        db.options.index_scheme = "baseline"
        db.options.force_access = "index"
        assert "BaselineIndexScan" in db.explain(SP_QUERY).physical
        healthy = run(db, SP_QUERY)
        db.health.quarantine("baseline", "birds", "ClassBird1")
        report = db.explain(SP_QUERY)
        assert "BaselineIndexScan" not in report.physical
        assert run(db, SP_QUERY) == healthy

    def test_mid_query_corruption_retries_once_on_fallback(self, db):
        db.options.force_access = "index"
        reference = run(db, SP_QUERY)
        index = db.summary_indexes[("birds", "ClassBird1")]
        original = index.lookup_range

        def rot(*args, **kwargs):
            raise CorruptPageError("synthetic index rot")

        index.lookup_range = rot
        before = db.metrics.get("resilience.statement_retries")
        try:
            got = run(db, SP_QUERY)
        finally:
            index.lookup_range = original
        assert got == reference
        assert db.metrics.get("resilience.statement_retries") == before + 1
        assert not db.health.is_healthy("summary", "birds", "ClassBird1")

    def test_degraded_plan_avoids_rotten_index(self, db):
        db.options.force_access = "index"
        index = db.summary_indexes[("birds", "ClassBird1")]
        original = index.lookup_range
        index.lookup_range = lambda *a, **k: (_ for _ in ()).throw(
            CorruptPageError("rot")
        )
        db.health.quarantine("summary", "birds", "ClassBird1")
        try:
            # Already degraded: the fallback plan has no summary-index
            # path, so the statement succeeds without touching the index.
            assert len(db.sql(SP_QUERY)) > 0
        finally:
            index.lookup_range = original

    def test_replica_rot_quarantines_the_replica(self):
        """Normalized propagation (Figure 12) reads the snippet replica
        beside the baseline index: rot in the replica quarantines the
        replica, and the retry answers from the heap."""
        db = build_database(WorkloadConfig(
            num_birds=30, annotations_per_tuple=20, indexes="both",
            cell_fraction=0.0, seed=6,
        ))
        db.guard.policy.base_delay = 0
        db.create_normalized_replicas("birds")
        db.options.index_scheme = "baseline"
        db.options.normalized_propagation = True
        db.options.force_access = "index"
        reference = heap_oracle(db, SP_QUERY)
        replica = db.derived[("replica", "birds", "TextSummary1")]

        def rot(oid):
            raise CorruptPageError("synthetic replica rot")

        replica.reconstruct = rot
        assert run(db, SP_QUERY) == reference
        assert db.metrics.get("resilience.statement_retries") == 1
        assert not db.health.is_healthy("replica", "birds", "TextSummary1")
        assert "BaselineIndexScan" not in db.explain(SP_QUERY).physical

    def test_integrity_audit_feeds_health(self, db):
        db.options.force_access = "index"
        index = db.summary_indexes[("birds", "ClassBird1")]
        first_oid = next(iter(db.catalog.table("birds").scan()))[0]
        # Plant a stale entry the cross-structure audit must flag.
        index.tree.insert(b"bogus:0042", index._pointer_for(first_oid))
        report = db.check_integrity()
        assert not report.ok
        assert ("summary", "birds", "ClassBird1") in report.unhealthy_paths()
        assert not db.health.is_healthy("summary", "birds", "ClassBird1")
        # The planner degrades immediately.
        assert "SummaryIndexScan" not in db.explain(SP_QUERY).physical
        repair = db.repair()
        assert repair.converged
        # A converged repair restores every quarantined path.
        assert db.health.is_healthy("summary", "birds", "ClassBird1")
        assert "SummaryIndexScan" in db.explain(SP_QUERY).physical

    def test_unhealthy_paths_come_from_violation_keys(self):
        from repro.core.integrity import IntegrityReport, Violation

        report = IntegrityReport(violations=[
            Violation("table birds", "count-mismatch", "x"),
            Violation("summary index birds.C tree", "checksum", "x",
                      ("summary", "birds", "C")),
            Violation("keyword index birds.K postings", "btree", "x",
                      ("keyword", "birds", "K")),
            Violation("replica index birds.S", "index-mismatch", "x",
                      ("replica", "birds", "S")),
            Violation("baseline index birds.B norm-table", "x", "x",
                      ("baseline", "birds", "B")),
            Violation("baseline index birds.B", "x", "y",
                      ("baseline", "birds", "B")),
        ])
        assert report.unhealthy_paths() == [
            ("baseline", "birds", "B"),
            ("keyword", "birds", "K"),
            ("replica", "birds", "S"),
            ("summary", "birds", "C"),
        ]


# -- persistence and the guard ------------------------------------------------


class TestResilienceSurvivesImages:
    def test_pickled_database_keeps_guard_attached(self, db, tmp_path):
        path = tmp_path / "db.image"
        db.save(path)
        from repro.core.database import Database

        loaded = Database.load(path)
        assert loaded.pool.guard is loaded.guard
        assert loaded.guard.breaker.state == CLOSED
        # And it still retries: inject one transient read fault.
        loaded.guard.policy.base_delay = 0
        with installed_faults(loaded, FaultPlan().transient_read(at=0)):
            loaded.pool.clear()
            assert run(loaded, SP_QUERY) == run(db, SP_QUERY)
        assert loaded.metrics.get("resilience.retries") >= 1

    def test_pre_resilience_state_gets_fresh_guard(self, db):
        state = db.__getstate__()
        state.pop("health")
        state.pop("guard")
        state.pop("statement_timeout")
        clone = object.__new__(type(db))
        clone.__setstate__(pickle.loads(pickle.dumps(state)))
        assert clone.statement_timeout is None
        assert clone.pool.guard is clone.guard
        assert len(clone.health) == 0


# -- REPL surface -------------------------------------------------------------


class TestReplResilience:
    def test_step_renders_timeout(self, db):
        db.statement_timeout = 0
        try:
            out = repl_step(db, SP_QUERY)
        finally:
            db.statement_timeout = None
        assert out.startswith("timeout:")

    def test_step_renders_engine_error(self, db):
        assert repl_step(db, "SELECT FROM nowhere").startswith("error:")

    def test_step_survives_unexpected_crash(self, db, monkeypatch):
        monkeypatch.setattr(
            type(db), "execute",
            lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        out = repl_step(db, SP_QUERY)
        assert out == "unexpected RuntimeError: boom"

    def test_step_survives_keyboard_interrupt(self, db, monkeypatch):
        monkeypatch.setattr(
            type(db), "execute",
            lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        assert repl_step(db, SP_QUERY) == "cancelled"

    def test_step_lets_quit_escape(self, db):
        with pytest.raises(EOFError):
            repl_step(db, "\\quit")

    def test_timeout_command(self, db):
        assert repl_step(db, "\\timeout") == "statement timeout = off"
        assert repl_step(db, "\\timeout 1.5") == "statement timeout = 1.5s"
        assert db.statement_timeout == 1.5
        assert repl_step(db, "\\timeout") == "statement timeout = 1.5s"
        assert repl_step(db, "\\timeout off") == "statement timeout = off"
        assert db.statement_timeout is None
        assert "usage" in repl_step(db, "\\timeout -3")

    def test_cancelled_statement_keeps_session_usable(self, db):
        db.statement_timeout = 0
        try:
            assert repl_step(db, SP_QUERY).startswith("timeout:")
        finally:
            db.statement_timeout = None
        assert len(db.sql(SP_QUERY)) > 0
