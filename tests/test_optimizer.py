"""Optimizer tests: statistics, selectivity, transformation rules (§5.1),
and plan selection."""

import os

import pytest

from repro import Column, Database, PlannerOptions, ValueType
from repro.optimizer.cost import (
    Estimator,
    match_indexable_data_pred,
    match_indexable_summary_pred,
)
from repro.optimizer.rules import RuleContext, apply_rules
from repro.optimizer.statistics import (
    Histogram,
    LabelStats,
    StatisticsCatalog,
)
from repro.query.logical import (
    LogicalJoin,
    LogicalSummaryJoin,
    LogicalSummarySelect,
)
from repro.query.parser import parse_sql
from repro.summaries.maintenance import SummaryManager

SEED = [
    ("infection avian flu disease symptoms", "Disease"),
    ("outbreak illness disease infected", "Disease"),
    ("wing beak plumage anatomy", "Anatomy"),
    ("wingspan bone anatomy measurement", "Anatomy"),
    ("migration nesting behavior", "Behavior"),
    ("feeding eating behavior flock", "Behavior"),
    ("note comment misc", "Other"),
]

DISEASE_TEXT = "observed avian flu infection disease symptoms"


def build_db(synonyms_have_instance=False):
    db = Database()
    db.create_table(
        "birds",
        [Column("name", ValueType.TEXT), Column("family", ValueType.TEXT)],
    )
    db.create_table(
        "synonyms",
        [Column("bird_name", ValueType.TEXT), Column("syn", ValueType.TEXT)],
    )
    db.create_index("synonyms", "bird_name")
    db.create_classifier_instance(
        "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
    )
    db.create_snippet_instance("TextSummary1", min_chars=60, max_chars=50)
    db.sql("Alter Table birds Add Indexable ClassBird1")
    db.sql("Alter Table birds Add TextSummary1")
    db.sql("Alter Table synonyms Add TextSummary1")
    if synonyms_have_instance:
        db.manager.link("synonyms", "ClassBird1")
    for i in range(30):
        oid = db.insert("birds", {"name": f"b{i}", "family": f"f{i % 3}"})
        for _ in range(i % 7):
            db.add_annotation(DISEASE_TEXT, table="birds", oid=oid)
        db.insert("synonyms", {"bird_name": f"b{i}", "syn": f"s{i}"})
    db.analyze("birds")
    db.analyze("synonyms")
    return db


class TestHistogram:
    def test_build_and_total(self):
        hist = Histogram.build([1.0, 2.0, 3.0, 4.0, 5.0], num_buckets=4)
        assert hist.total == 5

    def test_selectivity_eq_in_domain(self):
        hist = Histogram.build([float(i % 10) for i in range(100)])
        sel = hist.selectivity_eq(5.0, ndistinct=10)
        assert 0.0 < sel <= 1.0

    def test_selectivity_eq_out_of_domain(self):
        hist = Histogram.build([1.0, 2.0])
        assert hist.selectivity_eq(99.0, ndistinct=2) == 0.0

    def test_selectivity_range_full(self):
        hist = Histogram.build([float(i) for i in range(50)])
        assert hist.selectivity_range(None, None) == pytest.approx(1.0)

    def test_selectivity_range_half(self):
        hist = Histogram.build([float(i) for i in range(100)])
        sel = hist.selectivity_range(0, 49)
        assert 0.3 < sel < 0.7

    def test_empty_histogram(self):
        hist = Histogram.build([])
        assert hist.selectivity_eq(1.0, 1) == 0.0
        assert hist.selectivity_range(0, 10) == 0.0

    def test_label_stats_build(self):
        stats = LabelStats.build([1, 2, 2, 3, 8])
        assert stats.min == 1
        assert stats.max == 8
        assert stats.ndistinct == 4


class TestStatisticsCatalog:
    def test_analyze_collects_label_stats(self):
        db = build_db()
        stats = db.statistics.table_stats("birds")
        assert stats.row_count == 30
        disease = stats.instances["ClassBird1"].labels["Disease"]
        assert disease.max == 6
        assert disease.min == 0

    def test_avg_object_size_positive(self):
        db = build_db()
        stats = db.statistics.table_stats("birds")
        assert stats.instances["ClassBird1"].avg_object_size > 0

    def test_staleness_triggers_reanalyze(self):
        db = build_db()
        before = db.statistics.table_stats("birds")
        oid = db.insert("birds", {"name": "new", "family": "f0"})
        for _ in range(9):
            db.add_annotation(DISEASE_TEXT, table="birds", oid=oid)
        after = db.statistics.table_stats("birds")
        assert after.row_count == 31
        assert after.columns["name"].ndistinct == 31
        assert after.instances["ClassBird1"].labels["Disease"].max == 9
        assert after == fresh_analyze(db, "birds")
        # What was handed out earlier is a value, not a live view.
        assert before.row_count == 30
        assert before.instances["ClassBird1"].labels["Disease"].max == 6

    def test_column_stats(self):
        db = build_db()
        stats = db.statistics.table_stats("birds")
        assert stats.columns["family"].ndistinct == 3


def fresh_analyze(db, table):
    """From-scratch statistics by a catalog that never saw a delta."""
    return StatisticsCatalog(db.catalog, db.manager).analyze(table)


def assert_exact(db):
    for table in db.catalog.table_names():
        assert db.statistics.table_stats(table) == fresh_analyze(db, table), table


def small_db():
    db = Database()
    db.create_table("t", [Column("id", ValueType.INT)])
    db.create_classifier_instance(
        "C", ["Disease", "Anatomy", "Behavior", "Other"], SEED
    )
    db.sql("Alter Table t Add Indexable C")
    for i in range(5):
        db.insert("t", {"id": i})
    db.add_annotation(DISEASE_TEXT, table="t", oid=1)
    db.analyze("t")
    return db


class TestRowDmlRefreshesStatistics:
    """Satellite bugfix: only UPDATE used to invalidate; INSERT and DELETE
    left row_count, the column stats and every label's zero fill behind."""

    def test_inserts_after_analyze(self):
        db = small_db()
        for i in range(5, 50):
            db.sql(f"Insert Into t Values ({i})")
        stats = db.statistics.table_stats("t")
        assert stats.row_count == 50
        assert stats.columns["id"].max == 49
        # 49 un-annotated tuples are zeros of every label's histogram.
        assert stats.instances["C"].labels["Disease"].histogram.total == 50
        assert_exact(db)

    def test_delete_of_unannotated_tuples(self):
        db = small_db()
        assert db.sql("Delete From t r Where r.id >= 3") == 2
        stats = db.statistics.table_stats("t")
        assert stats.row_count == 3
        assert stats.columns["id"].max == 2
        assert stats.instances["C"].labels["Disease"].histogram.total == 3
        assert_exact(db)

    def test_transaction_commit_and_rollback(self):
        db = small_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values (77)")
        s.execute("ROLLBACK")
        assert db.statistics.table_stats("t").row_count == 5
        s.execute("BEGIN")
        s.execute("Insert Into t Values (77)")
        s.execute("Delete From t r Where r.id = 0")
        s.execute("Update t r Set id = 500 Where r.id = 4")
        s.execute("COMMIT")
        s.close()
        stats = db.statistics.table_stats("t")
        assert stats.row_count == 5
        assert (stats.columns["id"].min, stats.columns["id"].max) == (1, 500)
        assert_exact(db)

    def test_wal_replay(self):
        from repro.wal.device import MemoryWALDevice

        db = small_db()
        db.attach_wal()
        for i in range(5, 9):
            db.insert("t", {"id": i})
        db.delete_tuple("t", 2)
        db.sql("Update t r Set id = 900 Where r.id = 8")
        crashed = MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        # Replay onto a copy of the pre-WAL state whose statistics are warm.
        replica = small_db()
        replica.statistics.table_stats("t")
        from repro.wal.recovery import replay

        replay(replica, crashed)
        stats = replica.statistics.table_stats("t")
        assert stats.row_count == 8
        assert stats.columns["id"].max == 900
        assert_exact(replica)


class TestIncrementalStatistics:
    def test_annotations_never_force_full_analyze(self):
        """The engine-side twin of the served benchmark's
        ``optimizer.analyze_calls``: after one warm-up read, annotate/read
        pairs are served from the accumulators."""
        db = build_db()
        query = (
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = {}"
        )
        db.sql(query.format(1))
        before = db.metrics_snapshot()
        for i in range(50):
            db.sql(f"Annotate birds {i % 30 + 1} '{DISEASE_TEXT}'")
            db.sql(query.format(i % 7))
        after = db.metrics_snapshot()
        assert after["stats.full_analyze"] == before["stats.full_analyze"]
        assert (
            after["stats.incremental_deltas"]
            - before.get("stats.incremental_deltas", 0)
        ) == 50
        assert_exact(db)

    def test_write_dirties_only_the_labels_it_moved(self):
        db = build_db()
        before = db.statistics.table_stats("birds")
        db.add_annotation(DISEASE_TEXT, table="birds", oid=3)
        after = db.statistics.table_stats("birds")
        old_labels = before.instances["ClassBird1"].labels
        labels = after.instances["ClassBird1"].labels
        # Only the label whose count moved was derived again.
        assert labels["Disease"] is not old_labels["Disease"]
        for untouched in ("Anatomy", "Behavior", "Other"):
            assert labels[untouched] is old_labels[untouched]

    def test_label_disappears_with_its_last_object(self):
        db = small_db()
        assert "C" in db.statistics.table_stats("t").instances
        (ann,) = list(db.manager.annotations.scan())
        db.delete_annotation(ann.ann_id)
        assert db.statistics.table_stats("t").instances == {}
        assert_exact(db)

    def test_unlinked_leftover_objects_stay_exact(self):
        db = build_db()
        db.statistics.table_stats("birds")
        db.sql("Alter Table birds Drop TextSummary1")
        db.add_annotation(DISEASE_TEXT, table="birds", oid=2)
        anns = [a.ann_id for a in db.manager.annotations.scan()]
        db.delete_annotation(anns[0])
        assert "TextSummary1" in db.statistics.table_stats("birds").instances
        assert_exact(db)

    def test_repair_goes_cold_and_refolds(self):
        db = build_db()
        db.statistics.table_stats("birds")
        # Behind the manager's back: leaves an orphan summary row, which
        # repair drops straight from storage — no event reaches anyone.
        db.catalog.table("birds").delete(7)
        before = db.metrics.get("stats.full_analyze")
        assert db.repair().converged
        assert db.metrics.get("stats.full_analyze") > before
        assert_exact(db)

    def test_deltas_on_a_cold_table_are_dropped(self):
        db = build_db()
        db.statistics.table_stats("birds")
        db.statistics.mark_stale("birds")
        before = db.metrics_snapshot()
        db.add_annotation(DISEASE_TEXT, table="birds", oid=2)
        assert_exact(db)
        after = db.metrics_snapshot()
        assert after.get("stats.incremental_deltas", 0) == before.get(
            "stats.incremental_deltas", 0
        )

    def test_unattached_table_is_analyzed_on_every_use(self):
        # Tables created behind the Database facade deliver no events to
        # the catalog, so it never trusts accumulators for them.
        from repro.catalog.schema import Schema

        db = build_db()
        db.catalog.create_table("side", Schema([Column("x", ValueType.INT)]))
        before = db.metrics.get("stats.full_analyze")
        db.statistics.table_stats("side")
        db.statistics.table_stats("side")
        assert db.metrics.get("stats.full_analyze") == before + 2

    def test_reads_race_annotation_writes(self):
        """Deltas arrive from a writer's annotations while planners on
        other threads derive: a lost accumulator update would break
        exactness."""
        import sys
        import threading

        db = small_db()
        db.statistics.table_stats("t")
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    stats = db.statistics.table_stats("t")
                    for inst in stats.instances.values():
                        assert inst.avg_object_size > 0
                except Exception as exc:  # surfaced below
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for i in range(150):
                db.add_annotation(DISEASE_TEXT, table="t", oid=i % 5 + 1)
                if i % 10 == 0:
                    db.insert("t", {"id": 100 + i})
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert_exact(db)

    def test_old_image_without_accumulators_loads_cold(self, tmp_path,
                                                       monkeypatch):
        """An image from before the accumulators: the catalog pickled
        finished TableStats plus a stale set, and one `_StalenessObserver`
        per linked instance sat on the classifier channels."""
        import repro.optimizer.statistics as statistics_module

        class _StalenessObserver:
            def __init__(self, stats, table):
                self._stats = stats
                self._table = table

        _StalenessObserver.__module__ = statistics_module.__name__
        _StalenessObserver.__qualname__ = "_StalenessObserver"

        db = build_db()
        expected = db.statistics.table_stats("birds")
        with monkeypatch.context() as patch:
            patch.setattr(statistics_module, "_StalenessObserver",
                          _StalenessObserver, raising=False)
            patch.setattr(
                StatisticsCatalog, "__getstate__",
                lambda self: {"catalog": self.catalog,
                              "manager": self.manager,
                              "_stats": {"birds": expected},
                              "_stale": {"synonyms"}},
            )
            # Those images also pickled the subscriptions, keyed by
            # (table, instance) channel.
            manager_state = SummaryManager.__getstate__
            patch.setattr(
                SummaryManager, "__getstate__",
                lambda self: {**manager_state(self), "_observers": {
                    ("birds", "ClassBird1"):
                        [_StalenessObserver(db.statistics, "birds")],
                }},
            )
            path = tmp_path / "old.img"
            db.save(path)
        assert not hasattr(statistics_module, "_StalenessObserver")

        loaded = Database.load(path)
        assert all(state.cold for state in loaded.statistics._tables.values())
        assert set(loaded.statistics._tables) == {"birds", "synonyms"}
        before = loaded.metrics.get("stats.full_analyze")
        assert loaded.statistics.table_stats("birds") == expected
        loaded.add_annotation(DISEASE_TEXT, table="birds", oid=4)
        assert loaded.statistics.table_stats("birds") != expected
        # One fold on first use; the annotate after it was a delta.
        assert loaded.metrics.get("stats.full_analyze") == before + 1
        assert_exact(loaded)


# -- exactness oracle -----------------------------------------------------------

ORACLE_TEXTS = [
    DISEASE_TEXT,
    "wing beak plumage anatomy measurement",
    "migration nesting behavior flock feeding",
    "note comment misc " + "long padding text " * 8,
]


def _op_lists(st):
    """Strategy for the oracle's op lists (``st``: hypothesis.strategies,
    imported by the test so the rest of the module runs without it)."""
    row = st.integers(min_value=0, max_value=40)
    text = st.integers(min_value=0, max_value=len(ORACLE_TEXTS) - 1)
    write = st.one_of(
        st.tuples(st.just("annotate"), row, text),
        st.tuples(st.just("annotate_cell"), row, text),
        st.tuples(st.just("insert"), row),
        st.tuples(st.just("delete_tuple"), row),
        st.tuples(st.just("update"), row),
    )
    op = st.one_of(
        write,
        st.tuples(st.just("delete_annotation"), row),
        st.tuples(st.just("bulk"), row, st.lists(text, min_size=1, max_size=4)),
        st.tuples(st.just("commit"), st.lists(write, min_size=1, max_size=4)),
        st.tuples(st.just("rollback"), st.lists(write, min_size=1, max_size=4)),
        st.tuples(st.just("relink"),
                  st.sampled_from(["Snip", "Clus", "Tree", "C"])),
        st.tuples(st.just("save_load")),
        st.tuples(st.just("crash_recover")),
    )
    # The nightly sweep lengthens the op lists along with the stateful
    # machines'; example counts follow the Hypothesis profile.
    return st.lists(
        op, min_size=1,
        max_size=int(os.environ.get("REPRO_STATEFUL_STEPS", "12")),
    )


class _OracleRun:
    """Drives one op list against a WAL-backed database and checks the
    statistics against a from-scratch analyze after every op."""

    TREE = {"Health": {"Disease": {}, "Anatomy": {}},
            "Life": {"Behavior": {}, "Other": {}}}

    def __init__(self, tmp_path):
        self.path = tmp_path / "oracle.img"
        self.image = None  # path once a checkpoint exists
        db = Database(buffer_pages=64)
        db.attach_wal()
        db.create_table("t", [Column("id", ValueType.INT),
                              Column("name", ValueType.TEXT)])
        labels = ["Disease", "Anatomy", "Behavior", "Other"]
        db.create_classifier_instance("C", labels, SEED)
        db.create_hierarchical_classifier_instance("Tree", self.TREE, SEED)
        db.create_snippet_instance("Snip", min_chars=60, max_chars=40)
        db.create_cluster_instance("Clus")
        db.sql("Alter Table t Add Indexable C")
        for name in ("Tree", "Snip", "Clus"):
            db.sql(f"Alter Table t Add {name}")
        for i in range(4):
            db.insert("t", {"id": i, "name": f"n{i}"})
        self.db = db
        self.counter = 100

    def _oids(self):
        return sorted(oid for oid, _ in self.db.catalog.table("t").scan())

    def _pick(self, pool, index):
        return pool[index % len(pool)] if pool else None

    def _sql_for(self, op, doomed=None):
        """The statement a session runs for a row-level write op.
        ``doomed``: OIDs the open transaction already deleted (buffered
        annotates on them would fail the commit apply)."""
        kind, row = op[0], op[1]
        doomed = set() if doomed is None else doomed
        oid = self._pick([o for o in self._oids() if o not in doomed], row)
        if kind == "insert":
            self.counter += 1
            return f"Insert Into t Values ({self.counter}, 'x{row}')"
        if oid is None:
            return None
        if kind == "annotate":
            return f"Annotate t {oid} '{ORACLE_TEXTS[op[2]]}'"
        if kind == "annotate_cell":
            return f"Annotate t {oid} (name) '{ORACLE_TEXTS[op[2]]}'"
        if kind == "delete_tuple":
            doomed.add(oid)
            return f"Delete From t r Where r.oid = {oid}"
        return f"Update t r Set id = {row + 1000} Where r.name = 'n{row % 4}'"

    def apply(self, op):
        db, kind = self.db, op[0]
        if kind in ("annotate", "annotate_cell", "insert", "delete_tuple",
                    "update"):
            sql = self._sql_for(op)
            if sql is not None:
                db.sql(sql)
        elif kind == "delete_annotation":
            ann_ids = sorted(a.ann_id for a in db.manager.annotations.scan())
            if ann_ids:
                db.delete_annotation(self._pick(ann_ids, op[1]))
        elif kind == "bulk":
            oid = self._pick(self._oids(), op[1])
            if oid is not None:
                from repro.annotations.annotation import AnnotationTarget

                db.add_annotations_bulk([
                    (ORACLE_TEXTS[t], [AnnotationTarget("t", oid, ())])
                    for t in op[2]
                ])
        elif kind in ("commit", "rollback"):
            session = db.session()
            session.execute("BEGIN")
            doomed = set()
            for sub in op[1]:
                sql = self._sql_for(sub, doomed)
                if sql is not None:
                    session.execute(sql)
            session.execute(kind.upper())
            session.close()
        elif kind == "relink":
            verb = "Drop" if db.manager.is_linked("t", op[1]) else "Add"
            db.sql(f"Alter Table t {verb} {op[1]}")
        elif kind == "save_load":
            db.save(self.path)
            self.image = self.path
            self.db = Database.load(self.path)
            self.db.attach_wal()
        elif kind == "crash_recover":
            from repro.wal.device import MemoryWALDevice

            device = db.wal.device
            self.db, _report = Database.recover(
                self.image,
                MemoryWALDevice.from_durable(device.durable(),
                                             device.base_lsn),
            )

    def check(self):
        assert_exact(self.db)
        assert_plans_exact(self.db)


def assert_plans_exact(db):
    """Cached plans equal fresh ones over a panel of statements (those
    whose summary instance is linked right now)."""
    from tests.test_plan_cache import assert_cached_equals_fresh, dml_select

    label = "r.$.getSummaryObject('C').getLabelValue"
    panel = []
    if db.manager.is_linked("t", "C"):
        panel += [
            f"Select name From t r Where {label}('Disease') = 1",
            f"Select id From t r Where {label}('Anatomy') in [1, 2]",
            f"Select r.name, s.id From t r, t s Where r.id = s.id "
            f"And {label}('Disease') > 0 Order By {label}('Disease')",
            dml_select("t", "r", f"{label}('Disease') >= 1"),
        ]
    if db.manager.is_linked("t", "Snip"):
        panel.append("Select name From t r Where "
                     "r.$.getSummaryObject('Snip').containsSingle('virus')")
    for query in panel:
        assert_cached_equals_fresh(db, query)


def test_statistics_equal_fresh_analyze_after_every_op(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(ops=_op_lists(hypothesis.strategies))
    def run_ops(ops):
        run = _OracleRun(tmp_path_factory.mktemp("oracle"))
        run.db.statistics.table_stats("t")  # warm: ops below are deltas
        for op in ops:
            run.apply(op)
            run.check()

    run_ops()


class TestPredicateMatching:
    def test_match_summary_pred(self):
        stmt = parse_sql(
            "Select * From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5"
        )
        matched = match_indexable_summary_pred(stmt.where)
        assert matched is not None
        assert (matched.instance, matched.label, matched.op, matched.constant) == (
            "ClassBird1", "Disease", ">", 5,
        )
        assert matched.bounds() == (5, None, False, True)

    def test_match_flipped_comparison(self):
        stmt = parse_sql(
            "Select * From birds r Where "
            "5 < r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"
        )
        matched = match_indexable_summary_pred(stmt.where)
        assert matched is not None and matched.op == ">"

    def test_no_match_for_keyword_predicate(self):
        stmt = parse_sql(
            "Select * From birds r Where "
            "r.$.getSummaryObject('TextSummary1').containsUnion('x')"
        )
        assert match_indexable_summary_pred(stmt.where) is None

    def test_match_data_pred(self):
        stmt = parse_sql("Select * From birds Where family = 'f1'")
        matched = match_indexable_data_pred(stmt.where)
        assert matched is not None
        assert matched.column == "family"


def bind(db, sql):
    stmt = parse_sql(sql)
    return db.planner.binder.bind(stmt)


def plan_labels(plan):
    return [node.label() for node in plan.walk_plan()]


class TestRules:
    Q_EXAMPLE4 = (
        "Select r.name, s.syn From birds r, synonyms s "
        "Where r.name = s.bird_name And "
        "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5 "
        "Order By r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"
    )

    def test_rule2_pushes_selection_below_join(self):
        # Case II of Example 4: synonyms does NOT have ClassBird1, so the S
        # operator can be pushed below the join.
        db = build_db(synonyms_have_instance=False)
        logical, info = bind(db, self.Q_EXAMPLE4)
        variants = apply_rules(logical, db.manager, info)
        assert len(variants) > 1
        pushed = [
            v for v in variants
            if any(
                isinstance(n, LogicalJoin)
                and isinstance(n.left, LogicalSummarySelect)
                for n in v.walk_plan()
            )
        ]
        assert pushed

    def test_rule2_blocked_when_both_sides_have_instance(self):
        # Case I of Example 4: synonyms also links ClassBird1 -> no pushdown.
        db = build_db(synonyms_have_instance=True)
        logical, info = bind(db, self.Q_EXAMPLE4)
        variants = apply_rules(logical, db.manager, info)
        pushed = [
            v for v in variants
            if any(
                isinstance(n, LogicalJoin)
                and isinstance(n.left, LogicalSummarySelect)
                for n in v.walk_plan()
            )
        ]
        assert not pushed

    def test_rule11_switches_join_order(self):
        db = build_db()
        # T is a replica of birds joined on a data column; J(R, S) is a
        # summary join on keywords.
        db.create_table("t_rep", [Column("name", ValueType.TEXT)])
        db.create_index("t_rep", "name")
        for i in range(30):
            db.insert("t_rep", {"name": f"b{i}"})
        sql = (
            "Select r.name From birds r, synonyms s, t_rep t "
            "Where r.name = t.name And "
            "r.$.getSummaryObject('TextSummary1').containsUnion('disease')"
        )
        # The summary predicate references only r -> it binds as a summary
        # SELECT; craft a genuine summary JOIN instead:
        sql = (
            "Select r.name From birds r, synonyms s, t_rep t "
            "Where r.name = t.name And "
            "r.$.getSummaryObject('TextSummary1').getSize() = "
            "s.$.getSummaryObject('TextSummary1').getSize()"
        )
        logical, info = bind(db, sql)
        # Initial shape: J(r, s) first (FROM order), then join with t.
        assert any(isinstance(n, LogicalSummaryJoin) for n in logical.walk_plan())
        variants = apply_rules(logical, db.manager, info)
        switched = [
            v for v in variants
            if isinstance(v_top := _top_join(v), LogicalSummaryJoin)
            and isinstance(v_top.left, LogicalJoin)
        ]
        assert switched, "Rule 11 should offer J((r JOIN t), s)"

    def test_structural_filter_pushed_both_sides(self):
        db = build_db()
        sql = (
            "Select r.name, s.syn From birds r, synonyms s "
            "Where r.name = s.bird_name "
            "FILTER SUMMARIES getSummaryType() = 'Classifier'"
        )
        logical, info = bind(db, sql)
        variants = apply_rules(logical, db.manager, info)
        both_sides = [
            v for v in variants
            if sum("SummaryFilter" in lbl for lbl in plan_labels(v)) == 2
        ]
        assert both_sides


def _top_join(plan):
    """First join node under the top-of-plan unary operators."""
    node = plan
    while node.children and len(node.children) == 1:
        node = node.children[0]
    return node


class TestPlanSelection:
    def test_index_chosen_for_selective_predicate(self):
        db = build_db()
        # Scale data so that the index clearly wins.
        for i in range(300):
            oid = db.insert("birds", {"name": f"x{i}", "family": "f9"})
            db.add_annotation(DISEASE_TEXT, table="birds", oid=oid)
        db.analyze("birds")
        report = db.explain(
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 6"
        )
        assert "SummaryIndexScan" in report.physical

    def test_no_index_when_disabled(self):
        db = build_db()
        db.options.index_scheme = "none"
        report = db.explain(
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 6"
        )
        assert "SummaryIndexScan" not in report.physical

    def test_rules_disabled_keeps_initial_plan(self):
        db = build_db()
        db.options.enable_rules = False
        report = db.explain(
            "Select r.name From birds r, synonyms s "
            "Where r.name = s.bird_name And "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5"
        )
        # With rules off the S operator stays above the join.
        lines = report.logical.splitlines()
        s_line = next(i for i, l in enumerate(lines) if "SummarySelect" in l)
        join_line = next(i for i, l in enumerate(lines) if "Join" in l)
        assert s_line < join_line

    def test_forced_join_method(self):
        db = build_db()
        db.options.force_join = "nloop"
        report = db.explain(
            "Select r.name From birds r, synonyms s Where r.name = s.bird_name"
        )
        assert "NestedLoopJoin" in report.physical
        db.options.force_join = "index"
        report2 = db.explain(
            "Select r.name From birds r, synonyms s Where r.name = s.bird_name"
        )
        assert "IndexNestedLoopJoin" in report2.physical

    def test_forced_sort_method(self):
        db = build_db()
        db.options.force_sort = "disk"
        db.options.index_scheme = "none"
        report = db.explain(
            "Select name From birds r Order By "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"
        )
        assert "Sort[O:disk]" in report.physical or "disk" in report.physical

    def test_optimized_beats_unoptimized_cost(self):
        db = build_db()
        query = (
            "Select r.name From birds r, synonyms s "
            "Where r.name = s.bird_name And "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5 "
            "Order By r.$.getSummaryObject('ClassBird1')."
            "getLabelValue('Disease')"
        )
        optimized = db.explain(query).estimated_cost
        db.options.enable_rules = False
        db.options.index_scheme = "none"
        db.options.force_join = "nloop"
        baseline = db.explain(query).estimated_cost
        assert optimized < baseline

    def test_equivalent_plans_same_results(self):
        """Plan-equivalence integration check: optimization must never
        change answers."""
        db = build_db()
        query = (
            "Select r.name From birds r, synonyms s "
            "Where r.name = s.bird_name And "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3 "
            "Order By r.name"
        )
        fast = db.sql(query).column("r.name")
        db.options.enable_rules = False
        db.options.index_scheme = "none"
        db.options.force_join = "nloop"
        slow = db.sql(query).column("r.name")
        assert fast == slow
