"""The statement cache (DESIGN.md §5n): one AST per statement text, one
plan per statement value and dependency stamp.

A cached plan must be the plan fresh planning would choose *now*, and
planning prices with each table's *published* statistics, so a plan stays
valid while the statistics it priced with hold.  Every planner input has a
test here that moves it and checks the next run re-plans: DDL, UDF
registration and repair (the database epoch), access-path health,
in-place option flips, a republish of a referenced table's statistics
(the "50 + 10 % of rows" row-event threshold, ``analyze``, ``mark_stale``),
the first cell-level annotation, and whether every row has a summary row.
Writes below the threshold keep the entry.  A loaded or recovered database
starts with an empty cache and unpublished statistics.  Shared ASTs are
frozen, and concurrent runs of one cached plan each get their own
operators.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading

import pytest

from repro import Column, Database, ValueType
from repro.query.ast import Literal, SelectStmt, Star, TableRef
from repro.optimizer.statistics import (
    REPUBLISH_SCALE_FACTOR,
    REPUBLISH_THRESHOLD,
)
from repro.query.parser import parse_sql
from repro.wal.device import MemoryWALDevice
from repro.workload import WorkloadConfig, build_database

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("wing feather beak plumage", "Anatomy"),
    ("survey checklist volunteer note", "Other"),
]
DISEASE_TEXT = "flu virus infection outbreak seen"
EXPR = "$.getSummaryObject('C').getLabelValue('Disease')"
SP_EQ = f"Select name From t r Where r.{EXPR} = 2"
CLASS_EXPR = "$.getSummaryObject('ClassBird1').getLabelValue"
EXAMPLE4 = (
    "Select r.common_name, s.synonym From birds r, synonyms s "
    f"Where r.oid = s.bird_id And r.{CLASS_EXPR}('Disease') > 3 "
    f"Order By r.{CLASS_EXPR}('Disease')"
)


def _stmt(query):
    return parse_sql(query) if isinstance(query, str) else query


def plan_of(db, query):
    """``(explain, degraded, cached)`` of the plan ``db`` runs for
    ``query`` (SQL text or a statement)."""
    planner = db.planner
    physical, _logical, _cost = planner.plan(_stmt(query))
    return physical.explain(), sorted(planner.excluded), planner.cached


def fresh_plan_of(db, query):
    planner = db.planner
    physical, _logical, cost = planner._plan_uncached(_stmt(query))
    return physical.explain(), sorted(planner.excluded), cost


def _values(tuples):
    return sorted((tuple(t.values) for t in tuples), key=repr)


def _rows(db, query):
    """``query``'s result as a sorted list of value tuples."""
    result = db.sql(query) if isinstance(query, str) \
        else db._execute_select(query)
    return _values(result.tuples)


def heap_rows(db, query):
    """``query``'s rows through heap scans only, planned and run beside
    the statement cache: the oracle neither reads nor replaces an entry."""
    planner = db.planner
    planner.options = dataclasses.replace(
        db.options, index_scheme="none", enable_data_indexes=False,
        force_access=None,
    )
    physical, _logical, _cost = planner._plan_uncached(_stmt(query))
    return _values(db._plan_rows(physical))


def dml_select(table, alias, predicate):
    """The statement DELETE/UPDATE plan for ``WHERE <predicate>``."""
    where = parse_sql(f"Select * From {table} {alias} Where {predicate}").where
    return SelectStmt((Star(None),), (TableRef(table, alias),), where=where)


def assert_cached_equals_fresh(db, query, oracle=True):
    """The plan the cache serves for ``query`` is the plan fresh planning
    chooses now, and (``oracle``) its rows are the heap-scan rows."""
    planner = db.planner
    physical, _logical, cost = planner.plan(_stmt(query))
    cached = (physical.explain(), sorted(planner.excluded), cost)
    assert cached == fresh_plan_of(db, query), query
    if oracle:
        assert _rows(db, query) == heap_rows(db, query), query


def make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    db.create_classifier_instance("C", ["Disease", "Anatomy", "Other"], SEEDS)
    db.sql("Alter Table t Add Indexable C")
    for i in range(6):
        oid = db.insert("t", {"name": f"n{i}", "v": i})
        for _ in range(i % 3):
            db.add_annotation(DISEASE_TEXT, table="t", oid=oid)
    return db


@pytest.fixture()
def db():
    return make_db()


def warm(db, sql=SP_EQ):
    """Run ``sql`` until its plan is cached; returns the cached explain."""
    db.sql(sql)
    explain, _degraded, cached = plan_of(db, sql)
    assert cached
    return explain


def events_to_republish(db, table="t"):
    """Row events ``table`` still needs before its statistics republish
    (reading the snapshot without publishing it)."""
    snapshot = db.statistics._published[table]
    due = math.ceil(REPUBLISH_THRESHOLD
                    + REPUBLISH_SCALE_FACTOR * snapshot.stats.row_count)
    return due - (db.statistics.events(table) - snapshot.event)


def annotate_until(db, remaining, table="t"):
    """Annotate ``table`` until ``remaining`` row events are left before
    its statistics republish (each annotate is one storage-row event)."""
    while events_to_republish(db, table) > remaining:
        db.add_annotation(DISEASE_TEXT, table=table, oid=1)


# -- the parse level ---------------------------------------------------------


class TestParseMemo:
    def test_one_ast_per_text(self):
        assert parse_sql(SP_EQ) is parse_sql(SP_EQ)

    def test_shared_ast_is_frozen(self):
        stmt = parse_sql(SP_EQ)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stmt.where = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            stmt.tables[0].alias = "x"
        assert isinstance(stmt.items, tuple)

    def test_errors_are_not_cached(self, db):
        from repro.errors import ParseError

        before = db.metrics_snapshot()["query.parse_cache.misses"]
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_sql("Select # From t")
        after = db.metrics_snapshot()["query.parse_cache.misses"]
        assert after - before == 2

    def test_literal_types_stay_distinct(self):
        """1, 1.0 and true are equal in Python; as statement keys they
        must not share a plan."""
        one = parse_sql("Select name From t Where v = 1")
        assert one != parse_sql("Select name From t Where v = 1.0")
        assert one != parse_sql("Select name From t Where v = true")
        assert Literal(1) == Literal(1) and hash(Literal(1)) == hash(Literal(1))


# -- the plan level: hits, counters, reports ----------------------------------


class TestPlanCache:
    def test_repeat_hits_and_annotate_invalidates(self, db):
        """An annotate leaves the plan cached while the published
        statistics hold; the annotate that republishes them invalidates."""
        db.reset_metrics()
        db.sql(SP_EQ)
        db.sql(SP_EQ)
        snap = db.metrics_snapshot()
        assert snap["optimizer.plan_cache.misses"] == 1
        assert snap["optimizer.plan_cache.hits"] == 1
        assert snap["optimizer.plan_cache.invalidations"] == 0
        assert snap["optimizer.stats.publishes"] == 1
        db.sql(f"Annotate t 1 '{DISEASE_TEXT}'")
        db.sql(SP_EQ)
        snap = db.metrics_snapshot()
        assert snap["optimizer.plan_cache.misses"] == 1
        assert snap["optimizer.plan_cache.hits"] == 2
        assert snap["query.parse_cache.hits"] >= 2
        annotate_until(db, 0)
        db.sql(SP_EQ)
        snap = db.metrics_snapshot()
        assert snap["optimizer.plan_cache.misses"] == 2
        assert snap["optimizer.plan_cache.invalidations"] == 1
        assert snap["optimizer.stats.publishes"] == 2

    def test_explain_says_cached_or_fresh(self, db):
        db.reset_metrics()
        first = db.explain(SP_EQ)
        second = db.explain(SP_EQ)
        assert not first.cached and second.cached
        assert "plan: fresh" in str(first)
        assert "plan: cached" in str(second)
        assert first.physical == second.physical

    def test_dml_where_shares_the_select_plan(self, db):
        """DELETE/UPDATE plan their WHERE as a SelectStmt value, so their
        runs share one cached plan (here: a WHERE that deletes nothing)."""
        delete = f"Delete From t r Where r.{EXPR} = 9"
        db.reset_metrics()
        assert db.sql(delete) == 0
        assert db.sql(delete) == 0
        assert db.metrics_snapshot()["optimizer.plan_cache.hits"] == 1
        select = SelectStmt(
            (Star(None),), (TableRef("t", "r"),),
            where=parse_sql(delete).where,
        )
        planner = db.planner
        planner.plan(select)
        assert planner.cached

    def test_each_run_gets_its_own_operators(self, db):
        warm(db)
        stmt = parse_sql(SP_EQ)
        first, _, _ = db.planner.plan(stmt)
        second, _, _ = db.planner.plan(stmt)

        def ops(root):
            out = [root]
            for child in root.children:
                out.extend(ops(child))
            return out

        assert not {id(o) for o in ops(first)} & {id(o) for o in ops(second)}
        assert first.ctx is not second.ctx
        assert first.explain() == second.explain()

    def test_bounded(self, db):
        cache = db._plan_cache
        for v in range(cache.capacity + 10):
            db.sql(f"Select name From t Where v = {v}")
        assert len(cache) == cache.capacity

    def test_health_frame_reports_the_cache(self, db):
        from repro.server.server import QueryServer

        db.reset_metrics()
        db.sql(SP_EQ)
        db.sql(SP_EQ)
        frame = QueryServer(db).health()
        assert frame["plan_cache_hits"] == 1
        assert frame["plan_cache_misses"] == 1
        assert frame["plan_cache_invalidations"] == 0
        assert frame["parse_cache_hits"] >= 1
        assert "parse_cache_misses" in frame
        assert frame["stats_publishes"] == 1

    def test_explain_says_what_the_plan_priced_with(self, db):
        db.sql(SP_EQ)
        published = db.statistics.published("t")
        db.sql(f"Annotate t 1 '{DISEASE_TEXT}'")
        report = db.explain(SP_EQ)
        assert report.cached
        line = (f"stats: t published at event {published.event}, 1 since "
                f"(discount {published.discount:.3g})")
        assert report.stats == [line]
        assert line in str(report).splitlines()


# -- invalidation: one test per planner input ---------------------------------


def _snippet(db):
    db.create_snippet_instance("S")
    db.link_summary_instance("t", "S")


def _plain_classifier(db):
    db.create_classifier_instance("C2", ["Disease", "Other"], SEEDS[::2])
    db.link_summary_instance("t", "C2")


#: DDL method -> (set-up run before the plans are cached, the DDL call).
DDL = {
    "create_table": (None, lambda db: db.create_table(
        "u", [Column("a", ValueType.INT)])),
    "create_index": (None, lambda db: db.create_index("t", "v")),
    "create_classifier_instance": (None, lambda db: (
        db.create_classifier_instance("C2", ["Disease", "Other"],
                                      SEEDS[::2]))),
    "create_hierarchical_classifier_instance": (None, lambda db: (
        db.create_hierarchical_classifier_instance(
            "H", {"Health": {"Disease": {}}, "Other": {}},
            [(SEEDS[0][0], "Disease"), (SEEDS[2][0], "Other")]))),
    "create_snippet_instance": (None, lambda db: (
        db.create_snippet_instance("S"))),
    "create_cluster_instance": (None, lambda db: (
        db.create_cluster_instance("K"))),
    "link_summary_instance": (
        lambda db: db.create_snippet_instance("S"),
        lambda db: db.link_summary_instance("t", "S")),
    "unlink_summary_instance": (
        _snippet, lambda db: db.unlink_summary_instance("t", "S")),
    "create_summary_index": (
        _plain_classifier, lambda db: db.create_summary_index("t", "C2")),
    "create_baseline_index": (
        None, lambda db: db.create_baseline_index("t", "C")),
    "create_keyword_index": (
        _snippet, lambda db: db.create_keyword_index("t", "S")),
    "create_normalized_replicas": (
        _snippet, lambda db: db.create_normalized_replicas("t")),
    "drop_summary_index": (
        None, lambda db: db.drop_summary_index("t", "C")),
}


class TestInvalidation:
    @pytest.mark.parametrize("name", sorted(DDL))
    def test_ddl(self, db, name):
        setup, ddl = DDL[name]
        if setup is not None:
            setup(db)
        sql = "Select name From t Where v = 3"
        warm(db, sql)
        warm(db)
        ddl(db)
        for query in (sql, SP_EQ):
            assert not plan_of(db, query)[2], (name, query)
            assert_cached_equals_fresh(db, query)

    def test_create_index_changes_the_plan(self, db):
        sql = "Select name From t Where v = 3"
        db.options.force_access = "index"
        assert "IndexScan" not in warm(db, sql)
        db.create_index("t", "v")
        explain, _, cached = plan_of(db, sql)
        assert not cached and "IndexScan(t.v" in explain

    def test_quarantine_then_restore(self, db):
        db.options.force_access = "index"
        assert "SummaryIndexScan" in warm(db)
        db.health.quarantine("summary", "t", "C")
        explain, degraded, cached = plan_of(db, SP_EQ)
        assert not cached and "SummaryIndexScan" not in explain
        assert degraded == [("summary", "t", "C")]
        assert plan_of(db, SP_EQ)[1:] == ([("summary", "t", "C")], True)
        assert "Degraded:" in str(db.explain(SP_EQ))
        db.health.restore("summary", "t", "C")
        explain, degraded, cached = plan_of(db, SP_EQ)
        assert not cached and "SummaryIndexScan" in explain and not degraded

    def test_repair(self, db):
        warm(db)
        db.repair()
        assert not plan_of(db, SP_EQ)[2]
        assert_cached_equals_fresh(db, SP_EQ)

    def test_in_place_option_flip(self, db):
        assert "SummaryIndexScan" not in warm(db, "Select * From t r Where "
                                                  f"r.{EXPR} >= 0")
        db.options.force_access = "index"
        explain, _, cached = plan_of(db, f"Select * From t r Where r.{EXPR} >= 0")
        assert not cached and "SummaryIndexScan" in explain

    def test_register_udf(self, db):
        from repro.errors import BindError

        sql = "Select name From t r Where hot(r.$)"
        with pytest.raises(BindError):
            db.sql(sql)
        db.register_udf("hot", lambda s: True)
        assert len(db.sql(sql)) == 6
        warm(db)
        db.register_udf("cold", lambda s: False)
        assert not plan_of(db, SP_EQ)[2]

    def test_first_cell_annotation(self):
        """Elimination side condition: once a cell-level annotation exists,
        a column-subset projection may no longer probe the Summary-BTree."""
        db = make_db()
        db.options.force_access = "index"
        assert "SummaryIndexScan" in warm(db)
        db.add_annotation(DISEASE_TEXT, table="t", oid=1, columns=["v"])
        explain, _, cached = plan_of(db, SP_EQ)
        assert not cached and "SummaryIndexScan" not in explain
        assert_cached_equals_fresh(db, SP_EQ, oracle=False)

    def test_row_insert_that_adds_a_page(self, db):
        """Row inserts price with the published page and row counts until
        they republish them; the insert that does re-plans."""
        sql = "Select name From t Where v = 3"
        warm(db, sql)
        heap = db.catalog.table("t").heap
        pages = heap.num_pages
        while heap.num_pages == pages:
            db.sql(f"Insert Into t Values ('{'x' * 500}', -1)")
            assert plan_of(db, sql)[2]
            assert_cached_equals_fresh(db, sql)
        published = db.statistics.published("t").stats
        assert published.heap_pages == pages
        while events_to_republish(db) > 1:
            db.sql(f"Insert Into t Values ('{'x' * 500}', -1)")
        assert plan_of(db, sql)[2]
        db.sql(f"Insert Into t Values ('{'x' * 500}', -1)")
        assert not plan_of(db, sql)[2]
        assert db.statistics.published("t").stats.heap_pages > pages
        assert_cached_equals_fresh(db, sql)

    def test_write_during_planning_leaves_a_stale_entry(self, db,
                                                         monkeypatch):
        """The stamp is read before planning, and planning prices with the
        snapshot the stamp read: writes that cross the republish threshold
        while a statement plans leave an entry the next lookup finds
        stale."""
        from repro.optimizer.planner import Planner

        plan_uncached = Planner._plan_uncached
        crossed = []

        def plan_then_write(self, stmt):
            out = plan_uncached(self, stmt)
            if not crossed:
                annotate_until(db, 0)
                crossed.append(True)
            return out

        monkeypatch.setattr(Planner, "_plan_uncached", plan_then_write)
        assert not plan_of(db, SP_EQ)[2]
        assert crossed
        assert not plan_of(db, SP_EQ)[2]
        assert plan_of(db, SP_EQ)[2]
        assert_cached_equals_fresh(db, SP_EQ)

    def test_save_load_starts_empty(self, db, tmp_path):
        warm(db)
        db.save(tmp_path / "db.img")
        loaded = Database.load(tmp_path / "db.img")
        assert len(loaded._plan_cache) == 0
        assert not plan_of(loaded, SP_EQ)[2]
        assert_cached_equals_fresh(loaded, SP_EQ)

    def test_crash_recover_starts_empty(self):
        db = Database()
        db.attach_wal()
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        db.create_classifier_instance("C", ["Disease", "Anatomy", "Other"],
                                      SEEDS)
        db.sql("Alter Table t Add Indexable C")
        db.sql("Insert Into t Values ('a', 1)")
        db.sql(f"Annotate t 1 '{DISEASE_TEXT}'")
        warm(db)
        device = db.wal.device
        recovered, _report = Database.recover(
            None, MemoryWALDevice.from_durable(device.durable(),
                                               device.base_lsn))
        assert len(recovered._plan_cache) == 0
        assert not plan_of(recovered, SP_EQ)[2]
        assert recovered.sql(SP_EQ).rows == db.sql(SP_EQ).rows

    def test_discount_step(self):
        """The discount is read at publish: a warmer cache reprices
        nothing until the table republishes, and the republish reads it."""
        db = make_db(cache_bytes=1 << 20)
        cache = db.manager.cache
        cache.hits, cache.misses = 0, 100
        warm(db, "Select * From t")
        _, _, cost = db.planner.plan(parse_sql("Select * From t"))
        cache.hits, cache.misses = 100, 0
        planner = db.planner
        _, _, same = planner.plan(parse_sql("Select * From t"))
        assert planner.cached and same == cost
        db.analyze("t")
        planner = db.planner
        _, _, discounted = planner.plan(parse_sql("Select * From t"))
        assert not planner.cached and discounted < cost
        assert db.statistics.published("t").discount == 0.5
        assert_cached_equals_fresh(db, "Select * From t")

    def test_summary_discount_is_a_step(self, db):
        """The hit rate prices exactly, and the planner sees it as a step
        function of publishes: it holds between two."""
        from repro.optimizer.cost import summary_read_discount

        class Cache:
            enabled = True

            def __init__(self, hits, misses):
                self.hits, self.misses = hits, misses

        assert summary_read_discount(Cache(10, 10)) == 1.0  # too few
        assert summary_read_discount(Cache(100, 100)) == 0.75
        assert summary_read_discount(Cache(101, 99)) == 1.0 - 0.505 * 0.5
        assert summary_read_discount(Cache(200, 0)) == 0.5
        published = db.statistics.published("t")
        cache = db.manager.cache
        cache.hits, cache.misses = 200, 0
        assert db.statistics.published("t") is published
        db.statistics.mark_stale("t")
        assert db.statistics.published("t").discount == 0.5


# -- published statistics -------------------------------------------------------


def _recreate_summary_index(db):
    db.drop_summary_index("t", "C")
    db.create_summary_index("t", "C")


#: what republishes a table's statistics besides the row-event threshold.
REPUBLISH = {
    "analyze": lambda db: db.analyze("t"),
    "mark_stale": lambda db: db.statistics.mark_stale("t"),
    "ddl": lambda db: db.create_index("t", "v"),
    "drop_and_recreate": _recreate_summary_index,
}


class TestPublication:
    def test_threshold_minus_one_keeps_the_entry(self, db):
        warm(db)
        db.reset_metrics()
        annotate_until(db, 1)
        assert plan_of(db, SP_EQ)[2]
        assert_cached_equals_fresh(db, SP_EQ)
        assert db.metrics_snapshot()["optimizer.stats.publishes"] == 0
        db.add_annotation(DISEASE_TEXT, table="t", oid=2)
        assert not plan_of(db, SP_EQ)[2]
        assert db.metrics_snapshot()["optimizer.stats.publishes"] == 1
        assert events_to_republish(db) > 1
        assert plan_of(db, SP_EQ)[2]
        assert_cached_equals_fresh(db, SP_EQ)

    def test_threshold_scales_with_rows(self, db):
        published = db.statistics.published("t")
        assert not published.due(published.event + 50)
        assert published.due(published.event + 51)  # 50 + 10 % of 6 rows

    @pytest.mark.parametrize("name", sorted(REPUBLISH))
    def test_republish(self, db, name):
        warm(db)
        version = db.statistics.published("t").version
        REPUBLISH[name](db)
        assert not plan_of(db, SP_EQ)[2]
        assert db.statistics.published("t").version != version
        assert plan_of(db, SP_EQ)[2]
        assert_cached_equals_fresh(db, SP_EQ)

    def test_save_load_starts_unpublished(self, db, tmp_path):
        warm(db)
        db.save(tmp_path / "db.img")
        loaded = Database.load(tmp_path / "db.img")
        assert loaded.statistics.publishes == 0
        assert not loaded.statistics._published
        assert not plan_of(loaded, SP_EQ)[2]
        assert loaded.statistics.publishes == 1
        assert_cached_equals_fresh(loaded, SP_EQ)

    def test_recover_starts_unpublished(self):
        db = Database()
        db.attach_wal()
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        db.create_classifier_instance("C", ["Disease", "Anatomy", "Other"],
                                      SEEDS)
        db.sql("Alter Table t Add Indexable C")
        db.sql("Insert Into t Values ('a', 1)")
        db.sql(f"Annotate t 1 '{DISEASE_TEXT}'")
        warm(db)
        device = db.wal.device
        recovered, _report = Database.recover(
            None, MemoryWALDevice.from_durable(device.durable(),
                                               device.base_lsn))
        assert not recovered.statistics._published
        assert not plan_of(recovered, SP_EQ)[2]
        assert recovered.statistics.publishes == 1
        assert_cached_equals_fresh(recovered, SP_EQ)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "fresh"])
    def test_every_row_annotated_is_read_live(self, cached):
        """A full-range ordered Summary-BTree scan answers only while every
        row has a summary row.  That is read live, not from the published
        row count: one un-annotated insert must not lose its row."""
        db = Database()
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        db.create_classifier_instance("C", ["Disease", "Anatomy", "Other"],
                                      SEEDS)
        db.sql("Alter Table t Add Indexable C")
        for i in range(6):
            db.add_annotation(DISEASE_TEXT, table="t",
                              oid=db.insert("t", {"name": f"n{i}", "v": i}))
        db.options.force_access = "index"
        ordered = f"Select name From t r Order By r.{EXPR}"
        if cached:
            assert "SummaryIndexScan" in warm(db, ordered)
        else:
            warm(db)  # publish the 6-row statistics
        db.sql("Insert Into t Values ('late', 9)")
        assert db.statistics.published("t").stats.row_count == 6
        explain, _, was_cached = plan_of(db, ordered)
        assert not was_cached and "SummaryIndexScan" not in explain
        assert len(db.sql(ordered)) == 7
        assert_cached_equals_fresh(db, ordered)


# -- concurrency ---------------------------------------------------------------


@pytest.fixture(scope="module")
def birds():
    return build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=8, cell_fraction=0.0, seed=3,
    ))


def test_concurrent_runs_of_one_plan_while_annotating(birds):
    """Four threads run Example 4 while a fifth annotates the synonyms
    and republishes their statistics (re-planning the join each time):
    every result equals the heap oracle, no two runs share an operator,
    and the cached template is never run."""
    db = birds
    expected = heap_rows(db, EXAMPLE4)
    runs: list = []
    runs_lock = threading.Lock()
    run_physical = db._run_physical

    def recording(stmt, physical, *args, **kwargs):
        with runs_lock:
            runs.append(physical)
        return run_physical(stmt, physical, *args, **kwargs)

    db._run_physical = recording
    errors: list = []

    def reader():
        try:
            for _ in range(8):
                result = db.execute(EXAMPLE4, timeout=60)
                got = sorted((tuple(t.values) for t in result.tuples),
                             key=repr)
                assert got == expected
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def annotator():
        try:
            for i in range(8):
                db.sql(f"Annotate synonyms {i + 1} 'volunteer note {i}'")
                db.analyze("synonyms")
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=annotator))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: mid-plan, mid-copy
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        del db._run_physical
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(runs) == 32

    def ops(root):
        out = [root]
        for child in root.children:
            out.extend(ops(child))
        return out

    seen: set[int] = set()
    for physical in runs:
        ids = {id(op) for op in ops(physical)}
        assert not ids & seen
        seen |= ids
    templates = [entry.template for entry in db._plan_cache._entries.values()]
    assert templates
    for template in templates:
        for op in ops(template):
            assert op.profiler is None and op.runtime is None
            assert id(op) not in seen
