"""EXPLAIN [ANALYZE] observability: the annotated plan tree, the
per-operator attribution invariant (exclusive counters sum exactly to the
run's totals), index-probe counters, and maintenance-event counters."""

import pytest

from repro import Column, Database, ValueType
from repro.bench.queries import example4_query
from repro.core.database import QueryReport
from repro.errors import QueryError
from repro.workload.generator import WorkloadConfig, build_database
from tests.test_resilience import OPERATOR_QUERIES

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("survey checklist volunteer", "Other"),
]
DISEASE = "$.getSummaryObject('C').getLabelValue('Disease')"


def build(buffer_pages: int = 64) -> Database:
    db = Database(buffer_pages=buffer_pages)
    db.create_table("t", [
        Column("name", ValueType.TEXT), Column("blob", ValueType.TEXT),
    ])
    db.create_classifier_instance("C", ["Disease", "Other"], SEEDS)
    db.sql("Alter Table t Add Indexable C")
    for i in range(30):
        oid = db.insert("t", {"name": f"n{i:02d}", "blob": "x" * 400})
        for _ in range(i % 5):
            db.add_annotation(
                "flu virus infection outbreak " + "filler " * 20,
                table="t", oid=oid,
            )
    db.analyze("t")
    return db


@pytest.fixture(scope="module")
def workload_db():
    return build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=20, indexes="both",
        cell_fraction=0.0, seed=6,
    ))


class TestExplain:
    def test_plain_explain_plans_without_executing(self):
        db = build()
        io_before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        report = db.sql(f"Explain Select name From t r Where r.{DISEASE} >= 2")
        assert isinstance(report, QueryReport)
        assert report.analyzed is None
        assert report.execution == {}
        assert "-- logical --" not in ""  # guard against accidental run:
        # planning may touch catalog pages, but must not scan the heap
        assert db.disk.stats.delta(io_before).writes == 0
        text = str(report)
        assert "-- logical --" in text and "-- physical --" in text
        assert "-- analyze --" not in text

    def test_explain_rejects_non_select(self):
        db = build()
        with pytest.raises(Exception):
            db.sql("Explain Insert Into t (name, blob) Values ('x', 'y')")

    def test_explain_method_rejects_ddl(self):
        db = build()
        with pytest.raises(QueryError):
            db.explain("Create Table u (a int)")


class TestExplainAnalyze:
    def test_single_predicate_io_attribution_sums_to_run_totals(self):
        # The acceptance invariant: on a Figure-10-style single-predicate
        # summary query, the per-operator exclusive counters sum exactly to
        # the run's deltas (pool page accesses and disk reads/writes).
        db = build(buffer_pages=8)  # tiny pool so real disk reads happen
        db.pool.clear()  # cold cache: the first touches must hit disk
        query = f"Select name From t r Where r.{DISEASE} >= 2"
        io_before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        report = db.sql(f"Explain Analyze {query}")
        io = db.disk.stats.delta(io_before)
        pages = db.pool.hits + db.pool.misses - pages_before
        ops = report.execution["operators"]
        assert ops and all(op["next_calls"] > 0 for op in ops)
        assert sum(op["self_pages"] for op in ops) == pages
        assert sum(op["self_reads"] for op in ops) == io.reads
        assert sum(op["self_writes"] for op in ops) == io.writes
        assert io.reads > 0  # the tiny pool forced actual disk traffic
        # inclusive time of the root bounds every child's
        assert all(op["self_time_s"] >= 0 for op in ops)

    def test_analyze_results_match_plain_execution(self):
        db = build()
        query = f"Select name From t r Where r.{DISEASE} >= 2 Order By name"
        expected = db.sql(query).column("name")
        report = db.sql(f"Explain Analyze {query}")
        assert report.result.column("name") == expected
        assert report.execution["rows"] == len(expected)
        root = report.execution["operators"][0]
        assert root["rows"] == len(expected)

    def test_analyze_renders_annotated_tree(self):
        db = build()
        report = db.sql(f"Explain Analyze Select name From t r Where r.{DISEASE} >= 2")
        text = str(report)
        assert "-- analyze --" in text
        assert "rows=" in report.analyzed and "pages=" in report.analyzed
        # the annotated tree mirrors the physical plan's operators
        physical_ops = [
            line.strip().split("(")[0]
            for line in report.physical.splitlines()
        ]
        for op in physical_ops:
            assert op in report.analyzed

    def test_summary_join_attribution(self):
        db = build(buffer_pages=16)
        db.create_table("syn", [
            Column("bird", ValueType.TEXT), Column("alias", ValueType.TEXT),
        ])
        db.create_index("syn", "bird")
        for i in range(30):
            db.insert("syn", {"bird": f"n{i:02d}", "alias": f"a{i}"})
        db.analyze("syn")
        query = (
            f"Select r.name, s.alias From t r, syn s "
            f"Where r.name = s.bird And r.{DISEASE} >= 2"
        )
        io_before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        report = db.sql(f"Explain Analyze {query}")
        io = db.disk.stats.delta(io_before)
        pages = db.pool.hits + db.pool.misses - pages_before
        ops = report.execution["operators"]
        assert any("Join" in op["label"] for op in ops)
        assert sum(op["self_pages"] for op in ops) == pages
        assert sum(op["self_reads"] for op in ops) == io.reads
        assert report.execution["rows"] == len(report.result)

    @pytest.mark.parametrize("sql", OPERATOR_QUERIES + [example4_query(5)])
    def test_work_is_charged_to_the_operator_that_does_it(
        self, workload_db, sql
    ):
        # An operator that works before its first yield (the nested-loop
        # join drains its inner side) must be charged for that work, not
        # its consumer: no operator has negative self counters, and the
        # self counters still sum to the run's pool and cache deltas.
        db = workload_db
        cache = db.manager.cache
        pages_before = db.pool.hits + db.pool.misses
        hits_before, misses_before = cache.hits, cache.misses
        report = db.sql(f"Explain Analyze {sql}")
        ops = report.execution["operators"]
        for op in ops:
            for key in ("self_pages", "self_hits", "self_misses",
                        "self_cache_hits", "self_cache_misses"):
                assert op[key] >= 0, (op["label"], key, op[key])
        assert sum(op["self_pages"] for op in ops) == \
            db.pool.hits + db.pool.misses - pages_before
        assert sum(op["self_cache_hits"] for op in ops) == \
            cache.hits - hits_before
        assert sum(op["self_cache_misses"] for op in ops) == \
            cache.misses - misses_before

    def test_example4_inner_scan_traffic_stays_in_the_join(
        self, workload_db
    ):
        report = workload_db.sql(f"Explain Analyze {example4_query(5)}")
        ops = {op["label"].split("(")[0].split("[")[0]: op
               for op in report.execution["operators"]}
        assert "NestedLoopJoin" in ops
        assert ops["Project"]["self_cache_hits"] == 0
        assert ops["Project"]["self_cache_misses"] == 0
        assert ops["Project"]["self_pages"] == 0

    def test_profiler_detaches_after_run(self):
        # A profiled run must not leave instrumentation behind: the next
        # plain execution runs unwrapped (no stale attribution).
        db = build()
        query = f"Select name From t r Where r.{DISEASE} >= 2"
        db.sql(f"Explain Analyze {query}")
        result = db.sql(query)
        assert "plan_analyzed" not in result.stats


class TestCounters:
    def test_summary_index_probe_counter(self):
        db = build()
        query = f"Select name From t r Where r.{DISEASE} >= 2"
        db.options.force_access = "index"
        try:
            before = db.metrics_snapshot()
            db.sql(query)
            delta = db.metrics_snapshot()
        finally:
            db.options.force_access = None
        probes = delta["index.summary.t.C.probes"] - before[
            "index.summary.t.C.probes"
        ]
        assert probes >= 1

    def test_maintenance_event_counters(self):
        db = build()
        before = db.metrics_snapshot()
        oid = db.insert("t", {"name": "late", "blob": "y"})
        db.add_annotation("flu virus infection", table="t", oid=oid)
        db.add_annotation("flu virus outbreak", table="t", oid=oid)
        after = db.metrics_snapshot()
        assert after["maint.annotation_add"] - before.get(
            "maint.annotation_add", 0
        ) == 2
        # One storage-row event per annotation: the first creates the
        # row, the second rewrites it.
        assert after["maint.on_objects_write"] - before.get(
            "maint.on_objects_write", 0
        ) == 2

    def test_reset_metrics_zeroes_everything(self):
        db = build()
        db.sql(f"Select name From t r Where r.{DISEASE} >= 2")
        db.reset_metrics()
        snap = db.metrics_snapshot()
        assert snap["pool.pages"] == 0
        assert snap["disk.reads"] == 0
        assert snap["index.summary.t.C.probes"] == 0

    def test_explain_analyze_reports_metric_delta(self):
        db = build()
        db.options.force_access = "index"
        try:
            report = db.sql(
                f"Explain Analyze Select name From t r Where r.{DISEASE} >= 2"
            )
        finally:
            db.options.force_access = None
        assert report.execution["metrics"].get(
            "index.summary.t.C.probes", 0
        ) >= 1
