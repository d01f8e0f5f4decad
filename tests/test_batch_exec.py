"""The executor (DESIGN.md §5f): column batches are the only pull path.

The acceptance property is executor-independent: every operator shape
answers the same rows and propagated summaries through every access path
as the ``index_scheme="none"`` heap oracle, EXPLAIN ANALYZE's root row
count is the result's length, and ``rows()`` is a faithful tuple view of
``batches()``. Deadlines and cancellation through the same pull path are
covered by ``tests/test_resilience.py::TestDeadlinesAndCancellation``.

Also unit-covers the :mod:`repro.query.batch` carriers and the storage
layer's ``label_count`` against the materialized objects.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import QueryError
from repro.query.batch import Batch, batches_from_rows, rows_from_batches
from repro.query.parser import parse_sql
from repro.query.tuples import QTuple
from repro.workload.generator import WorkloadConfig, build_database
from tests.test_resilience import OPERATOR_QUERIES, SP_QUERY, heap_oracle

MODES = {
    "noindex": ("none", False),
    "summary_btree": ("summary_btree", False),
    "baseline": ("baseline", False),
    "baseline_normalized": ("baseline", True),
}


@pytest.fixture(scope="module")
def db():
    database = build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=20, indexes="both",
        cell_fraction=0.0, seed=6,
    ))
    database.create_normalized_replicas("birds")
    return database


@pytest.fixture(autouse=True)
def _default_options(db):
    """Every test starts and ends with default planner options."""
    yield
    db.options.force_access = None
    db.options.index_scheme = "summary_btree"
    db.options.normalized_propagation = False


def snapshot(tuples, columns):
    """Order-sensitive observable output: values + summary displays."""
    return [
        (
            tuple(columns),
            tuple(str(v) for v in t.values),
            json.dumps(t.merged_summary_set().to_display(),
                       sort_keys=True, default=str),
        )
        for t in tuples
    ]


def result_snapshot(db, sql):
    result = db.sql(sql)
    return snapshot(result.tuples, result.columns)


def sorted_snapshot(db, sql):
    return sorted(result_snapshot(db, sql))


def use_access_path(db, mode: str) -> None:
    scheme, normalized = MODES[mode]
    db.options.index_scheme = scheme
    db.options.normalized_propagation = normalized
    db.options.force_access = "index" if scheme != "none" else None


class TestModeEquivalence:
    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_rows_and_summaries_identical(self, db, sql):
        """``rows()`` — the tuple view DML and tests iterate — yields what
        the materialized batch drain behind ``db.sql`` yields."""
        physical, _logical, _cost = db.planner.plan(parse_sql(sql))
        result = db.sql(sql)
        assert snapshot(physical.rows(), result.columns) == \
            snapshot(result.tuples, result.columns)

    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_explain_analyze_row_counts_identical(self, db, sql):
        for mode in MODES:
            use_access_path(db, mode)
            result = db.sql(sql)
            report = db.sql(f"Explain Analyze {sql}")
            root = report.execution["operators"][0]
            assert root["rows"] == len(result), (mode, root["label"])

    @pytest.mark.parametrize("mode", list(MODES))
    def test_access_paths_agree_under_batch_mode(self, db, mode):
        expected = {
            sql: heap_oracle(db, sql, run=sorted_snapshot)
            for sql in OPERATOR_QUERIES
        }
        use_access_path(db, mode)
        for sql in OPERATOR_QUERIES:
            assert sorted_snapshot(db, sql) == expected[sql], sql

    def test_dml_equivalent_in_batch_mode(self):
        database = build_database(WorkloadConfig(
            num_birds=12, annotations_per_tuple=5, indexes="both",
            cell_fraction=0.0, seed=9,
        ))
        assert database.sql(
            "Update birds Set family = 'X' Where aou_id > 10005"
        ) == 6
        assert database.sql(
            "Delete From birds Where aou_id <= 10002"
        ) == 3
        result = database.sql(
            "Select aou_id, family From birds Order By aou_id"
        )
        assert [tuple(t.values) for t in result.tuples] == [
            (10003, "Corvidae"), (10004, "Laridae"), (10005, "Turdidae"),
        ] + [(aou_id, "X") for aou_id in range(10006, 10012)]


def test_image_with_batch_exec_entry_loads(db):
    """Images and replication snapshots written while the tuple executor
    existed carry its mode switch in their pickled state."""
    db.batch_exec = False
    try:
        image = pickle.dumps(db)
    finally:
        del db.batch_exec
    loaded = pickle.loads(image)
    assert not hasattr(loaded, "batch_exec")
    assert result_snapshot(loaded, SP_QUERY) == result_snapshot(db, SP_QUERY)


class TestLabelCountFastPath:
    def test_label_count_counts_match_materialized_objects(self, db):
        storage = db.manager.storage_for("birds")
        hits = 0
        for oid in range(1, len(db.catalog.table("birds")) + 1):
            status, value = storage.label_count(
                oid, "ClassBird1", "Disease"
            )
            sset = db.manager.summary_set_for("birds", oid)
            obj = sset.get_summary_object("ClassBird1")
            expected = None if obj is None else obj.get_label_value("Disease")
            if status == "ok":
                assert value == expected
                hits += 1
            else:
                assert status == "fallback"
        assert hits > 0  # the fast path answered real rows


def _plain(values, columns=("a", "b")):
    return QTuple(list(columns), list(values), {}, {})


class TestBatchCarrier:
    def test_from_rows_hands_back_original_tuples(self):
        rows = [_plain([i, i * 2]) for i in range(5)]
        batch = Batch.from_rows(rows)
        assert len(batch) == 5
        assert batch.to_rows() is rows
        assert batch.row(3) is rows[3]
        assert batch.column_values("b") == [0, 2, 4, 6, 8]

    def test_column_resolution_matches_qtuple_get(self):
        rows = [QTuple(["r.x", "s.y"], [1, 2], {}, {})]
        batch = Batch.from_rows(rows)
        assert batch.column_values("r.x") == [1]
        assert batch.column_values("y") == [2]  # unique suffix
        with pytest.raises(QueryError):
            batch.column_values("z")
        rows = [QTuple(["r.x", "s.x"], [1, 2], {}, {})]
        with pytest.raises(QueryError):
            Batch.from_rows(rows).column_values("x")

    def test_take_subsets_rows_and_memo(self):
        rows = [_plain([i, -i]) for i in range(6)]
        batch = Batch.from_rows(rows)
        taken = batch.take([1, 3, 5])
        assert len(taken) == 3
        assert taken.column_values("a") == [1, 3, 5]
        assert taken.row(1) is rows[3]

    def test_chunking_respects_batch_rows_and_shape_changes(self):
        rows = [_plain([i, i]) for i in range(150)]
        sizes = [len(b) for b in batches_from_rows(rows)]
        assert sizes == [64, 64, 22]
        mixed = [_plain([1, 2]), QTuple(["c"], [3], {}, {}), _plain([4, 5])]
        chunks = list(batches_from_rows(mixed))
        assert [b.columns for b in chunks] == [["a", "b"], ["c"], ["a", "b"]]
        assert [r.values for r in rows_from_batches(chunks)] == \
            [[1, 2], [3], [4, 5]]

    def test_scan_row_views_are_memoized_and_share_summary_sets(self, db):
        physical, _logical, _cost = db.planner.plan(parse_sql(SP_QUERY))
        scan = physical
        while scan.children:
            scan = scan.children[0]
        batch = next(scan.batches())
        assert batch.row(0) is batch.row(0)
        taken = batch.take([0, 1])
        # The taken sub-batch reuses the already-materialized summary sets.
        assert taken.row(0).summary_sets == batch.row(0).summary_sets
