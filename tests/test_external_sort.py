"""The O operator's two sort implementations (memory vs external merge)
must order identically, and the external sort's spill behaviour must be
real (counted I/O) and clean (temporary runs dropped)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.query.physical.base import ExecContext
from repro.query.physical.transforms import SortOp
from repro.query.ast import ColumnRef
from repro.query.tuples import QTuple
from tests.test_executor_bugfixes import ListSource


def make_ctx() -> ExecContext:
    db = Database()
    return ExecContext(catalog=db.catalog, manager=db.manager)


def make_rows(values):
    return [QTuple(["k", "tag"], [v, f"t{i}"]) for i, v in enumerate(values)]


def sort_values(ctx, rows, method, run_size=4, direction="ASC"):
    op = SortOp(ctx, ListSource(rows),
                [(ColumnRef(None, "k"), direction)],
                method=method, run_size=run_size)
    return [t.get("k") for t in op.rows()]


class TestEquivalence:
    @given(st.lists(st.integers(-1000, 1000), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_mem_and_disk_agree(self, values):
        ctx = make_ctx()
        rows = make_rows(values)
        assert sort_values(ctx, rows, "mem") == sort_values(
            ctx, rows, "disk"
        )

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_disk_sort_is_sorted(self, values):
        ctx = make_ctx()
        assert sort_values(ctx, make_rows(values), "disk") == sorted(values)

    def test_descending(self):
        ctx = make_ctx()
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        assert sort_values(ctx, make_rows(values), "disk",
                           direction="DESC") == sorted(values, reverse=True)

    def test_nulls_sort_first(self):
        ctx = make_ctx()
        rows = make_rows([2, None, 1])
        assert sort_values(ctx, rows, "mem") == [None, 1, 2]
        assert sort_values(ctx, rows, "disk") == [None, 1, 2]


class TestSpillBehaviour:
    def test_disk_sort_performs_real_io(self):
        db = Database()
        ctx = ExecContext(catalog=db.catalog, manager=db.manager)
        rows = make_rows(list(range(50, 0, -1)))
        before = db.disk.stats.snapshot()
        out = sort_values(ctx, rows, "disk", run_size=8)
        delta = db.disk.stats.delta(before)
        assert out == list(range(1, 51))
        # Spilled runs allocate real pages (dirty pages may still sit in
        # the buffer pool, so count allocations rather than flushes).
        assert delta.allocations > 0

    def test_runs_are_dropped_after_merge(self):
        db = Database()
        ctx = ExecContext(catalog=db.catalog, manager=db.manager)
        pages_before = db.disk.num_pages
        rows = make_rows(list(range(40)))
        list(SortOp(ctx, ListSource(rows),
                    [(ColumnRef(None, "k"), "ASC")],
                    method="disk", run_size=8).rows())
        assert db.disk.num_pages == pages_before  # no leaked run pages

    def test_single_run_still_works(self):
        ctx = make_ctx()
        assert sort_values(ctx, make_rows([2, 1]), "disk",
                           run_size=100) == [1, 2]

    def test_empty_input(self):
        ctx = make_ctx()
        assert sort_values(ctx, [], "disk") == []
        assert sort_values(ctx, [], "mem") == []

    def test_unknown_method_rejected(self):
        ctx = make_ctx()
        with pytest.raises(Exception):
            SortOp(ctx, ListSource([]), [], method="quantum")


class TestEngineIntegration:
    def test_forced_disk_sort_matches_mem_in_queries(self):
        db = Database()
        db.create_table("t", [Column("v", ValueType.INT)])
        import random

        rng = random.Random(8)
        for _ in range(120):
            db.insert("t", {"v": rng.randint(0, 1000)})
        db.options.force_sort = "mem"
        via_mem = db.sql("Select v From t Order By v").column("v")
        db.options.force_sort = "disk"
        via_disk = db.sql("Select v From t Order By v").column("v")
        db.options.force_sort = None
        assert via_mem == via_disk == sorted(via_mem)

    def test_sorted_summaries_survive_disk_spill(self):
        # Tuples serialized to spill runs must round-trip their summaries.
        db = Database()
        db.create_table("t", [Column("v", ValueType.INT)])
        db.create_classifier_instance(
            "C", ["A", "B"], [("alpha apple", "A"), ("beta ball", "B")]
        )
        db.manager.link("t", "C")
        for i in range(10):
            oid = db.insert("t", {"v": 10 - i})
            for _ in range(i % 3):
                db.add_annotation("alpha apple pie", table="t", oid=oid)
        db.options.force_sort = "disk"
        db.options.mem_sort_threshold = 0
        result = db.sql("Select v From t Order By v")
        db.options.force_sort = None
        assert len(result) == 10
        # Every *annotated* row (i % 3 != 0 -> v in {9,8,6,5,3,2}) still
        # carries its classifier object after the spill round-trip.
        annotated = {9, 8, 6, 5, 3, 2}
        for i, t in enumerate(result.tuples):
            if t.get("v") in annotated:
                assert "C" in result.summaries(i)
                counts = dict(result.summaries(i)["C"])
                assert counts["A"] >= 1
