"""Regression tests for the executor-correctness bugfix sweep.

Four historical crashes, each now a typed :class:`QueryError` (or simply
correct behaviour):

* ``_SortKey.__lt__`` let a raw ``TypeError`` escape on cross-type sort
  keys instead of wrapping it like ``_compare`` does,
* external-sort spills round-tripped tuples through JSON, silently
  list-ifying tuples and crashing on ``bytes`` values,
* ``GroupOp``/``DistinctOp`` crashed with an unhandled ``TypeError`` on
  unhashable key values, and
* ``EvalContext._raw_cache`` grew without bound.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.errors import QueryError
from repro.query.ast import ColumnRef
from repro.query.batch import Batch, batches_from_rows
from repro.query.eval import EvalContext
from repro.query.physical.base import PhysicalOperator
from repro.query.physical.transforms import (
    DistinctOp,
    GroupOp,
    SortOp,
    _hashable,
    _SortKey,
)
from repro.query.tuples import QTuple
from repro.summaries.functions import SummarySet
from repro.summaries.objects import SnippetObject


class ListSource(PhysicalOperator):
    """Leaf operator over pre-built tuples (test stub)."""

    def __init__(self, rows: list[QTuple]):
        self.data = rows

    @property
    def children(self):
        return []

    def _produce_batches(self) -> Iterator[Batch]:
        return batches_from_rows(self.data)

    def label(self) -> str:
        return f"ListSource({len(self.data)})"


def _row(columns, values, summary_sets=None, provenance=None):
    return QTuple(list(columns), list(values), summary_sets or {},
                  provenance or {})


def _ctx(pool=None):
    """The minimal ExecContext surface the transform operators touch."""
    return SimpleNamespace(
        eval_ctx=EvalContext(),
        catalog=SimpleNamespace(pool=pool),
    )


class NoHash:
    __hash__ = None

    def __repr__(self):
        return "NoHash()"


# -- _SortKey ---------------------------------------------------------------


class TestSortKeyComparison:
    def test_cross_type_keys_raise_query_error(self):
        a = _SortKey([1], ["ASC"])
        b = _SortKey(["x"], ["ASC"])
        with pytest.raises(QueryError, match="cannot compare sort keys"):
            a < b

    def test_cross_type_keys_through_sort_operator(self):
        rows = [_row(["k"], [1]), _row(["k"], ["x"])]
        op = SortOp(_ctx(), ListSource(rows), [(ColumnRef(None, "k"), "ASC")])
        with pytest.raises(QueryError, match="cannot compare sort keys"):
            list(op.rows())

    def test_none_ordering_still_works(self):
        rows = [_row(["k"], [3]), _row(["k"], [None]), _row(["k"], [1])]
        op = SortOp(_ctx(), ListSource(rows), [(ColumnRef(None, "k"), "ASC")])
        assert [r.values[0] for r in op.rows()] == [None, 1, 3]


# -- spill round-trip -------------------------------------------------------


SPILL_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.tuples(st.integers(), st.text(max_size=5)),
)


class TestSpillRoundTrip:
    @given(values=st.lists(SPILL_VALUES, min_size=1, max_size=6))
    def test_values_round_trip_type_faithfully(self, values):
        columns = [f"c{i}" for i in range(len(values))]
        row = _row(columns, values, provenance={"t": ("t", 7)})
        back = QTuple.from_bytes(row.to_bytes())
        assert back.columns == row.columns
        assert back.values == row.values
        assert [type(v) for v in back.values] == [type(v) for v in values]
        assert back.provenance == row.provenance

    def test_shared_summary_set_identity_survives(self):
        sset = SummarySet({"T": SnippetObject("T", 1, snippets={1: "snippet one"})})
        row = _row(["a"], [1], summary_sets={"r": sset, "s": sset})
        back = QTuple.from_bytes(row.to_bytes())
        assert len(back.distinct_summary_sets()) == 1
        assert back.merged_summary_set().to_display() == \
            row.merged_summary_set().to_display()

    @given(
        keys=st.lists(
            st.one_of(st.none(), st.integers(0, 9)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_external_sort_matches_in_memory_sort(self, keys):
        pool = Database(buffer_pages=64).pool
        sset = SummarySet({"T": SnippetObject("T", 1, snippets={1: "shared snippet"})})
        rows = [
            _row(
                ["k", "payload"], [k, bytes([i])],
                summary_sets={"r": sset, "s": sset},
                provenance={"r": ("t", i)},
            )
            for i, k in enumerate(keys)
        ]
        sort_keys = [(ColumnRef(None, "k"), "ASC")]
        mem = list(SortOp(
            _ctx(), ListSource(rows), sort_keys, method="mem"
        ).rows())
        disk = list(SortOp(
            _ctx(pool), ListSource(rows), sort_keys, method="disk",
            run_size=4,
        ).rows())
        assert [r.values for r in disk] == [r.values for r in mem]
        assert [type(r.values[1]) for r in disk] == [bytes] * len(keys)
        assert [r.provenance for r in disk] == [r.provenance for r in mem]
        for d, m in zip(disk, mem):
            assert len(d.distinct_summary_sets()) == 1
            assert d.merged_summary_set().to_display() == \
                m.merged_summary_set().to_display()


# -- Group / Distinct on unhashable keys ------------------------------------


class TestUnhashableKeys:
    def test_group_by_list_key_groups_structurally(self):
        rows = [
            _row(["k"], [[1, 2]]),
            _row(["k"], [[1, 2]]),
            _row(["k"], [[3]]),
        ]
        op = GroupOp(_ctx(), ListSource(rows), [ColumnRef(None, "k")], [])
        out = list(op.rows())
        # Two groups, and the emitted key is the *original* value.
        assert [r.values[0] for r in out] == [[1, 2], [3]]

    def test_group_by_unhashable_raises_query_error(self):
        rows = [_row(["k"], [NoHash()])]
        op = GroupOp(_ctx(), ListSource(rows), [ColumnRef(None, "k")], [])
        with pytest.raises(QueryError, match="cannot group or deduplicate"):
            list(op.rows())

    def test_distinct_on_list_values_deduplicates(self):
        rows = [
            _row(["k"], [[1, 2]]),
            _row(["k"], [[1, 2]]),
            _row(["k"], [[2, 1]]),
        ]
        out = list(DistinctOp(_ctx(), ListSource(rows)).rows())
        assert [r.values[0] for r in out] == [[1, 2], [2, 1]]

    def test_distinct_on_unhashable_raises_query_error(self):
        rows = [_row(["k"], [NoHash()])]
        op = DistinctOp(_ctx(), ListSource(rows))
        with pytest.raises(QueryError, match="cannot group or deduplicate"):
            list(op.rows())

    def test_hashable_normalizes_containers(self):
        assert _hashable([1, [2, 3]]) == (1, (2, 3))
        assert _hashable(bytearray(b"ab")) == b"ab"
        assert _hashable({1, 2}) == frozenset({1, 2})
        assert _hashable({"b": [1], "a": 2}) == (("a", 2), ("b", (1,)))
        assert _hashable("plain") == "plain"


# -- EvalContext raw-text cache bound ---------------------------------------


class _StubAnnotations:
    def texts(self, ann_ids):
        return [f"text-{a}" for a in ann_ids]


class TestRawCacheBound:
    def test_cache_never_exceeds_bound(self):
        ctx = EvalContext(
            manager=SimpleNamespace(annotations=_StubAnnotations()),
            raw_cache_max=4,
        )
        for start in range(0, 100, 3):
            ids = list(range(start, start + 3))
            assert ctx.raw_texts(ids) == [f"text-{a}" for a in ids]
            assert len(ctx._raw_cache) <= 4
        # One oversized ask still answers correctly, then trims.
        big = list(range(200, 220))
        assert ctx.raw_texts(big) == [f"text-{a}" for a in big]
        assert len(ctx._raw_cache) <= 4
