"""Join operators.

Both joins evaluate their conditions on a *pair view* — concatenated values
with each side's summary sets still separate — so summary-based join
predicates ``p(r.$, s.$)`` see the pre-merge sets (§3.2). Only after the
predicates pass does :meth:`QTuple.join` merge the summary objects with
annotation dedup (§2.2).

Per §5.2, the engine implements exactly two join algorithms for the J
operator: block nested-loop and index-based — the same two the physical
data join offers here.
"""

from __future__ import annotations

from typing import Iterator

from repro.query.ast import Expr
from repro.query.batch import Batch, batches_from_rows, rows_from_batches
from repro.query.eval import evaluate
from repro.query.physical.base import ExecContext, PhysicalOperator
from repro.query.tuples import QTuple


def _pair_view(left: QTuple, right: QTuple) -> QTuple:
    """A throwaway tuple for pre-merge condition evaluation."""
    return QTuple(
        left.columns + right.columns,
        left.values + right.values,
        {**left.summary_sets, **right.summary_sets},
        {**left.provenance, **right.provenance},
    )


class NestedLoopJoin(PhysicalOperator):
    """Block nested-loop join; the inner (right) input is materialized."""

    def __init__(
        self,
        ctx: ExecContext,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: Expr | None = None,
        summary_predicate: Expr | None = None,
    ):
        self.ctx = ctx
        self.left = left
        self.right = right
        self.condition = condition
        self.summary_predicate = summary_predicate

    @property
    def children(self):
        return [self.left, self.right]

    def _produce_batches(self) -> Iterator[Batch]:
        # Pairwise condition evaluation is row-at-a-time; the batch win is
        # upstream (vectorized scans/filters feeding both sides).
        return batches_from_rows(self._joined(
            rows_from_batches(self.left.batches()),
            list(rows_from_batches(self.right.batches())),
        ))

    def _joined(
        self, left_rows: Iterator[QTuple], inner: list[QTuple]
    ) -> Iterator[QTuple]:
        for left_row in left_rows:
            for right_row in inner:
                pair = _pair_view(left_row, right_row)
                if self.condition is not None and not evaluate(
                    self.condition, pair, self.ctx.eval_ctx
                ):
                    continue
                if self.summary_predicate is not None and not evaluate(
                    self.summary_predicate, pair, self.ctx.eval_ctx
                ):
                    continue
                yield QTuple.join(left_row, right_row)

    def label(self) -> str:
        parts = [str(p) for p in (self.condition, self.summary_predicate) if p]
        kind = "J-NLoop" if self.summary_predicate is not None else "NLoop"
        return f"NestedLoopJoin[{kind}]({' & '.join(parts) or 'cross'})"


class IndexNestedLoopJoin(PhysicalOperator):
    """Index nested-loop join: probe the inner table's data index per outer
    row. Preserves the outer input's order — the property Rules 5/6 need."""

    def __init__(
        self,
        ctx: ExecContext,
        left: PhysicalOperator,
        right_table: str,
        right_alias: str,
        right_column: str,
        left_key: Expr,
        condition: Expr | None = None,
        summary_predicate: Expr | None = None,
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        self.ctx = ctx
        self.left = left
        self.right_table = right_table
        self.right_alias = right_alias
        self.right_column = right_column
        self.left_key = left_key
        self.condition = condition
        self.summary_predicate = summary_predicate
        self.with_summaries = with_summaries
        self.retained = retained

    @property
    def children(self):
        return [self.left]

    def _produce_batches(self) -> Iterator[Batch]:
        return batches_from_rows(
            self._joined(rows_from_batches(self.left.batches()))
        )

    def _joined(self, left_rows: Iterator[QTuple]) -> Iterator[QTuple]:
        from repro.query.physical.scans import _make_tuple

        table = self.ctx.catalog.table(self.right_table)
        for left_row in left_rows:
            key = evaluate(self.left_key, left_row, self.ctx.eval_ctx)
            if key is None:
                continue
            for oid in table.index_lookup(self.right_column, key):
                right_row = _make_tuple(
                    self.ctx, self.right_table, self.right_alias, oid,
                    table.read(oid), self.with_summaries, self.retained,
                )
                pair = _pair_view(left_row, right_row)
                if self.condition is not None and not evaluate(
                    self.condition, pair, self.ctx.eval_ctx
                ):
                    continue
                if self.summary_predicate is not None and not evaluate(
                    self.summary_predicate, pair, self.ctx.eval_ctx
                ):
                    continue
                yield QTuple.join(left_row, right_row)

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.left_key} = "
            f"{self.right_alias}.{self.right_column})"
        )


class SummaryIndexNestedLoopJoin(PhysicalOperator):
    """Index-based implementation of the summary join J (§5.2).

    For each outer row, the outer side of one summary-join conjunct
    (``outer_expr <op> inner.$.getSummaryObject(I).getLabelValue(L)``) is
    evaluated and the inner relation's Summary-BTree on instance ``I`` is
    probed for label ``L`` — an equality probe for ``=`` or a range probe
    for inequalities — instead of materializing the inner side and
    evaluating the predicate on every pair.  Residual data/summary
    predicates are checked on the pre-merge pair view, then the pair's
    summary objects merge exactly as in the block nested-loop J.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: PhysicalOperator,
        inner_table: str,
        inner_alias: str,
        instance: str,
        label: str,
        op: str,
        outer_expr: Expr,
        condition: Expr | None = None,
        summary_predicate: Expr | None = None,
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        self.ctx = ctx
        self.left = left
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.instance = instance
        self.label_name = label
        self.op = op
        self.outer_expr = outer_expr
        self.condition = condition
        self.summary_predicate = summary_predicate
        self.with_summaries = with_summaries
        self.retained = retained

    @property
    def children(self):
        return [self.left]

    def _bounds(self, key: int) -> tuple:
        """(lo, hi, lo_inclusive, hi_inclusive) for ``key <op> inner``."""
        if self.op == "=":
            return key, key, True, True
        if self.op == "<":   # outer < inner  ->  inner > key
            return key, None, False, True
        if self.op == "<=":
            return key, None, True, True
        if self.op == ">":   # outer > inner  ->  inner < key
            return None, key, True, False
        return None, key, True, True  # ">="

    def _produce_batches(self) -> Iterator[Batch]:
        return batches_from_rows(
            self._joined(rows_from_batches(self.left.batches()))
        )

    def _joined(self, left_rows: Iterator[QTuple]) -> Iterator[QTuple]:
        from repro.query.physical.scans import _make_tuple

        index = self.ctx.summary_index(self.inner_table, self.instance)
        if index is None:
            from repro.errors import PlanError

            raise PlanError(
                f"no Summary-BTree on {self.inner_table}/{self.instance}"
            )
        table = self.ctx.catalog.table(self.inner_table)
        for left_row in left_rows:
            key = evaluate(self.outer_expr, left_row, self.ctx.eval_ctx)
            if key is None or not isinstance(key, int):
                continue
            lo, hi, lo_inc, hi_inc = self._bounds(key)
            for _count, pointer in index.lookup_range(
                self.label_name, lo, hi, lo_inc, hi_inc
            ):
                values = table.read(pointer.oid)
                right_row = _make_tuple(
                    self.ctx, self.inner_table, self.inner_alias,
                    pointer.oid, values, self.with_summaries, self.retained,
                )
                pair = _pair_view(left_row, right_row)
                if self.condition is not None and not evaluate(
                    self.condition, pair, self.ctx.eval_ctx
                ):
                    continue
                if self.summary_predicate is not None and not evaluate(
                    self.summary_predicate, pair, self.ctx.eval_ctx
                ):
                    continue
                yield QTuple.join(left_row, right_row)

    def label(self) -> str:
        return (
            f"SummaryIndexNLJoin[J-Index]({self.outer_expr} {self.op} "
            f"{self.inner_alias}/{self.instance}.{self.label_name})"
        )
