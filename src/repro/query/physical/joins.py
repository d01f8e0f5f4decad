"""Join operators.

Every join evaluates its conditions with *pair view* semantics —
concatenated values with each side's summary sets still separate — so
summary-based join predicates ``p(r.$, s.$)`` see the pre-merge sets
(§3.2). Only after the predicates pass does :meth:`QTuple.join` merge the
summary objects with annotation dedup (§2.2).

Per §5.2, the engine implements exactly two join algorithms for the J
operator: block nested-loop and index-based — the same two the physical
data join offers here.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import PlanError, QueryError
from repro.index.derived import FLIPPED, op_bounds
from repro.query.ast import (
    AggCall,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    ObjectFunc,
    SummaryExpr,
    UdfCall,
)
from repro.query.batch import Batch, batches_from_rows, rows_from_batches
from repro.query.eval import batch_predicate_mask, evaluate
from repro.query.logical import split_conjuncts
from repro.query.physical.base import ExecContext, PhysicalOperator
from repro.query.physical.scans import (
    _make_tuple,
    orders_against,
    probe_bounds,
)
from repro.query.tuples import QTuple
from repro.storage.record import ValueType


def _pair_view(left: QTuple, right: QTuple) -> QTuple:
    """A throwaway tuple for pre-merge condition evaluation."""
    return QTuple(
        left.columns + right.columns,
        left.values + right.values,
        {**left.summary_sets, **right.summary_sets},
        {**left.provenance, **right.provenance},
    )


def _aliases(columns: list[str]) -> set[str]:
    return {c.split(".", 1)[0] for c in columns if "." in c}


def _reads(expr: Expr) -> set[str] | None:
    """The aliases ``expr`` reads, or None when one side alone cannot
    answer it: a bare column or ``$`` resolves against the pair's combined
    columns, and a UDF or aggregate is not ours to re-time."""
    out: set[str] = set()
    for node in expr.walk():
        if isinstance(node, (ColumnRef, SummaryExpr)):
            if node.alias is None:
                return None
            out.add(node.alias)
        elif isinstance(node, (UdfCall, AggCall, ObjectFunc)):
            return None
    return out


def _within(expr: Expr, aliases: set[str]) -> bool:
    reads = _reads(expr)
    return reads is not None and reads <= aliases


class NestedLoopJoin(PhysicalOperator):
    """Block nested-loop join over the inner (right) input's batches.

    The inner side is drained once and kept as the batches its child
    produced. Each outer row is then *bound* into one mask per inner batch
    over the conjuncts of ``condition`` followed by those of
    ``summary_predicate`` — per pair that is one ``AND`` chain, evaluated
    left to right until a conjunct fails. Each conjunct is, per
    :meth:`_classify`:

    * ``inner`` — reads inner aliases only: a batch mask;
    * ``outer`` — reads outer aliases only: one verdict per outer row;
    * ``bound`` — ``<outer expr> op <inner expr>`` (not ``LIKE``): the outer
      side is evaluated once per outer row and substituted as a
      :class:`Literal`, leaving an inner-only comparison for the mask
      (numpy column-vs-scalar, raw label counts for summary chains);
    * ``pair`` — everything else (bare references, mixed expressions,
      ``LIKE``): evaluated on the pre-merge pair view of each surviving
      inner row.

    Each conjunct runs only on the rows every earlier conjunct kept, and
    outer-side values are computed on first need, so the (pair, conjunct)
    evaluations performed — and therefore results and raised errors — are
    those of per-pair evaluation. Inner row views (and their summary sets)
    are built only for rows a ``pair`` conjunct or the output needs; they
    are memoized per batch, so every outer row joins the same inner set.
    """

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
        inner = [batch for batch in self.right.batches() if len(batch)]
        return batches_from_rows(
            self._joined(rows_from_batches(self.left.batches()), inner)
        )

    def _classify(self, outer: set[str], inner: set[str]) -> list[tuple]:
        outer, inner = outer - inner, inner - outer
        plan = []
        for conj in (split_conjuncts(self.condition)
                     + split_conjuncts(self.summary_predicate)):
            reads = _reads(conj)
            if reads is not None and reads <= inner:
                plan.append(("inner", conj, None))
            elif reads is not None and reads <= outer:
                plan.append(("outer", conj, None))
            elif (isinstance(conj, Comparison) and conj.op != "LIKE"
                    and _within(conj.left, outer)
                    and _within(conj.right, inner)):
                plan.append(("bound", conj, "left"))
            elif (isinstance(conj, Comparison) and conj.op != "LIKE"
                    and _within(conj.right, outer)
                    and _within(conj.left, inner)):
                plan.append(("bound", conj, "right"))
            else:
                plan.append(("pair", conj, None))
        return plan

    def _joined(
        self, left_rows: Iterator[QTuple], inner: list[Batch]
    ) -> Iterator[QTuple]:
        eval_ctx = self.ctx.eval_ctx
        plan = None
        for left_row in left_rows:
            if not inner:
                continue
            if plan is None:
                plan = self._classify(_aliases(left_row.columns),
                                      _aliases(inner[0].columns))
            #: plan position -> outer verdict / bound comparison, on first need
            bound: dict[int, object] = {}
            for batch in inner:
                mask = np.ones(len(batch), dtype=bool)
                pairs: dict[int, QTuple] = {}
                for pos, (kind, conj, outer_side) in enumerate(plan):
                    if not mask.any():
                        break
                    if kind == "inner":
                        mask = batch_predicate_mask(conj, batch, eval_ctx,
                                                    mask)
                    elif kind == "outer":
                        if pos not in bound:
                            bound[pos] = bool(evaluate(conj, left_row,
                                                       eval_ctx))
                        if not bound[pos]:
                            mask[:] = False
                    elif kind == "bound":
                        if pos not in bound:
                            bound[pos] = _bind(conj, outer_side, left_row,
                                               eval_ctx)
                        mask = batch_predicate_mask(bound[pos], batch,
                                                    eval_ctx, mask)
                    else:
                        for i in np.flatnonzero(mask):
                            i = int(i)
                            pair = pairs.get(i)
                            if pair is None:
                                pair = pairs[i] = _pair_view(
                                    left_row, batch.row(i)
                                )
                            if not evaluate(conj, pair, eval_ctx):
                                mask[i] = False
                for i in np.flatnonzero(mask):
                    yield QTuple.join(left_row, batch.row(int(i)))

    def label(self) -> str:
        parts = [str(p) for p in (self.condition, self.summary_predicate) if p]
        kind = "J-NLoop" if self.summary_predicate is not None else "NLoop"
        return f"NestedLoopJoin[{kind}]({' & '.join(parts) or 'cross'})"


def _bind(conj: Comparison, outer_side: str, left_row: QTuple,
          eval_ctx) -> Comparison:
    """``conj`` with its outer side replaced by its value on ``left_row``."""
    if outer_side == "left":
        value = evaluate(conj.left, left_row, eval_ctx)
        return Comparison(conj.op, Literal(value), conj.right)
    value = evaluate(conj.right, left_row, eval_ctx)
    return Comparison(conj.op, conj.left, Literal(value))


class IndexNestedLoopJoin(PhysicalOperator):
    """Index nested-loop join: probe the inner table's data index per outer
    row. Preserves the outer input's order — the property Rules 5/6 need.
    A key of another type than the inner column probes what the heap
    path's ``=`` would match: an integral float as its int, anything
    Python never finds equal to a column value as no match."""

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

    def _probe(self, table, vtype, key) -> list[int]:
        if not orders_against(key, vtype):
            return []
        bounds = probe_bounds(vtype, key, key, True, True)
        if bounds is None:
            return []
        lo, hi = bounds[0], bounds[1]
        if lo is not None and lo == hi:
            return table.index_lookup(self.right_column, lo)
        return list(table.index_range(self.right_column, *bounds))

    def _joined(self, left_rows: Iterator[QTuple]) -> Iterator[QTuple]:
        table = self.ctx.catalog.table(self.right_table)
        vtype = table.schema.column(self.right_column).type
        for left_row in left_rows:
            key = evaluate(self.left_key, left_row, self.ctx.eval_ctx)
            for oid in self._probe(table, vtype, key):
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

    @property
    def derived_keys(self) -> list[tuple[str, str, str]]:
        return [("summary", self.inner_table.lower(), self.instance)]

    def _produce_batches(self) -> Iterator[Batch]:
        return batches_from_rows(
            self._joined(rows_from_batches(self.left.batches()))
        )

    def _probe(self, index, key):
        """The index hits for one outer key, restated in the integer
        domain of label counts exactly as the pair loop compares them."""
        if not orders_against(key, ValueType.INT):
            # The pair loop's answer: `=` never holds, an order comparison
            # raises once it meets a label value.
            first = next(iter(index.lookup_range(self.label_name)), None) \
                if self.op != "=" else None
            if first is not None:
                raise QueryError(
                    f"cannot compare {key!r} {self.op} {first[0]!r}"
                )
            return ()
        # outer <op> inner  is  inner <FLIPPED[op]> outer
        bounds = probe_bounds(ValueType.INT,
                              *op_bounds(FLIPPED[self.op], key))
        if bounds is None:
            return ()
        return index.lookup_range(self.label_name, *bounds)

    def _joined(self, left_rows: Iterator[QTuple]) -> Iterator[QTuple]:
        index = self.ctx.derived_index("summary", self.inner_table,
                                       self.instance)
        if index is None:
            raise PlanError(
                f"no Summary-BTree on {self.inner_table}/{self.instance}"
            )
        table = self.ctx.catalog.table(self.inner_table)
        for left_row in left_rows:
            key = evaluate(self.outer_expr, left_row, self.ctx.eval_ctx)
            if key is None:
                continue
            for _count, pointer in self._probe(index, key):
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
