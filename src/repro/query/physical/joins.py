"""Join operators.

Every join evaluates its conditions with *pair view* semantics —
concatenated values with each side's summary sets still separate — so
summary-based join predicates ``p(r.$, s.$)`` see the pre-merge sets
(§3.2). Only after the predicates pass does :meth:`QTuple.join` merge the
summary objects with annotation dedup (§2.2).

Per §5.2, the engine implements exactly two join algorithms for the J
operator: block nested-loop and index-based — the same two the physical
data join offers here.  Both run one pair loop,
:meth:`NestedLoopJoin._joined`: the block join hands every outer row the
inner child's batches, drained once; an index join hands each outer row
the scan batches of its index hits, read with one heap pass and one
summary-cache pass per batch, and probed once per distinct key of an
outer batch when the probe is an equality.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, groupby
from typing import Callable, Iterator

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
from repro.query.eval import CompiledPredicate, _numpy_exact, evaluate
from repro.query.logical import split_conjuncts
from repro.query.physical.base import ExecContext, PhysicalOperator
from repro.query.physical.scans import (
    _scan_batch,
    _scan_columns,
    orders_against,
    probe_bounds,
)
from repro.query.tuples import QTuple
from repro.resilience.context import BATCH_ROWS
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

    * ``inner`` — reads inner aliases only: a batch mask, compiled once
      per plan;
    * ``outer`` — reads outer aliases only: one verdict per outer row;
    * ``bound`` — ``<outer expr> op <inner expr>`` (not ``LIKE``): the outer
      side is evaluated once per outer row and substituted as a
      :class:`Literal`, leaving an inner-only comparison for the mask
      (numpy column-vs-scalar, cached label counts for summary chains);
    * ``pair`` — everything else (bare references, mixed expressions,
      ``LIKE``): evaluated on the pre-merge pair view of each surviving
      inner row.

    In the block join, a bound ``=`` against a bare inner data column that
    only outer-only conjuncts precede is the *key*: the inner column is
    indexed once per run (:func:`_key_index`), and each outer row visits
    only its key's rows; a key the index cannot compare exactly takes
    the bound path.

    Each conjunct runs only on the rows every earlier conjunct kept, and
    outer-side values are computed on first need, so the (pair, conjunct)
    evaluations performed — and therefore results and raised errors — are
    those of per-pair evaluation. Inner row views (and their summary sets)
    are built only for rows a ``pair`` conjunct or the output needs, one
    batch ask at a time; they are memoized per batch, so every outer row
    joins the same inner set.  An inner batch memoizes its summary chains'
    values too, so an inner row's chain is walked once for all outer rows.
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
        self.conjuncts = [
            (conj, CompiledPredicate(conj)) for conj in
            split_conjuncts(condition) + split_conjuncts(summary_predicate)
        ]

    @property
    def children(self):
        return [self.left, self.right]

    def _produce_batches(self) -> Iterator[Batch]:
        inner = [batch for batch in self.right.batches() if len(batch)]
        return batches_from_rows(self._joined(
            rows_from_batches(self.left.batches()), lambda _row: inner,
            keyed=True,
        ))

    def _classify(self, outer: set[str], inner: set[str]) -> list[tuple]:
        outer, inner = outer - inner, inner - outer
        plan = []
        for conj, compiled in self.conjuncts:
            reads = _reads(conj)
            if reads is not None and reads <= inner:
                plan.append(("inner", compiled, None))
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
        self, left_rows: Iterator[QTuple],
        inner_for: Callable[[QTuple], list[Batch]], keyed: bool = False,
    ) -> Iterator[QTuple]:
        """The pair loop: each outer row against the non-empty inner
        batches ``inner_for`` gives it.  ``keyed`` says they are the same
        batches for every outer row, so a *key* conjunct may index them."""
        eval_ctx = self.ctx.eval_ctx
        plan = key = index = None
        for left_row in left_rows:
            inner = inner_for(left_row)
            if not inner:
                continue
            if plan is None:
                plan = self._classify(_aliases(left_row.columns),
                                      _aliases(inner[0].columns))
                key = _key_of(plan, inner[0].columns) if keyed else None
            #: plan position -> outer verdict / bound comparison, on first need
            bound: dict[int, object] = {}
            visits, start = [(batch, None) for batch in inner], 0
            if key is not None:
                pos, outer, column = key
                # Only outer-only conjuncts come first: the key's outer
                # side is needed iff they all hold.
                if not all(evaluate(plan[p][1], left_row, eval_ctx)
                           for p in range(pos)):
                    continue
                value = evaluate(outer, left_row, eval_ctx)
                if index is None:
                    index = _key_index(inner, column)
                hits = _key_hits(index, value)
                start = pos  # the bound path, unless the array answers
                if hits is not None:
                    visits = [(inner[b], rows) for b, rows in hits]
                    start = pos + 1
            for batch, rows in visits:
                if rows is None:
                    mask = np.ones(len(batch), dtype=bool)
                else:
                    mask = np.zeros(len(batch), dtype=bool)
                    mask[rows] = True
                for pos, (kind, conj, outer_side) in enumerate(plan[start:],
                                                               start):
                    if not mask.any():
                        break
                    if kind == "inner":
                        mask = conj.mask(batch, eval_ctx, mask)
                    elif kind == "outer":
                        if pos not in bound:
                            bound[pos] = bool(evaluate(conj, left_row,
                                                       eval_ctx))
                        if not bound[pos]:
                            mask[:] = False
                    elif kind == "bound":
                        if pos not in bound:
                            bound[pos] = CompiledPredicate(_bind(
                                conj, outer_side, left_row, eval_ctx))
                        mask = bound[pos].mask(batch, eval_ctx, mask)
                    else:
                        active = np.flatnonzero(mask).tolist()
                        for i, right_row in zip(active,
                                                batch.rows_at(active)):
                            pair = _pair_view(left_row, right_row)
                            if not evaluate(conj, pair, eval_ctx):
                                mask[i] = False
                for right_row in batch.rows_at(np.flatnonzero(mask).tolist()):
                    yield QTuple.join(left_row, right_row)

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


def _key_of(plan: list[tuple], columns: list[str]) -> tuple | None:
    """``(position, outer expr, inner column)`` of the *key* conjunct: the
    first conjunct after outer-only ones alone, when it is an ``=`` bound
    against a bare inner data column."""
    for pos, (kind, conj, outer_side) in enumerate(plan):
        if kind == "bound" and conj.op == "=":
            outer, inner = (conj.left, conj.right) if outer_side == "left" \
                else (conj.right, conj.left)
            if isinstance(inner, ColumnRef) and str(inner) in columns:
                return pos, outer, str(inner)
        if kind != "outer":
            return None
    return None


def _key_index(inner: list[Batch], column: str) -> tuple:
    """``(values, array, offsets)``: ``column`` over every inner batch, in
    order, its numpy array (None when numpy cannot hold it) and each
    batch's first position in them."""
    values = [v for batch in inner for v in batch.column_values(column)]
    try:
        array = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        array = None
    return values, array, list(accumulate(map(len, inner), initial=0))


def _key_hits(index: tuple, value) -> list | None:
    """``[(batch position, rows)]`` of the rows of a :func:`_key_index`
    equal to ``value``, in inner order; None unless numpy compares
    ``value`` with the column as Python does (:func:`_numpy_exact`)."""
    values, array, offsets = index
    if array is None or not isinstance(value, (int, float)) \
            or not _numpy_exact(values, array, value):
        return None
    hits = np.flatnonzero(array == value).tolist()
    return [(b, [g - offsets[b] for g in group]) for b, group
            in groupby(hits, lambda g: bisect_right(offsets, g) - 1)]


class _IndexJoin(NestedLoopJoin):
    """A nested-loop join whose inner batches come from an index probe per
    outer row (per distinct key of an outer batch, for an equality probe)
    instead of a child drained once.

    The key expression is evaluated on each outer row (a NULL key matches
    nothing); :meth:`_prober`'s probe turns it into the inner OIDs the
    probed conjunct admits, in index order.  Those rows are read with one
    :meth:`~repro.catalog.table.Table.read_many` per batch of at most
    ``BATCH_ROWS``, as lazy-summary scan batches whose summary sets arrive
    with one cache pass, and the residual conjuncts run through the block
    join's pair loop.  The outer input's order is preserved — the property
    Rules 5/6 need.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: PhysicalOperator,
        table: str,
        alias: str,
        key: Expr,
        condition: Expr | None = None,
        summary_predicate: Expr | None = None,
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        super().__init__(ctx, left, None, condition, summary_predicate)
        self.table = table
        self.alias = alias
        self.key = key
        self.with_summaries = with_summaries
        self.retained = retained

    @property
    def children(self):
        return [self.left]

    #: Whether the probe admits only inner rows equal to the key.
    equality = True

    def _prober(self, table) -> Callable[[object], list[int]]:
        """``key -> inner OIDs`` for one run over ``table``."""
        raise NotImplementedError

    def _produce_batches(self) -> Iterator[Batch]:
        ctx = self.ctx
        table = ctx.catalog.table(self.table)
        columns = _scan_columns(ctx, self.table, self.alias)
        probe = self._prober(table)

        #: An equality probe's distinct keys hit disjoint rows: probe and
        #: read each once per outer batch, keyed by type too (True/1,
        #: 2/2.0).  Keys equal under ``==`` (-0.0/0.0) must probe alike.
        memo: dict = {}

        def outer_rows() -> Iterator[QTuple]:
            for batch in self.left.batches():
                memo.clear()
                yield from rows_from_batches((batch,))

        def inner_for(left_row: QTuple) -> list[Batch]:
            key = evaluate(self.key, left_row, ctx.eval_ctx)
            if not self.equality or not isinstance(key, (int, float, str)):
                return read(key)
            found = memo.get((type(key), key))
            if found is None:
                found = memo[type(key), key] = read(key)
            return found

        def read(key) -> list[Batch]:
            oids = [] if key is None else probe(key)
            batches = []
            for start in range(0, len(oids), BATCH_ROWS):
                chunk = oids[start:start + BATCH_ROWS]
                cols = [list(col) for col in zip(*table.read_many(chunk))]
                batches.append(_scan_batch(
                    ctx, self.table, self.alias, columns, chunk, cols,
                    self.with_summaries, self.retained,
                ))
            return batches

        return batches_from_rows(self._joined(outer_rows(), inner_for))


class IndexNestedLoopJoin(_IndexJoin):
    """Index nested-loop join: probe the inner table's data index per outer
    row. A key of another type than the inner column probes what the heap
    path's ``=`` would match: an integral float as its int, anything
    Python never finds equal to a column value as no match."""

    def __init__(self, ctx: ExecContext, left: PhysicalOperator,
                 right_table: str, right_alias: str, right_column: str,
                 left_key: Expr, **residuals):
        super().__init__(ctx, left, right_table, right_alias, left_key,
                         **residuals)
        self.column = right_column

    def _prober(self, table) -> Callable[[object], list[int]]:
        vtype = table.schema.column(self.column).type

        def probe(key) -> list[int]:
            if not orders_against(key, vtype):
                return []
            bounds = probe_bounds(vtype, key, key, True, True)
            if bounds is None:
                return []
            lo, hi = bounds[0], bounds[1]
            # A FLOAT zero probes [-0.0, 0.0]: both zeros are `=` to it.
            if lo is not None and lo == hi and not (
                    vtype is ValueType.FLOAT and lo == 0):
                return table.index_lookup(self.column, lo)
            return list(table.index_range(self.column, *bounds))

        return probe

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.key} = "
            f"{self.alias}.{self.column})"
        )


class SummaryIndexNestedLoopJoin(_IndexJoin):
    """Index-based implementation of the summary join J (§5.2).

    For each outer row, the outer side of one summary-join conjunct
    (``outer_expr <op> inner.$.getSummaryObject(I).getLabelValue(L)``) is
    evaluated and the inner relation's Summary-BTree on instance ``I`` is
    probed for label ``L`` — an equality probe for ``=`` or a range probe
    for inequalities — instead of evaluating the predicate on every pair.
    """

    def __init__(self, ctx: ExecContext, left: PhysicalOperator,
                 inner_table: str, inner_alias: str, instance: str,
                 label: str, op: str, outer_expr: Expr, **residuals):
        super().__init__(ctx, left, inner_table, inner_alias, outer_expr,
                         **residuals)
        self.instance = instance
        self.label_name = label
        self.op = op

    @property
    def equality(self) -> bool:
        return self.op == "="

    @property
    def derived_keys(self) -> list[tuple[str, str, str]]:
        return [("summary", self.table.lower(), self.instance)]

    def _prober(self, table) -> Callable[[object], list[int]]:
        index = self.ctx.derived_index("summary", self.table, self.instance)
        if index is None:
            raise PlanError(
                f"no Summary-BTree on {self.table}/{self.instance}"
            )

        def probe(key) -> list[int]:
            """The index hits for one outer key, restated in the integer
            domain of label counts exactly as the pair loop compares
            them."""
            if not orders_against(key, ValueType.INT):
                # The pair loop's answer: `=` never holds, an order
                # comparison raises once it meets a label value.
                first = next(iter(index.lookup_range(self.label_name)),
                             None) if self.op != "=" else None
                if first is not None:
                    raise QueryError(
                        f"cannot compare {key!r} {self.op} {first[0]!r}"
                    )
                return []
            # outer <op> inner  is  inner <FLIPPED[op]> outer
            bounds = probe_bounds(ValueType.INT,
                                  *op_bounds(FLIPPED[self.op], key))
            if bounds is None:
                return []
            return [pointer.oid for _count, pointer
                    in index.lookup_range(self.label_name, *bounds)]

        return probe

    def label(self) -> str:
        return (
            f"SummaryIndexNLJoin[J-Index]({self.key} {self.op} "
            f"{self.alias}/{self.instance}.{self.label_name})"
        )
