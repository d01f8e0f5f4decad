"""Cardinality and cost estimation (§5.2).

The summary-based operators deliberately reuse the heuristics of their
standard counterparts: S estimates like σ (from the per-label statistics of
Figure 6), F sizes its output like π (from AvgObjectSize), and J estimates
an equality join like ⋈ (|R|·|S| / max(NumDistinct)). Costs are expressed
in page-I/O units with a small CPU charge per processed row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.index.derived import (
    FLIPPED,
    IndexableSummaryPred,
    label_chain,
    match_indexable_summary_pred,
    op_bounds,
)
from repro.query.ast import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Not,
    Or,
    SummaryExpr,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.optimizer.statistics import TableStats

#: Cost of one page I/O (the unit).
IO_COST = 1.0
#: CPU charge per row handled by an operator.
CPU_ROW = 0.005
#: CPU charge per predicate evaluation.
CPU_EVAL = 0.005
#: Extra per-row charge for keyword predicates that may fall back to the raw
#: annotations ([16]'s snippets-vs-raw tradeoff).
RAW_SEARCH_ROW = 0.5

#: CPU cost per byte of summary payload merged when a join/group combines
#: two tuples' summary sets — what makes early F-pushdown (Rules 7/8) pay:
#: dropping unneeded objects shrinks every downstream merge.  Driven by
#: the Figure 6 AvgObjectSize statistics.
CPU_MERGE_BYTE = 0.00002
#: B-Tree descent charge (root-to-leaf, fanout is large).
INDEX_DESCENT = 3.0
DEFAULT_EQ_SELECTIVITY = 0.05
DEFAULT_RANGE_SELECTIVITY = 0.2
DEFAULT_PRED_SELECTIVITY = 0.25
KEYWORD_SELECTIVITY = 0.1

#: Cap on the cost discount a warm summary cache may claim on cached
#: summary-row reads.  Capped (rather than letting a 100% hit rate erase
#: the charge entirely) because the hit rate is a global average, cached
#: probes still pay CPU, and plan choices must not whipsaw on cache
#: warm-up: with the cap, every access path keeps a floor of half its
#: summary-read I/O charge.
SUMMARY_CACHE_DISCOUNT_CAP = 0.5
#: Minimum observed lookups before the discount kicks in — a handful of
#: early hits must not reprice every plan.
SUMMARY_CACHE_MIN_SAMPLE = 64


def summary_read_discount(cache) -> float:
    """Multiplier in [1 - CAP, 1] applied to summary-storage read I/O for
    access paths whose summary reads go through the cache.

    1.0 (no discount) when the cache has capacity 0 or has seen too few
    lookups to trust its hit rate.  The planner does not call this per
    plan: a table's published statistics carry the value read at publish.
    """
    if not cache.enabled:
        return 1.0
    total = cache.hits + cache.misses
    if total < SUMMARY_CACHE_MIN_SAMPLE:
        return 1.0
    return 1.0 - cache.hits / total * SUMMARY_CACHE_DISCOUNT_CAP


@dataclass(frozen=True)
class IndexableSummaryJoinPred:
    """A summary-join conjunct ``<outer expr> <op> inner.$...getLabelValue``
    answerable by probing the inner side's Summary-BTree per outer row
    (the J operator's index-based implementation choice, §5.2)."""

    inner_alias: str
    instance: str
    label: str
    #: comparison with the inner value on the RIGHT (outer <op> inner)
    op: str
    outer_expr: Expr


def match_summary_join_pred(
    expr: Expr, inner_alias: str
) -> IndexableSummaryJoinPred | None:
    """Recognize a summary-join conjunct whose inner side addresses one
    classifier label of ``inner_alias`` and whose other side does not
    reference ``inner_alias`` at all."""
    from repro.query.logical import aliases_in

    if not isinstance(expr, Comparison) or expr.op not in FLIPPED:
        return None
    for inner_side, outer_side, op in (
        (expr.right, expr.left, expr.op),
        (expr.left, expr.right, FLIPPED[expr.op]),
    ):
        chain = label_chain(inner_side)
        if chain is not None and inner_side.alias == inner_alias \
                and inner_alias not in aliases_in(outer_side):
            return IndexableSummaryJoinPred(inner_alias, *chain, op,
                                            outer_side)
    return None


@dataclass(frozen=True)
class IndexableDataPred:
    """A ``column <op> constant`` conjunct with a matching data index."""

    alias: str
    column: str
    op: str
    constant: object

    def bounds(self) -> tuple[object | None, object | None, bool, bool]:
        return op_bounds(self.op, self.constant)


def match_indexable_data_pred(expr: Expr) -> IndexableDataPred | None:
    if not isinstance(expr, Comparison) or expr.op not in FLIPPED:
        return None
    for col_side, const_side, op in (
        (expr.left, expr.right, expr.op),
        (expr.right, expr.left, FLIPPED[expr.op]),
    ):
        if isinstance(col_side, ColumnRef) and isinstance(const_side, Literal):
            return IndexableDataPred(
                alias=col_side.alias or "",
                column=col_side.column,
                op=op,
                constant=const_side.value,
            )
    return None


class Estimator:
    """Selectivity estimation over the statistics a plan prices with:
    ``stats(table)`` is the table's published :class:`TableStats`."""

    def __init__(self, stats: Callable[[str], TableStats],
                 alias_tables: dict[str, str]):
        self.stats = stats
        self.alias_tables = alias_tables

    def _table_of(self, alias: str) -> str | None:
        return self.alias_tables.get(alias)

    def selectivity(self, expr: Expr | None, alias: str = "") -> float:
        """Estimated fraction of rows satisfying ``expr``; ``alias`` names
        the table of references that carry none."""
        if expr is None:
            return 1.0
        if isinstance(expr, And):
            out = 1.0
            for item in expr.items:
                out *= self.selectivity(item, alias)
            return out
        if isinstance(expr, Or):
            out = 1.0
            for item in expr.items:
                out *= 1.0 - self.selectivity(item, alias)
            return 1.0 - out
        if isinstance(expr, Not):
            return 1.0 - self.selectivity(expr.item, alias)
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr, alias)
        if isinstance(expr, SummaryExpr):
            # A bare boolean summary function, e.g. containsUnion(...).
            return KEYWORD_SELECTIVITY
        return DEFAULT_PRED_SELECTIVITY

    def _comparison_selectivity(self, expr: Comparison, alias: str) -> float:
        summary_pred = match_indexable_summary_pred(expr)
        if summary_pred is not None:
            return self._label_selectivity(summary_pred, alias)
        if expr.op == "LIKE":
            return KEYWORD_SELECTIVITY
        data_pred = match_indexable_data_pred(expr)
        if data_pred is not None:
            return self._column_selectivity(data_pred, alias)
        if expr.op == "=":
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def _label_selectivity(self, pred: IndexableSummaryPred,
                           alias: str) -> float:
        """S reuses σ's heuristics over the Figure 6 label statistics."""
        table = self._table_of(pred.alias or alias)
        if table is None:
            return DEFAULT_RANGE_SELECTIVITY
        label_stats = self.stats(table).label_stats(pred.instance, pred.label)
        if label_stats is None or label_stats.ndistinct == 0:
            return DEFAULT_RANGE_SELECTIVITY
        if pred.op == "=":
            return label_stats.histogram.selectivity_eq(
                float(pred.constant), label_stats.ndistinct
            )
        lo, hi, *_ = pred.bounds()
        return label_stats.histogram.selectivity_range(
            None if lo is None else float(lo),
            None if hi is None else float(hi),
        )

    def _column_selectivity(self, pred: IndexableDataPred,
                            alias: str) -> float:
        table = self._table_of(pred.alias or alias)
        if table is None:
            return DEFAULT_EQ_SELECTIVITY
        col_stats = self.stats(table).columns.get(pred.column)
        if col_stats is None or col_stats.ndistinct == 0:
            return DEFAULT_EQ_SELECTIVITY
        if pred.op == "=":
            return 1.0 / col_stats.ndistinct
        if col_stats.histogram is not None and isinstance(
            pred.constant, (int, float)
        ):
            lo, hi, *_ = pred.bounds()
            return col_stats.histogram.selectivity_range(
                None if lo is None else float(lo),
                None if hi is None else float(hi),
            )
        return DEFAULT_RANGE_SELECTIVITY

    def join_selectivity(
        self, condition: Expr | None, left_rows: float, right_rows: float
    ) -> float:
        """⋈/J equality heuristic: 1 / max(NumDistinct of the two sides)."""
        if condition is None:
            return 1.0
        if isinstance(condition, And):
            out = 1.0
            for item in condition.items:
                out *= self.join_selectivity(item, left_rows, right_rows)
            return out
        if isinstance(condition, Comparison) and condition.op == "=":
            ndv = []
            for side in (condition.left, condition.right):
                if isinstance(side, ColumnRef) and side.alias:
                    table = self._table_of(side.alias)
                    if table:
                        cs = self.stats(table).columns.get(side.column)
                        if cs:
                            ndv.append(max(cs.ndistinct, 1))
                summary = side if isinstance(side, SummaryExpr) else None
                if summary is not None and summary.instance_name and summary.label:
                    table = self._table_of(summary.alias or "")
                    if table:
                        ls = self.stats(table).label_stats(
                            summary.instance_name, summary.label
                        )
                        if ls:
                            ndv.append(max(ls.ndistinct, 1))
            if ndv:
                return 1.0 / max(ndv)
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_PRED_SELECTIVITY

    def needs_raw_search(self, expr: Expr | None) -> bool:
        """Does evaluating ``expr`` potentially touch raw annotations?"""
        if expr is None:
            return False
        for node in expr.walk():
            if isinstance(node, SummaryExpr):
                for call in node.chain:
                    if call.name in ("containsSingle", "containsUnion"):
                        return True
        return False
