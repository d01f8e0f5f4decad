"""Transform operators: σ, S, F, π, sort/O, group, distinct, limit."""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.errors import QueryError
from repro.query.ast import AggCall, ColumnRef, Expr, Literal, SelectItem, Star
from repro.query.batch import Batch, batches_from_rows, rows_from_batches
from repro.query.eval import (
    batch_predicate_mask,
    evaluate,
    evaluate_object_predicate,
)
from repro.query.physical.base import ExecContext, PhysicalOperator
from repro.query.tuples import QTuple
from repro.storage.heapfile import HeapFile


def _hashable(value: object) -> object:
    """A hashable stand-in for a grouping/distinct key value.

    Values that already hash pass through untouched; the containers a
    spill or UDF can legitimately produce are converted structurally.
    Anything else gets a clear QueryError instead of the bare TypeError
    ``dict`` raises.
    """
    try:
        hash(value)
        return value
    except TypeError:
        pass
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, set):
        return frozenset(_hashable(v) for v in value)
    if isinstance(value, dict):
        try:
            return tuple(sorted(
                (k, _hashable(v)) for k, v in value.items()
            ))
        except TypeError:
            pass
    raise QueryError(
        f"cannot group or deduplicate on unhashable value {value!r} "
        f"of type {type(value).__name__}"
    )


class FilterOp(PhysicalOperator):
    """Standard data selection σ (also evaluates summary predicates when the
    optimizer chose not to use an index — the S operator's generic form)."""

    def __init__(self, ctx: ExecContext, child: PhysicalOperator, predicate: Expr):
        self.ctx = ctx
        self.child = child
        self.predicate = predicate

    @property
    def children(self):
        return [self.child]

    def _produce_batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            mask = batch_predicate_mask(
                self.predicate, batch, self.ctx.eval_ctx
            )
            if mask.all():
                yield batch
            elif mask.any():
                yield batch.take(mask.nonzero()[0])

    def label(self) -> str:
        return f"Filter[σ]({self.predicate})"


class SummarySelectOp(FilterOp):
    """The S operator: tuples pass iff their summaries satisfy p; summary
    objects propagate unchanged (§3.2)."""

    def label(self) -> str:
        return f"SummarySelect[S]({self.predicate})"


class SummaryFilterOp(PhysicalOperator):
    """The F operator: every tuple passes, carrying only the summary objects
    that satisfy the per-object predicate (§3.2)."""

    def __init__(self, ctx: ExecContext, child: PhysicalOperator, predicate: Expr):
        self.ctx = ctx
        self.child = child
        self.predicate = predicate

    @property
    def children(self):
        return [self.child]

    def _produce_batches(self) -> Iterator[Batch]:
        # F rewrites every row's summary sets: inherently row-at-a-time.
        return batches_from_rows(
            self._filtered(rows_from_batches(self.child.batches()))
        )

    def _filtered(self, rows: Iterator[QTuple]) -> Iterator[QTuple]:
        for row in rows:
            filtered_by_id: dict[int, object] = {}
            new_sets = {}
            for alias, sset in row.summary_sets.items():
                if id(sset) not in filtered_by_id:
                    filtered_by_id[id(sset)] = sset.filter(
                        lambda obj: evaluate_object_predicate(
                            self.predicate, obj, self.ctx.eval_ctx
                        )
                    )
                new_sets[alias] = filtered_by_id[id(sset)]
            yield QTuple(row.columns, row.values, new_sets, row.provenance)

    def label(self) -> str:
        return f"SummaryFilter[F]({self.predicate})"


class ProjectOp(PhysicalOperator):
    """Projection π over the final select list.

    Annotation-effect elimination already happened at the scans (before any
    merge, per [22] Theorems 1–2); this operator shapes the output columns.
    """

    def __init__(self, ctx: ExecContext, child: PhysicalOperator, items: list):
        self.ctx = ctx
        self.child = child
        self.items = items

    @property
    def children(self):
        return [self.child]

    def _produce_batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            n = len(batch)
            columns: list[str] = []
            cols: list[list[object]] = []
            for item in self.items:
                if isinstance(item, Star):
                    for j, column in enumerate(batch.columns):
                        alias = column.split(".", 1)[0]
                        if item.alias is None or alias == item.alias:
                            columns.append(column)
                            cols.append(batch.cols[j])
                    continue
                assert isinstance(item, SelectItem)
                columns.append(item.alias or str(item.expr))
                cols.append(self._column(item.expr, batch, n))
            yield Batch(columns, cols, batch.summaries, batch.provenance)

    def _column(self, expr: Expr, batch: Batch, n: int) -> list[object]:
        """One select item's output column; whole-column moves for the
        shapes that allow it, per-row evaluation otherwise."""
        if isinstance(expr, AggCall):
            # Aggregates were computed by the Group operator below us.
            return batch.column_values(str(expr))
        if isinstance(expr, ColumnRef):
            name = f"{expr.alias}.{expr.column}" if expr.alias \
                else expr.column
            return batch.column_values(name)
        if isinstance(expr, Literal):
            return [expr.value] * n
        ctx = self.ctx.eval_ctx
        return [evaluate(expr, batch.row(i), ctx) for i in range(n)]

    def label(self) -> str:
        rendered = ", ".join(
            "*" if isinstance(i, Star) else str(i.expr) for i in self.items
        )
        return f"Project[π]({rendered})"


class SortOp(PhysicalOperator):
    """Sort — the O operator when keys are summary expressions (§3.2).

    ``method='mem'`` materializes and sorts in memory; ``method='disk'``
    runs an external merge sort that spills sorted runs to temporary heap
    pages (costing real, counted I/O) and k-way-merges them.
    """

    def __init__(
        self,
        ctx: ExecContext,
        child: PhysicalOperator,
        keys: list[tuple[Expr, str]],
        method: str = "mem",
        run_size: int = 512,
    ):
        if method not in ("mem", "disk"):
            raise QueryError(f"unknown sort method {method!r}")
        self.ctx = ctx
        self.child = child
        self.keys = keys
        self.method = method
        self.run_size = run_size

    @property
    def children(self):
        return [self.child]

    def _key(self, row: QTuple) -> "_SortKey":
        """Evaluate the sort keys once for one tuple (no caching by object
        identity — ids are recycled across the external merge's streams)."""
        values = [evaluate(expr, row, self.ctx.eval_ctx)
                  for expr, _ in self.keys]
        return _SortKey(values, [d for _, d in self.keys])

    def _produce_batches(self) -> Iterator[Batch]:
        # Sorting is a full pipeline breaker: run the row comparator over
        # the child's batches and re-chunk the output.
        return batches_from_rows(
            self._sorted(rows_from_batches(self.child.batches()))
        )

    def _sorted(self, rows: Iterator[QTuple]) -> Iterator[QTuple]:
        if self.method == "mem":
            yield from sorted(rows, key=self._key)
            return
        yield from self._external_sort(rows)

    def _external_sort(self, rows: Iterator[QTuple]) -> Iterator[QTuple]:
        sort_key = self._key
        pool = self.ctx.catalog.pool
        runs: list[HeapFile] = []
        buffer: list[QTuple] = []

        def spill():
            if not buffer:
                return
            buffer.sort(key=sort_key)
            run = HeapFile(pool)
            for row in buffer:
                run.insert(row.to_bytes())
            runs.append(run)
            buffer.clear()

        for row in rows:
            buffer.append(row)
            if len(buffer) >= self.run_size:
                spill()
        spill()

        streams = [
            (QTuple.from_bytes(record) for _, record in run.scan())
            for run in runs
        ]
        merged = heapq.merge(
            *[(x for x in s) for s in streams],
            key=sort_key,
        )
        try:
            yield from merged
        finally:
            for run in runs:
                run.drop()

    def label(self) -> str:
        tag = "O" if any(
            hasattr(e, "chain") for e, _ in self.keys
        ) else "sort"
        rendered = ", ".join(f"{e} {d}" for e, d in self.keys)
        return f"Sort[{tag}:{self.method}]({rendered})"


class _SortKey:
    """Multi-key comparable with per-key direction; NULLs sort first under
    ASC (and therefore last under DESC), matching the engine's historical
    comparator semantics."""

    __slots__ = ("values", "directions")

    def __init__(self, values: list[object], directions: list[str]):
        self.values = values
        self.directions = directions

    def __lt__(self, other: "_SortKey") -> bool:
        for mine, theirs, direction in zip(
            self.values, other.values, self.directions
        ):
            if mine == theirs:
                continue
            if mine is None:
                less = True
            elif theirs is None:
                less = False
            else:
                try:
                    less = mine < theirs
                except TypeError as exc:
                    raise QueryError(
                        f"cannot compare sort keys {mine!r} < {theirs!r}"
                    ) from exc
            return less if direction != "DESC" else not less
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.values == other.values


class GroupOp(PhysicalOperator):
    """Grouping + aggregation.

    Summaries of the group members merge with annotation dedup (the Q2
    semantics of Figure 2: an output group's classifier counts reflect the
    distinct annotations across its base tuples).
    """

    def __init__(
        self,
        ctx: ExecContext,
        child: PhysicalOperator,
        keys: list[Expr],
        aggregates: list[tuple[AggCall, str]],
    ):
        self.ctx = ctx
        self.child = child
        self.keys = keys
        self.aggregates = aggregates

    @property
    def children(self):
        return [self.child]

    def _produce_batches(self) -> Iterator[Batch]:
        # Grouping is a pipeline breaker; group over the child's batches
        # as rows and re-chunk the aggregated output.
        return batches_from_rows(
            self._grouped(rows_from_batches(self.child.batches()))
        )

    def _grouped(self, rows: Iterator[QTuple]) -> Iterator[QTuple]:
        # Keys are bucketed under a normalized hashable form, but each
        # group's output row carries the first-seen original key values.
        groups: dict[tuple, list[QTuple]] = {}
        originals: dict[tuple, tuple] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(
                evaluate(k, row, self.ctx.eval_ctx) for k in self.keys
            )
            norm = tuple(_hashable(v) for v in key)
            if norm not in groups:
                groups[norm] = []
                originals[norm] = key
                order.append(norm)
            groups[norm].append(row)

        if not groups and not self.keys:
            # Global aggregate over an empty input: one conventional row.
            yield self._output((), [])
            return
        for norm in order:
            yield self._output(originals[norm], groups[norm])

    def _output(self, key: tuple, members: list[QTuple]) -> QTuple:
        columns = [str(k) for k in self.keys]
        values: list[object] = list(key)
        for agg, name in self.aggregates:
            columns.append(str(agg))
            values.append(self._aggregate(agg, members))
        # Merge the members' summary sets (dedup handled by the merge).
        merged = None
        aliases: set[str] = set()
        provenance: dict[str, tuple[str, int]] = {}
        for member in members:
            aliases.update(member.summary_sets)
            provenance.update(member.provenance)
            mset = member.merged_summary_set()
            if merged is None:
                merged = mset.copy()
            else:
                merged.merge(mset)
        if merged is None:
            from repro.summaries.functions import SummarySet

            merged = SummarySet()
        return QTuple(
            columns, values, {a: merged for a in aliases} or {"_g": merged},
            provenance,
        )

    def _aggregate(self, agg: AggCall, members: list[QTuple]) -> object:
        if agg.func == "COUNT" and agg.arg is None:
            return len(members)
        if agg.arg is None:
            raise QueryError(f"{agg.func} requires an argument")
        observed = [
            v
            for v in (
                evaluate(agg.arg, m, self.ctx.eval_ctx) for m in members
            )
            if v is not None
        ]
        if agg.func == "COUNT":
            return len(observed)
        if not observed:
            return None
        if agg.func == "SUM":
            return sum(observed)
        if agg.func == "AVG":
            return sum(observed) / len(observed)
        if agg.func == "MIN":
            return min(observed)
        if agg.func == "MAX":
            return max(observed)
        raise QueryError(f"unknown aggregate {agg.func!r}")

    def label(self) -> str:
        rendered = ", ".join(str(k) for k in self.keys)
        aggs = ", ".join(str(a) for a, _ in self.aggregates)
        return f"Group(by=[{rendered}], aggs=[{aggs}])"


class DistinctOp(PhysicalOperator):
    """Duplicate elimination; duplicate tuples' summaries merge (per [22])."""

    def __init__(self, ctx: ExecContext, child: PhysicalOperator):
        self.ctx = ctx
        self.child = child

    @property
    def children(self):
        return [self.child]

    def _produce_batches(self) -> Iterator[Batch]:
        return batches_from_rows(
            self._distinct(rows_from_batches(self.child.batches()))
        )

    def _distinct(self, rows: Iterator[QTuple]) -> Iterator[QTuple]:
        seen: dict[tuple, QTuple] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(_hashable(v) for v in row.values)
            if key not in seen:
                copied = row.copy()
                seen[key] = copied
                order.append(key)
            else:
                kept = seen[key]
                kept_set = kept.merged_summary_set()
                kept_set.merge(row.merged_summary_set())
                for alias in kept.summary_sets:
                    kept.summary_sets[alias] = kept_set
        for key in order:
            yield seen[key]


class LimitOp(PhysicalOperator):
    def __init__(self, ctx: ExecContext, child: PhysicalOperator, limit: int):
        self.ctx = ctx
        self.child = child
        self.limit = limit

    @property
    def children(self):
        return [self.child]

    def _produce_batches(self) -> Iterator[Batch]:
        remaining = self.limit
        if remaining <= 0:
            return
        for batch in self.child.batches():
            n = len(batch)
            if n <= remaining:
                yield batch
                remaining -= n
            else:
                yield batch.take(range(remaining))
                remaining = 0
            if remaining == 0:
                return

    def label(self) -> str:
        return f"Limit({self.limit})"
