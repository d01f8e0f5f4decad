"""Scan operators: the access paths of the engine.

* :class:`SeqScan` — heap scan; reads the SummaryStorage row per tuple only
  when summaries are needed (property 1 of the de-normalized layout: data
  queried in isolation never touches summary pages).
* :class:`IndexScan` — standard B-Tree on a data column.
* :class:`SummaryIndexScan` — the paper's Summary-BTree access path:
  itemized-key probe, then backward pointers straight to the data tuples
  (or conventional pointers through the SummaryStorage, for the Figure 13
  ablation). Emits tuples in ascending label-count order — an *interesting
  order* the optimizer can exploit (Rules 3–6).
* :class:`BaselineIndexScan` — the baseline scheme's path: derived-column
  index -> normalized rows -> OID index -> heap; optionally re-assembling
  summary objects from the normalized replica (Figure 12).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import PlanError, QueryError, ReproError
from repro.query.batch import (
    Batch,
    LazyScanSummaries,
    ScanProvenance,
    batches_from_rows,
)
from repro.query.physical.base import ExecContext, PhysicalOperator
from repro.query.tuples import QTuple
from repro.resilience.context import BATCH_ROWS
from repro.storage.record import ValueType
from repro.summaries.functions import SummarySet


def _make_tuple(
    ctx: ExecContext,
    table_name: str,
    alias: str,
    oid: int,
    values: list[object],
    with_summaries: bool,
    retained: set[str] | None,
    summary_set: SummarySet | None = None,
) -> QTuple:
    table = ctx.catalog.table(table_name)
    columns = [f"{alias}.{c}" for c in table.schema.names] + [f"{alias}.oid"]
    if not with_summaries:
        summaries = SummarySet()
    elif summary_set is None:
        summaries = ctx.manager.summary_set_for(table_name, oid, retained)
    elif retained is not None:
        summaries = summary_set.project_to_columns(retained)
    else:
        summaries = summary_set
    return QTuple(
        columns,
        list(values) + [oid],
        {alias: summaries},
        {alias: (table_name, oid)},
    )


def _scan_columns(ctx: ExecContext, table_name: str, alias: str) -> list[str]:
    table = ctx.catalog.table(table_name)
    return [f"{alias}.{c}" for c in table.schema.names] + [f"{alias}.oid"]


def _scan_batch(
    ctx: ExecContext,
    table_name: str,
    alias: str,
    columns: list[str],
    oids: list[int],
    cols: list[list[object]],
    with_summaries: bool,
    retained: set[str] | None,
) -> Batch:
    """Assemble one lazy-summary scan batch (shared by every access path:
    summaries stay undecoded until a consumer asks for a row's sets)."""
    return Batch(
        columns,
        cols + [oids],
        LazyScanSummaries(ctx, table_name, alias, oids, with_summaries,
                          retained),
        ScanProvenance(alias, table_name, oids),
    )


def _oid_read_batches(
    ctx: ExecContext,
    table_name: str,
    alias: str,
    oid_iter,
    with_summaries: bool,
    retained: set[str] | None,
) -> Iterator[Batch]:
    """Batches for access paths that produce OIDs and read rows one heap
    lookup at a time (data index, keyword index)."""
    table = ctx.catalog.table(table_name)
    columns = _scan_columns(ctx, table_name, alias)
    width = len(table.schema.names)
    oids: list[int] = []
    cols: list[list[object]] = [[] for _ in range(width)]
    for oid in oid_iter:
        values = table.read(oid)
        oids.append(oid)
        for j in range(width):
            cols[j].append(values[j])
        if len(oids) >= BATCH_ROWS:
            yield _scan_batch(ctx, table_name, alias, columns, oids, cols,
                              with_summaries, retained)
            oids, cols = [], [[] for _ in range(width)]
    if oids:
        yield _scan_batch(ctx, table_name, alias, columns, oids, cols,
                          with_summaries, retained)


_INT_MIN, _INT_MAX = -(1 << 63), (1 << 63) - 1


def orders_against(value: object, vtype: ValueType) -> bool:
    """Whether Python orders ``value`` against a ``vtype`` column's values
    (the heap path compares them; anything else never equals one and
    raises on ``<``)."""
    if vtype is ValueType.TEXT:
        return isinstance(value, str)
    return isinstance(value, (int, float))  # bool is an int, like in Python


def _domain_bound(value, vtype: ValueType, upper: bool, inclusive: bool):
    """One orderable bound restated in the indexed column's own domain.

    ``(key, inclusive)``; ``(None, True)`` when every non-NULL value
    satisfies it; None when none does. INT and BOOL columns are an
    integer domain: a float bound tightens to the nearest integer inside
    the range and every bound becomes inclusive; likewise an int bound a
    FLOAT column cannot hold exactly tightens to the nearest float inside.
    """
    if vtype is ValueType.TEXT:
        return value, inclusive
    if isinstance(value, float) and math.isnan(value):
        return None
    if vtype is ValueType.FLOAT:
        try:
            bound = float(value)
        except OverflowError:  # an int beyond every float
            return (None, True) if (value > 0) == upper else None
        if bound != value:  # an int between two floats, past 2**53
            if (bound > value) == upper:
                bound = math.nextafter(bound, -math.inf if upper else math.inf)
            inclusive = True
        return bound, inclusive
    if isinstance(value, float):
        if math.isinf(value):
            return (None, True) if (value > 0) == upper else None
        if not value.is_integer():
            value = math.floor(value) if upper else math.ceil(value)
            inclusive = True
    value = int(value)
    if not inclusive:
        value += -1 if upper else 1
    lo_limit, hi_limit = (0, 1) if vtype is ValueType.BOOL \
        else (_INT_MIN, _INT_MAX)
    if (value < lo_limit) if upper else (value > hi_limit):
        return None
    if (value >= hi_limit) if upper else (value <= lo_limit):
        return None, True
    return (bool(value) if vtype is ValueType.BOOL else value), True


def probe_bounds(vtype: ValueType, lo, hi, lo_inclusive: bool,
                 hi_inclusive: bool):
    """``(lo, hi, lo_inclusive, hi_inclusive)`` for ``Table.index_range``
    selecting exactly the rows the heap path's ``lo <(=) column <(=) hi``
    selects, or None when no row can. Both bounds (when not None) must
    satisfy :func:`orders_against`."""
    bounds = []
    for value, upper, inclusive in ((lo, False, lo_inclusive),
                                    (hi, True, hi_inclusive)):
        bound = (None, True) if value is None else \
            _domain_bound(value, vtype, upper, inclusive)
        if bound is None:
            return None
        bounds.append(bound)
    (lo, lo_inclusive), (hi, hi_inclusive) = bounds
    if lo is not None and hi is not None and (
        lo > hi or (lo == hi and not (lo_inclusive and hi_inclusive))
    ):
        return None
    return lo, hi, lo_inclusive, hi_inclusive


class SeqScan(PhysicalOperator):
    """Full heap scan of a user relation."""

    def __init__(
        self,
        ctx: ExecContext,
        table: str,
        alias: str,
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.with_summaries = with_summaries
        self.retained = retained

    def _produce_batches(self) -> Iterator[Batch]:
        columns = _scan_columns(self.ctx, self.table, self.alias)
        table = self.ctx.catalog.table(self.table)
        for oids, cols in table.scan_batches(BATCH_ROWS):
            yield _scan_batch(
                self.ctx, self.table, self.alias, columns, oids, cols,
                self.with_summaries, self.retained,
            )

    def label(self) -> str:
        tag = "+summaries" if self.with_summaries else ""
        return f"SeqScan({self.table} {self.alias}{tag})"


class IndexScan(PhysicalOperator):
    """Standard B-Tree scan on a data column (equality or range)."""

    def __init__(
        self,
        ctx: ExecContext,
        table: str,
        alias: str,
        column: str,
        lo: object | None,
        hi: object | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.column = column
        self.lo, self.hi = lo, hi
        self.lo_inclusive, self.hi_inclusive = lo_inclusive, hi_inclusive
        self.with_summaries = with_summaries
        self.retained = retained

    def _produce_batches(self) -> Iterator[Batch]:
        table = self.ctx.catalog.table(self.table)
        vtype = table.schema.column(self.column).type
        foreign = [b for b in (self.lo, self.hi)
                   if b is not None and not orders_against(b, vtype)]
        if foreign:
            # The heap path's answer: `=` (planned as lo is hi) never
            # holds, an order comparison raises once it meets a non-NULL
            # value.
            if self.lo is not self.hi and next(
                table.index_range(self.column, None, None), None
            ) is not None:
                raise QueryError(
                    f"cannot compare {self.table}.{self.column} "
                    f"({vtype.value}) with {foreign[0]!r}"
                )
            return
        bounds = probe_bounds(vtype, self.lo, self.hi, self.lo_inclusive,
                              self.hi_inclusive)
        if bounds is None:
            return
        yield from _oid_read_batches(
            self.ctx, self.table, self.alias,
            table.index_range(self.column, *bounds),
            self.with_summaries, self.retained,
        )

    def label(self) -> str:
        return (
            f"IndexScan({self.table}.{self.column} in "
            f"[{self.lo}, {self.hi}])"
        )


class SummaryIndexScan(PhysicalOperator):
    """Summary-BTree probe on a classifier label (§4.1).

    Produces tuples ordered by the label count (ascending, or descending
    when ``direction='DESC'`` — a buffered reversal of the leaf scan).
    """

    def __init__(
        self,
        ctx: ExecContext,
        table: str,
        alias: str,
        instance: str,
        label: str,
        lo: int | None,
        hi: int | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        with_summaries: bool = True,
        retained: set[str] | None = None,
        direction: str = "ASC",
    ):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.instance = instance
        self.label_name = label
        self.lo, self.hi = lo, hi
        self.lo_inclusive, self.hi_inclusive = lo_inclusive, hi_inclusive
        self.with_summaries = with_summaries
        self.retained = retained
        self.direction = direction

    def _produce_batches(self) -> Iterator[Batch]:
        # Each hit carries its own pointer hop (and, with conventional
        # pointers, an already-decoded summary row): row-at-a-time.
        return batches_from_rows(self._probed())

    def _probed(self) -> Iterator[QTuple]:
        index = self.ctx.derived_index("summary", self.table, self.instance)
        if index is None:
            raise PlanError(
                f"no Summary-BTree on {self.table}/{self.instance}"
            )
        table = self.ctx.catalog.table(self.table)
        hits = index.lookup_range(
            self.label_name, self.lo, self.hi, self.lo_inclusive,
            self.hi_inclusive,
        )
        if self.direction == "DESC":
            hits = reversed(list(hits))
        for _count, pointer in hits:
            if index.backward_pointers:
                # Straight to the data tuple in R — no SummaryStorage join.
                try:
                    values = table.read_at(pointer.rid)
                except ReproError:
                    values = table.read(pointer.oid)  # relocated tuple
                yield _make_tuple(
                    self.ctx, self.table, self.alias, pointer.oid, values,
                    self.with_summaries, self.retained,
                )
            else:
                # Conventional pointer: the leaf references the summary row;
                # reaching the data tuple costs the OID-index join with R.
                record = self.ctx.manager.storage_for(self.table).heap.read(
                    pointer.rid
                )
                summaries = SummarySet(
                    self.ctx.manager.storage_for(self.table)._decode(record)
                )
                values = table.read(pointer.oid)
                yield _make_tuple(
                    self.ctx, self.table, self.alias, pointer.oid, values,
                    self.with_summaries, self.retained,
                    summary_set=summaries if self.with_summaries else None,
                )

    def label(self) -> str:
        return (
            f"SummaryIndexScan({self.table}/{self.instance}."
            f"{self.label_name} in [{self.lo}, {self.hi}] {self.direction})"
        )


class BaselineIndexScan(PhysicalOperator):
    """Baseline-scheme probe (Figure 4(c) path).

    ``normalized_propagation=True`` additionally re-assembles the classifier
    object from its normalized primitives instead of reading the
    de-normalized storage — the Figure 12 experiment.
    """

    def __init__(
        self,
        ctx: ExecContext,
        table: str,
        alias: str,
        instance: str,
        label: str,
        lo: int | None,
        hi: int | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        with_summaries: bool = True,
        retained: set[str] | None = None,
        direction: str = "ASC",
        normalized_propagation: bool = False,
    ):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.instance = instance
        self.label_name = label
        self.lo, self.hi = lo, hi
        self.lo_inclusive, self.hi_inclusive = lo_inclusive, hi_inclusive
        self.with_summaries = with_summaries
        self.retained = retained
        self.direction = direction
        self.normalized_propagation = normalized_propagation

    def _produce_batches(self) -> Iterator[Batch]:
        # Normalized propagation re-assembles a summary set per hit:
        # row-at-a-time.
        return batches_from_rows(self._probed())

    def _probed(self) -> Iterator[QTuple]:
        index = self.ctx.derived_index("baseline", self.table, self.instance)
        if index is None:
            raise PlanError(f"no baseline index on {self.table}/{self.instance}")
        table = self.ctx.catalog.table(self.table)
        hits = index.lookup_range(
            self.label_name, self.lo, self.hi, self.lo_inclusive,
            self.hi_inclusive,
        )
        if self.direction == "DESC":
            hits = reversed(list(hits))
        for _count, oid in hits:
            values = table.read(oid)  # OID-index hop into R
            summary_set = None
            if self.with_summaries and self.normalized_propagation:
                summary_set = self._reconstruct_set(index, oid)
            yield _make_tuple(
                self.ctx, self.table, self.alias, oid, values,
                self.with_summaries, self.retained, summary_set=summary_set,
            )

    def _reconstruct_set(self, index, oid: int) -> SummarySet:
        """Form the tuple's complete summary set from normalized primitives
        (the Figure 12 propagation path): the classifier comes from the
        baseline index's normalized rows, every snippet instance from its
        normalized replica. Instances with no normalized form at all (e.g.
        Cluster objects, whose group structure the Baseline scheme cannot
        normalize) fall back to the de-normalized storage — paying that
        read on top of the reconstruction work."""
        objects = {}
        reconstructed = {self.instance}
        obj = index.reconstruct_object(oid)
        if obj is not None:
            objects[obj.instance_name] = obj
        for instance in self.ctx.manager.instances_for(self.table):
            replica = self.ctx.derived_index("replica", self.table,
                                             instance.name)
            if replica is None:
                continue
            reconstructed.add(instance.name)
            snippet = replica.reconstruct(oid)
            if snippet is not None:
                objects[snippet.instance_name] = snippet
        missing = [
            instance.name
            for instance in self.ctx.manager.instances_for(self.table)
            if instance.name not in reconstructed
        ]
        if missing:
            stored = self.ctx.manager.storage_for(self.table).get(oid) or {}
            for name in missing:
                if name in stored:
                    objects[name] = stored[name]
        return SummarySet(objects)

    def label(self) -> str:
        mode = "normalized" if self.normalized_propagation else "denormalized"
        return (
            f"BaselineIndexScan({self.table}/{self.instance}."
            f"{self.label_name} in [{self.lo}, {self.hi}], {mode})"
        )


class KeywordIndexScan(PhysicalOperator):
    """Trigram keyword-index access path (snippet-only search mode).

    Produces the *candidate* tuples whose snippet text may contain every
    keyword; the planner re-applies the original predicate above this
    scan, so lossy trigram matching never changes results.
    """

    def __init__(
        self,
        ctx: ExecContext,
        table: str,
        alias: str,
        instance: str,
        keywords: tuple[str, ...],
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.instance = instance
        self.keywords = keywords

        self.with_summaries = with_summaries
        self.retained = retained

    def _produce_batches(self) -> Iterator[Batch]:
        index = self.ctx.derived_index("keyword", self.table, self.instance)
        if index is None:
            raise PlanError(
                f"no keyword index on {self.table}/{self.instance}"
            )
        candidates = index.candidates(list(self.keywords))
        if candidates is None:
            raise PlanError(
                "keyword index unusable for keywords "
                f"{self.keywords!r} (shorter than one trigram)"
            )
        yield from _oid_read_batches(
            self.ctx, self.table, self.alias, sorted(candidates),
            self.with_summaries, self.retained,
        )

    def label(self) -> str:
        kws = ", ".join(self.keywords)
        return f"KeywordIndexScan({self.table}/{self.instance}: {kws})"
