"""Scan operators: the access paths of the engine.

* :class:`SeqScan` — heap scan; reads the SummaryStorage row per tuple only
  when summaries are needed (property 1 of the de-normalized layout: data
  queried in isolation never touches summary pages).
* :class:`IndexScan` — standard B-Tree on a data column.
* :class:`DerivedIndexScan` — any derived structure's probe: the paper's
  Summary-BTree access path (itemized-key probe, then backward pointers
  straight to the data tuples, or conventional pointers through the
  SummaryStorage for the Figure 13 ablation), the baseline scheme's
  derived-column index -> normalized rows -> OID index -> heap (optionally
  re-assembling summary objects from normalized primitives, Figure 12),
  and the trigram keyword index's candidates.  The structure knows how to
  probe itself; the operator only turns hits into tuples.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from repro.errors import PlanError, QueryError
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


def _make_tuple(ctx: ExecContext, table_name: str, alias: str, oid: int,
                values: list[object], summaries: SummarySet) -> QTuple:
    return QTuple(
        _scan_columns(ctx, table_name, alias),
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
    A FLOAT zero bound takes the sign that puts both zeros on the side
    the heap path's comparison does, since the index orders -0.0 first.
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
        if bound == 0:
            bound = 0.0 if upper == inclusive else -0.0
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
        # The hits, read with one Table.read_many per batch.
        columns = _scan_columns(self.ctx, self.table, self.alias)
        hits = table.index_range(self.column, *bounds)
        while oids := list(itertools.islice(hits, BATCH_ROWS)):
            cols = [list(col) for col in zip(*table.read_many(oids))]
            yield _scan_batch(self.ctx, self.table, self.alias, columns,
                              oids, cols, self.with_summaries, self.retained)

    def label(self) -> str:
        return (
            f"IndexScan({self.table}.{self.column} in "
            f"[{self.lo}, {self.hi}])"
        )


class DerivedIndexScan(PhysicalOperator):
    """One :class:`~repro.index.derived.Probe` of a derived structure: the
    Summary-BTree (§4.1; hits in label-count order, an *interesting order*
    the optimizer can exploit, Rules 3–6), the baseline's derived-column
    index (Figure 4(c)), the trigram keyword index, or any other
    registered kind.

    The structure turns each hit into its data tuple.  A probe that
    reconstructs forms each tuple's summary set from normalized primitives
    instead (Figure 12): every structure on the table that can re-assembles
    its instance's object, and instances none can (e.g. Cluster objects,
    whose group structure the Baseline scheme cannot normalize) fall back
    to the de-normalized storage — paying that read on top.
    """

    def __init__(
        self,
        ctx: ExecContext,
        table: str,
        alias: str,
        probe,
        with_summaries: bool = True,
        retained: set[str] | None = None,
    ):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.probe = probe
        self.with_summaries = with_summaries
        self.retained = retained

    @property
    def _reconstructs(self) -> bool:
        return self.with_summaries and self.probe.reconstruct_pages > 0

    @property
    def derived_keys(self) -> list[tuple[str, str, str]]:
        keys = [self.probe.key]
        if self._reconstructs:
            keys += [i.key for i in self.ctx.reconstructors(self.table)]
        return list(dict.fromkeys(keys))

    def _produce_batches(self) -> Iterator[Batch]:
        # Each hit carries its own pointer hop (and possibly its summary
        # objects): rows, chunked into batches.
        return batches_from_rows(self._probed())

    def _probed(self) -> Iterator[QTuple]:
        kind, _, instance = self.probe.key
        index = self.ctx.derived_index(*self.probe.key)
        if index is None:
            raise PlanError(f"no {kind} index on {self.table}/{instance}")
        table = self.ctx.catalog.table(self.table)
        builders = self.ctx.reconstructors(self.table) \
            if self._reconstructs else None
        retained = self.retained
        hits = index.hits(self.probe, table)
        while chunk := list(itertools.islice(hits, BATCH_ROWS)):
            if builders is not None:
                chunk = [(oid, values, self._reconstructed(builders, oid))
                         for oid, values, _objects in chunk]
            # The hits that brought no objects read theirs in one batch.
            stored = iter(self.ctx.manager.summary_sets_for(
                self.table, [oid for oid, _v, objs in chunk if objs is None],
                retained,
            ) if self.with_summaries else ())
            for oid, values, objects in chunk:
                if not self.with_summaries:
                    summaries = SummarySet()
                elif objects is None:
                    summaries = next(stored)
                else:
                    summaries = SummarySet(objects)
                    if retained is not None:
                        summaries = summaries.project_to_columns(retained)
                yield _make_tuple(self.ctx, self.table, self.alias, oid,
                                  values, summaries)

    def _reconstructed(self, builders, oid: int) -> dict:
        objects, formed = {}, set()
        for index in builders:
            formed.add(index.instance_name)
            obj = index.reconstruct(oid)
            if obj is not None:
                objects[obj.instance_name] = obj
        missing = [
            instance.name
            for instance in self.ctx.manager.instances_for(self.table)
            if instance.name not in formed
        ]
        if missing:
            stored = self.ctx.manager.storage_for(self.table).get(oid) or {}
            for name in missing:
                if name in stored:
                    objects[name] = stored[name]
        return objects

    def label(self) -> str:
        return f"{self.probe.name}({self.table}/{self.probe.detail})"
