"""Column-batch carriers for the executor.

A :class:`Batch` is the unit of work flowing between physical operators
(:meth:`~repro.query.physical.base.PhysicalOperator.batches`): the same
qualified column names a :class:`~repro.query.tuples.QTuple` carries, but
with the values held column-major, plus per-row summary-set and provenance
slots. Batches produced by the scans keep their summary slots *lazy* — the
SummaryStorage row of a tuple is only decoded into
:class:`~repro.summaries.objects.SummaryObject` instances when some
consumer actually asks for that row's sets (``row(i)`` / ``to_rows()``).
Vectorized summary predicates answer ``getSummaryObject(I).getLabelValue(L)``
chains straight from the storage layer's raw fast path
(:meth:`~repro.summaries.storage.SummaryStorage.label_count`) instead,
so filtered-out rows never pay object construction.

Batches are sized to the resilience layer's checkpoint cadence
(:data:`~repro.resilience.context.BATCH_ROWS`): one deadline/cancellation
check per batch gives the "within one batch" overrun bound.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.query.tuples import QTuple
from repro.resilience.context import BATCH_ROWS
from repro.storage.record import LazyColumn
from repro.summaries.functions import SummarySet


class EagerSummaries:
    """Summary column over already-built per-row summary-set dicts."""

    __slots__ = ("sets",)

    def __init__(self, sets: list):
        self.sets = sets

    def get(self, i: int) -> dict:
        return self.sets[i]

    def take(self, indices) -> "EagerSummaries":
        return EagerSummaries([self.sets[i] for i in indices])

    def label_values(self, expr, eval_ctx, active, row_fn):
        return None  # no fast path: evaluate per row on the built sets


class LazyScanSummaries:
    """Summary column of a scan batch: OIDs now, objects on demand.

    ``get(i)`` mirrors ``_make_tuple``'s summary handling exactly — read
    through :meth:`SummaryManager.summary_set_for`, then apply the retained
    column projection (annotation-effect elimination) — and memoizes the
    result so every row view of the batch shares one set, just as a single
    QTuple flowing through the plan would.
    """

    __slots__ = ("ctx", "table", "alias", "oids", "with_summaries",
                 "retained", "_memo", "_label_memo")

    def __init__(self, ctx, table, alias, oids, with_summaries, retained,
                 memo=None, label_memo=None):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.oids = oids
        self.with_summaries = with_summaries
        self.retained = retained
        self._memo: dict[int, dict] = memo if memo is not None else {}
        #: (oid, instance, label) -> (status, value); shared across takes
        #: so a multi-conjunct predicate probes storage once per row.
        self._label_memo: dict[tuple, tuple] = (
            label_memo if label_memo is not None else {}
        )

    def get(self, i: int) -> dict:
        sets = self._memo.get(i)
        if sets is None:
            if self.with_summaries:
                summaries = self.ctx.manager.summary_set_for(
                    self.table, self.oids[i]
                )
                if self.retained is not None:
                    summaries.project_to_columns(self.retained)
            else:
                summaries = SummarySet()
            sets = {self.alias: summaries}
            self._memo[i] = sets
        return sets

    def take(self, indices) -> "LazyScanSummaries":
        memo = {}
        for new_i, old_i in enumerate(indices):
            hit = self._memo.get(old_i)
            if hit is not None:
                memo[new_i] = hit
        return LazyScanSummaries(
            self.ctx, self.table, self.alias,
            [self.oids[i] for i in indices],
            self.with_summaries, self.retained, memo, self._label_memo,
        )

    def label_values(self, expr, eval_ctx, active, row_fn):
        """Vectorized ``alias.$.getSummaryObject(I).getLabelValue(L)``.

        Returns a per-row value list (non-active slots stay None) or None
        when the chain doesn't match the fast-path shape. Rows the storage
        layer can't answer raw (non-classifier objects, rollup labels)
        fall back to full per-row evaluation — identical semantics,
        full-decode cost.
        """
        if expr.alias is not None and expr.alias != self.alias:
            return None
        if (self.retained is not None
                and self.ctx.manager.has_cell_annotations(self.table)):
            # Annotation-effect elimination can drop cell-targeted
            # annotations, so stored counts differ from projected ones —
            # the same side condition the planner's summary-index paths
            # check. Row-level-only tables project to a no-op.
            return None
        n = len(self.oids)
        out: list[object] = [None] * n
        if not self.with_summaries:
            return out  # empty sets: the chain nullifies on every row
        chain = expr.chain
        if len(chain) != 2:
            return None
        first, second = chain
        if (first.name != "getSummaryObject" or len(first.args) != 1
                or not isinstance(first.args[0], str)):
            return None
        if (second.name != "getLabelValue" or len(second.args) != 1
                or not isinstance(second.args[0], str)):
            return None
        instance, label = first.args[0], second.args[0]
        from repro.query.eval import evaluate_summary_expr

        storage = self.ctx.manager.storage_for(self.table)
        oids = self.oids
        memo = self._label_memo
        misses = [i for i in active
                  if (oids[i], instance, label) not in memo]
        if misses:
            hits = storage.label_counts(
                [oids[i] for i in misses], instance, label
            )
            for i, hit in zip(misses, hits):
                memo[(oids[i], instance, label)] = hit
        for i in active:
            status, value = memo[(oids[i], instance, label)]
            if status == "ok":
                out[i] = value
            else:
                out[i] = evaluate_summary_expr(expr, row_fn(i), eval_ctx)
        return out


class ScanProvenance:
    """Provenance column of a single-table scan: one dict built per ask."""

    __slots__ = ("alias", "table", "oids")

    def __init__(self, alias, table, oids):
        self.alias = alias
        self.table = table
        self.oids = oids

    def get(self, i: int) -> dict:
        return {self.alias: (self.table, self.oids[i])}

    def take(self, indices) -> "ScanProvenance":
        return ScanProvenance(
            self.alias, self.table, [self.oids[i] for i in indices]
        )


class ListProvenance:
    __slots__ = ("dicts",)

    def __init__(self, dicts: list):
        self.dicts = dicts

    def get(self, i: int) -> dict:
        return self.dicts[i]

    def take(self, indices) -> "ListProvenance":
        return ListProvenance([self.dicts[i] for i in indices])


class Batch:
    """One chunk of rows in column-major layout.

    ``cols[j][i]`` is row *i*'s value for ``columns[j]``. Row views built by
    :meth:`row` are memoized, so two asks for the same row return the same
    QTuple — summary-set identity semantics (``distinct_summary_sets`` uses
    ``is``) behave exactly as if one tuple object had flowed through the
    plan. A batch assembled from existing QTuples (``from_rows``) keeps the
    original tuple objects and hands them back verbatim.
    """

    __slots__ = ("columns", "cols", "summaries", "provenance", "_rows",
                 "_memo")

    def __init__(self, columns, cols, summaries, provenance, rows=None):
        self.columns = columns
        self.cols = cols
        self.summaries = summaries
        self.provenance = provenance
        self._rows = rows
        self._memo: dict[int, QTuple] = {}

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self.cols[0]) if self.cols else 0

    @classmethod
    def from_rows(cls, rows: list[QTuple]) -> "Batch":
        columns = rows[0].columns
        cols = [[row.values[j] for row in rows] for j in range(len(columns))]
        return cls(
            columns, cols,
            EagerSummaries([row.summary_sets for row in rows]),
            ListProvenance([row.provenance for row in rows]),
            rows=rows,
        )

    # -- value access --------------------------------------------------------------

    def column_values(self, name: str) -> list:
        """One column's values (QTuple.get resolution: qualified name or
        unique bare suffix)."""
        from repro.errors import QueryError

        if name in self.columns:
            col = self.cols[self.columns.index(name)]
        else:
            suffix = "." + name
            matches = [i for i, c in enumerate(self.columns)
                       if c.endswith(suffix)]
            if len(matches) == 1:
                col = self.cols[matches[0]]
            elif not matches:
                raise QueryError(f"no column {name!r} in {self.columns}")
            else:
                raise QueryError(
                    f"ambiguous column {name!r} in {self.columns}"
                )
        if isinstance(col, LazyColumn):
            return col.values()
        return col

    def row(self, i: int) -> QTuple:
        if self._rows is not None:
            return self._rows[i]
        row = self._memo.get(i)
        if row is None:
            row = QTuple(
                self.columns,
                [col[i] for col in self.cols],
                self.summaries.get(i),
                self.provenance.get(i),
            )
            self._memo[i] = row
        return row

    def to_rows(self) -> list[QTuple]:
        if self._rows is not None:
            return self._rows
        return [self.row(i) for i in range(len(self))]

    def label_values(self, expr, eval_ctx, active):
        """Delegate a summary-chain column to the summary slot's fast path
        (None when only per-row evaluation can answer it)."""
        return self.summaries.label_values(expr, eval_ctx, active, self.row)

    # -- reshaping ------------------------------------------------------------------

    def take(self, indices) -> "Batch":
        """Sub-batch of the given row indices (in order)."""
        indices = [int(i) for i in indices]
        rows = None
        if self._rows is not None:
            rows = [self._rows[i] for i in indices]
        taken = Batch(
            self.columns,
            [col.take(indices) if isinstance(col, LazyColumn)
             else [col[i] for i in indices] for col in self.cols],
            self.summaries.take(indices),
            self.provenance.take(indices),
            rows=rows,
        )
        for new_i, old_i in enumerate(indices):
            hit = self._memo.get(old_i)
            if hit is not None:
                taken._memo[new_i] = hit
        return taken


def batches_from_rows(
    rows: Iterable[QTuple], batch_rows: int = BATCH_ROWS
) -> Iterator[Batch]:
    """Chunk a tuple stream into row-backed batches of ``batch_rows``.

    A mid-stream column-shape change (defensive; plans emit uniform shapes)
    flushes the current chunk early so every batch stays rectangular.
    """
    pending: list[QTuple] = []
    columns: list[str] | None = None
    for row in rows:
        if pending and row.columns != columns:
            yield Batch.from_rows(pending)
            pending = []
        if not pending:
            columns = row.columns
        pending.append(row)
        if len(pending) >= batch_rows:
            yield Batch.from_rows(pending)
            pending = []
    if pending:
        yield Batch.from_rows(pending)


def rows_from_batches(batches: Iterable[Batch]) -> Iterator[QTuple]:
    """Flatten a batch stream back into tuples (row-logic operators)."""
    for batch in batches:
        for i in range(len(batch)):
            yield batch.row(i)
