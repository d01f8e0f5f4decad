"""Column-batch carriers for the executor.

A :class:`Batch` is the unit of work flowing between physical operators
(:meth:`~repro.query.physical.base.PhysicalOperator.batches`): the same
qualified column names a :class:`~repro.query.tuples.QTuple` carries, but
with the values held column-major, plus per-row summary-set and provenance
slots. Batches produced by the scans keep their summary slots *lazy* — the
SummaryStorage row of a tuple is only decoded into
:class:`~repro.summaries.objects.SummaryObject` instances when some
consumer actually asks for that row's sets (``row(i)`` / ``to_rows()``),
and a batch's rows are read together: ``to_rows()`` resolves every
row's sets with one summary-cache pass, not one lookup per row.
Vectorized summary predicates read the summary slot alone
(:meth:`Batch.summary_values`), never a row view: the active rows' sets
come from the same cached objects
(:meth:`~repro.summaries.storage.SummaryStorage.get_many`), so a
filtered-out row never pays a data decode, and a later conjunct or row
view of the batch reuses the sets the first one read; a chain's values
are memoized too, so a later conjunct on the same chain walks no row
again.

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

    def get_many(self, indices) -> list[dict]:
        return [self.sets[i] for i in indices]

    def take(self, indices) -> "EagerSummaries":
        return EagerSummaries([self.sets[i] for i in indices])


class LazyScanSummaries:
    """Summary column of a scan batch: OIDs now, objects per batch ask.

    ``get_many(indices)`` reads the sets of every row it is given that the
    memo lacks with one :meth:`SummaryManager.summary_sets_for` call — one
    summary-cache pass, projected to the retained columns (annotation-
    effect elimination) — and memoizes them so every row view of the
    batch shares one set, just as a single QTuple flowing through the
    plan would.  ``get(i)`` is its one-row case.
    """

    __slots__ = ("ctx", "table", "alias", "oids", "with_summaries",
                 "retained", "_memo")

    def __init__(self, ctx, table, alias, oids, with_summaries, retained,
                 memo=None):
        self.ctx = ctx
        self.table = table
        self.alias = alias
        self.oids = oids
        self.with_summaries = with_summaries
        self.retained = retained
        self._memo: dict[int, dict] = memo if memo is not None else {}

    def get(self, i: int) -> dict:
        return self.get_many((i,))[0]

    def get_many(self, indices) -> list[dict]:
        memo = self._memo
        missing = [i for i in indices if i not in memo]
        if missing:
            if self.with_summaries:
                found = self.ctx.manager.summary_sets_for(
                    self.table, [self.oids[i] for i in missing],
                    self.retained,
                )
            else:  # one empty set per row: sets are compared with ``is``
                found = [SummarySet() for _ in missing]
            for i, summaries in zip(missing, found):
                memo[i] = {self.alias: summaries}
        return [memo[i] for i in indices]

    def take(self, indices) -> "LazyScanSummaries":
        memo = {}
        for new_i, old_i in enumerate(indices):
            hit = self._memo.get(old_i)
            if hit is not None:
                memo[new_i] = hit
        return LazyScanSummaries(
            self.ctx, self.table, self.alias,
            [self.oids[i] for i in indices],
            self.with_summaries, self.retained, memo,
        )


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
                 "_memo", "_chains")

    def __init__(self, columns, cols, summaries, provenance, rows=None):
        self.columns = columns
        self.cols = cols
        self.summaries = summaries
        self.provenance = provenance
        self._rows = rows
        self._memo: dict[int, QTuple] = {}
        #: summary chain -> row -> value (:meth:`summary_values`)
        self._chains: dict = {}

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
        if i not in self._memo:
            self._build((i,))
        return self._memo[i]

    def to_rows(self) -> list[QTuple]:
        if self._rows is not None:
            return self._rows
        return self.rows_at(range(len(self)))

    def rows_at(self, indices) -> list[QTuple]:
        """The row views of ``indices``; the ones not yet built share one
        batch ask for their summary sets."""
        if self._rows is not None:
            return [self._rows[i] for i in indices]
        self._build([i for i in indices if i not in self._memo])
        return [self._memo[i] for i in indices]

    def _build(self, indices) -> None:
        """Memoize the row views of ``indices``: one batch ask for their
        summary sets.  When the leading columns are one record block's
        fields in order (a scan's, under ``Select *``), a row's values
        are a copy of the block's decoded row, not one read per cell."""
        block, rest = _record_prefix(self.cols)
        for i, sets in zip(indices, self.summaries.get_many(indices)):
            values = block.row(i) + [col[i] for col in rest] \
                if block is not None else [col[i] for col in self.cols]
            self._memo[i] = QTuple(self.columns, values, sets,
                                   self.provenance.get(i))

    def summary_values(self, chain, rows: list[int], walk, eval_ctx) -> list:
        """The value of the summary chain keyed ``chain`` on each of
        ``rows``.

        Values are memoized per batch, so each row's chain is walked once
        however many conjuncts (or, on a join's inner batch, outer rows)
        ask: ``walk(sets, eval_ctx)`` maps the summary-set dicts of the
        rows not memoized yet — read with one ``summaries.get_many``, the
        dicts ``row(i)`` would carry, so set identity is the same as on a
        row view — to their values.  No data value is decoded.
        """
        known = self._chains.get(chain)
        if known is None:
            known = self._chains[chain] = {}
        missing = [i for i in rows if i not in known]
        if missing:
            known.update(zip(missing, walk(self.summaries.get_many(missing),
                                           eval_ctx)))
        return [known[i] for i in rows]

    # -- reshaping ------------------------------------------------------------------

    def take(self, indices) -> "Batch":
        """Sub-batch of the given row indices (in order)."""
        indices = [int(i) for i in indices]
        rows = None
        if self._rows is not None:
            rows = [self._rows[i] for i in indices]
        blocks: dict = {}  # sibling lazy columns share one taken block
        taken = Batch(
            self.columns,
            [col.take(indices, blocks) if isinstance(col, LazyColumn)
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


def _record_prefix(cols) -> tuple:
    """``(block, rest)`` when ``cols`` open with every field of one
    :class:`RecordBlock`, in order, at least one not yet decoded as a
    column; ``(None, cols)`` otherwise."""
    first = cols[0] if cols else None
    if not isinstance(first, LazyColumn):
        return None, cols
    block = first.block
    width = len(block.codec.types)
    head = cols[:width]
    if len(head) == width and all(
            isinstance(c, LazyColumn) and c.block is block and c.index == j
            for j, c in enumerate(head)) \
            and not all(c.forced for c in head):
        return block, cols[width:]
    return None, cols


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


def rows_from_batches(
    batches: Iterable[Batch], whole: bool = False
) -> Iterator[QTuple]:
    """Flatten a batch stream back into tuples (row-logic operators).

    ``whole`` is for a pipeline breaker, which reads every row: each
    batch's row views are built together, with one summary ask
    (:meth:`Batch.to_rows`).  A streaming consumer builds them one at a
    time, so a ``LIMIT`` above it fetches no set it never uses."""
    for batch in batches:
        yield from batch.to_rows() if whole else map(batch.row,
                                                     range(len(batch)))
