"""Physical operator base class and execution context."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.catalog.catalog import Catalog
from repro.query.batch import Batch, rows_from_batches
from repro.query.eval import EvalContext
from repro.query.tuples import QTuple
from repro.summaries.maintenance import SummaryManager


@dataclass
class ExecContext:
    """Everything an operator may need at runtime.

    ``propagate`` mirrors the engine's summary-propagation switch: when off,
    results carry no summary objects and access paths may skip the
    SummaryStorage entirely (the Figure 13 "NoPropagation" cases).
    """

    catalog: Catalog
    manager: SummaryManager
    propagate: bool = True
    #: (kind, table lowercase, instance) -> DerivedIndex (the registry)
    derived: dict = field(default_factory=dict)
    eval_ctx: EvalContext = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.eval_ctx is None:
            self.eval_ctx = EvalContext(manager=self.manager)

    def derived_index(self, kind: str, table: str, instance: str):
        return self.derived.get((kind, table.lower(), instance))

    def reconstructors(self, table: str) -> list:
        """The structures on ``table`` that re-assemble their instance's
        summary objects from normalized rows (Figure 12)."""
        return [index for index in self.derived.values()
                if index.table_name == table.lower() and index.reconstructs]


class PhysicalOperator:
    """Base class: every operator is an iterator of column batches.

    Subclasses implement :meth:`_produce_batches`; consumers pull
    :class:`~repro.query.batch.Batch` chunks through :meth:`batches`,
    which transparently instruments the iterator when an
    :class:`~repro.obs.profile.PlanProfiler` is attached (EXPLAIN ANALYZE)
    and/or checkpoints it when an
    :class:`~repro.resilience.context.ExecutionContext` is attached
    (deadlines, cooperative cancellation). The indirection keeps the
    operators themselves free of counting and checkpoint logic.

    :meth:`rows` (and iteration) is a plain tuple view over
    :meth:`batches` for consumers that want one QTuple at a time.
    """

    #: Set per-instance by PlanProfiler.attach(); None = unprofiled run.
    profiler = None
    #: Set per-instance by ExecutionContext.attach(); None = no deadline or
    #: cancellation checkpoints.
    runtime = None
    #: Set by the Database on a plan's root: materialize every row view of
    #: an outgoing batch *inside* this operator's instrumented iterator, so
    #: lazy summary reads are charged to the plan (keeping the profiler's
    #: sum-to-run-totals invariant) and covered by deadline checkpoints.
    materialize_output = False
    #: registry keys of the derived structures the operator reads: what a
    #: mid-query corruption quarantines.
    derived_keys: tuple = ()

    def _produce_batches(self) -> Iterator[Batch]:
        raise NotImplementedError

    def batches(self) -> Iterator[Batch]:
        inner = self._started()
        if self.materialize_output:
            inner = self._materialized(inner)
        if self.profiler is not None:
            inner = self.profiler.wrap_batches(self, inner)
        if self.runtime is not None:
            # Runtime checks go outermost so a checkpoint covers the
            # profiler's bookkeeping too.
            inner = self.runtime.wrap_batches(self, inner)
        return inner

    def _started(self) -> Iterator[Batch]:
        # The hook runs on the first pull, inside the wrappers: a producer
        # that works before its first yield (or that is a plain function
        # returning an iterator) is charged to itself and checkpointed,
        # not booked to whichever consumer created the iterator.
        yield from self._produce_batches()

    @staticmethod
    def _materialized(inner):
        for batch in inner:
            batch.to_rows()
            yield batch

    def rows(self) -> Iterator[QTuple]:
        return rows_from_batches(self.batches())

    def __iter__(self) -> Iterator[QTuple]:
        return self.rows()

    @property
    def children(self) -> list["PhysicalOperator"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)
