"""Statement deadlines and cooperative cancellation.

An :class:`ExecutionContext` carries one statement's deadline and cancel
flag. :meth:`attach` hooks it into a physical plan exactly like the
profiler (``op.runtime = ctx``, see
:meth:`repro.query.physical.base.PhysicalOperator.batches`): every
operator's iterator is wrapped so a check runs at each batch boundary
(:data:`BATCH_ROWS` rows) plus once at iterator start and end. Because
every leaf row is pulled from inside some ancestor's ``next()``, a plan
that is producing rows anywhere hits a checkpoint at least every
``BATCH_ROWS`` leaf rows — which is what bounds how far past its deadline
a statement can run ("within one batch").

A tripped check raises a typed :class:`~repro.errors.QueryTimeoutError`
or :class:`~repro.errors.QueryCancelledError` carrying partial-progress
stats (operator rows produced so far, elapsed seconds, checks performed).

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time

from repro.errors import QueryCancelledError, QueryTimeoutError

#: rows between cancellation/deadline checkpoints in each operator.
BATCH_ROWS = 64


class ExecutionContext:
    """One statement's deadline + cancellation state."""

    def __init__(self, timeout: float | None = None, clock=time.perf_counter,
                 metrics=None):
        self.clock = clock
        self.metrics = metrics
        self.started = clock()
        self.timeout = timeout
        self.deadline = self.started + timeout if timeout is not None else None
        self.cancelled = False
        #: operator rows produced under this context (partial progress).
        self.rows_seen = 0
        #: checkpoint evaluations performed.
        self.checks = 0

    # -- control ---------------------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation; the running statement raises
        :class:`QueryCancelledError` at its next checkpoint."""
        self.cancelled = True

    def partial_progress(self) -> dict:
        return {
            "rows": self.rows_seen,
            "elapsed_s": self.clock() - self.started,
            "checks": self.checks,
        }

    def check(self) -> None:
        """One checkpoint: raise if cancelled or past the deadline."""
        self.checks += 1
        if self.cancelled:
            if self.metrics is not None:
                self.metrics.inc("resilience.cancelled")
            raise QueryCancelledError(
                "query cancelled", partial=self.partial_progress()
            )
        if self.deadline is not None and self.clock() > self.deadline:
            if self.metrics is not None:
                self.metrics.inc("resilience.timeouts")
            progress = self.partial_progress()
            raise QueryTimeoutError(
                f"statement timed out after {progress['elapsed_s']:.3f}s "
                f"(timeout {self.timeout}s, {progress['rows']} operator "
                "rows produced)",
                partial=progress,
            )

    # -- plan wiring (mirrors PlanProfiler.attach/wrap_batches) --------------

    def attach(self, root) -> "ExecutionContext":
        """Register every operator of ``root``'s tree with this context."""
        stack = [root]
        while stack:
            op = stack.pop()
            op.runtime = self
            stack.extend(op.children)
        return self

    def wrap_batches(self, op, inner):
        """Checkpointing pass-through over one operator's batch iterator:
        batches are sized to :data:`BATCH_ROWS`, so one check per batch
        gives the "within one batch" overrun bound."""
        self.check()
        for batch in inner:
            self.rows_seen += len(batch)
            self.check()
            yield batch
        self.check()
