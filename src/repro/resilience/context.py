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

A statement served over a connection also carries a ``hangup`` probe:
:meth:`check` polls it at most once per :data:`HANGUP_POLL_S`, and a
client that hung up cancels the statement at that checkpoint — the
same path, and the same lock-wait slices, as :meth:`cancel`.

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time

from repro.errors import QueryCancelledError, QueryTimeoutError

#: rows between cancellation/deadline checkpoints in each operator.
BATCH_ROWS = 64

#: seconds between polls of a statement's ``hangup`` probe.
HANGUP_POLL_S = 0.005


class ExecutionContext:
    """One statement's deadline + cancellation state."""

    def __init__(self, timeout: float | None = None, clock=time.perf_counter,
                 metrics=None, hangup=None):
        self.clock = clock
        self.metrics = metrics
        self.started = clock()
        self.timeout = timeout
        self.deadline = self.started + timeout if timeout is not None else None
        self.cancelled = False
        #: ``hangup() -> bool``: True once the statement's client is gone.
        self.hangup = hangup
        self._next_poll = self.started + HANGUP_POLL_S
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
        """One checkpoint: raise if cancelled (or the client hung up) or
        past the deadline."""
        self.checks += 1
        if self.hangup is not None and not self.cancelled:
            now = self.clock()
            if now >= self._next_poll:
                self._next_poll = now + HANGUP_POLL_S
                self.cancelled = bool(self.hangup())
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
