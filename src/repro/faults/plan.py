"""Fault schedules.

A :class:`FaultPlan` maps (operation kind, operation index) to a
:class:`Fault`. Indexes are 0-based and counted per operation kind by the
:class:`~repro.faults.disk.FaultyDiskManager` — "fail the 3rd write" is
``plan.fail_write(at=2)``. A fault may recur with a ``period`` (fire at
``at``, ``at + period``, ``at + 2*period``, …), which is how the
fuzz-under-fault suites sprinkle transient errors through a query's reads.

Everything random (torn-write lengths, bit-flip positions) comes from one
``random.Random(seed)``, so a failing schedule is reproducible from its
seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import StorageError


class FaultKind:
    """The four injected fault classes."""

    #: The operation fails and the disk is dead from then on (crash).
    FAIL_STOP = "fail_stop"
    #: The operation fails once; the disk stays usable (retryable).
    TRANSIENT = "transient"
    #: Only a prefix of the page reaches disk; the rest keeps its old bytes.
    TORN_WRITE = "torn_write"
    #: One or more bits of the page are silently inverted.
    BIT_FLIP = "bit_flip"

    ALL = (FAIL_STOP, TRANSIENT, TORN_WRITE, BIT_FLIP)


#: Operations a fault can target: page reads/writes on the disk manager,
#: and record appends / fsyncs on a WAL device (``repro.wal.device``).
FAULT_OPS = ("read", "write", "append", "sync")


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``op`` is one of :data:`FAULT_OPS`; ``at`` is the 0-based operation
    index at which the fault fires; a non-None ``period`` makes it recur
    every ``period`` operations after ``at``.
    """

    kind: str
    op: str
    at: int
    period: int | None = None
    #: Torn writes: bytes of the new image that reach disk (None = seeded).
    torn_bytes: int | None = None
    #: Bit flips: number of bits to invert (positions are seeded).
    bits: int = 1
    #: Torn writes: whether the disk fail-stops after the partial write
    #: (crash semantics). False models silent firmware-level tearing.
    crash: bool = True
    #: Firing budget: total times this fault may fire (None = unlimited).
    #: Consumed through :meth:`FaultPlan.consume` — the decrement happens
    #: *before* the caller raises, so a raised fault can never be
    #: re-counted against the budget (exception safety).
    times: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise StorageError(f"unknown fault kind {self.kind!r}")
        if self.op not in FAULT_OPS:
            raise StorageError(
                f"fault op must be one of {FAULT_OPS}, not {self.op!r}"
            )
        if self.kind == FaultKind.TORN_WRITE and self.op not in ("write", "sync"):
            raise StorageError("torn faults apply to writes and syncs only")
        if self.kind == FaultKind.BIT_FLIP and self.op in ("append", "sync"):
            raise StorageError(
                "bit flips target pages; frame the WAL fault as a torn sync"
            )
        if self.at < 0 or (self.period is not None and self.period < 1):
            raise StorageError(f"bad fault schedule: at={self.at} period={self.period}")
        if self.times is not None and self.times < 1:
            raise StorageError(f"bad fault budget: times={self.times}")

    def fires_at(self, index: int) -> bool:
        if index == self.at:
            return True
        if self.period is None:
            return False
        return index > self.at and (index - self.at) % self.period == 0


class FaultPlan:
    """A deterministic, seeded schedule of disk faults."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.faults: list[Fault] = []
        #: remaining firing budget per fault position (populated lazily for
        #: faults scheduled with ``times=``; Fault itself is frozen).
        self._budget: dict[int, int] = {}

    def schedule(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    # -- builder shorthands (all chainable) ---------------------------------

    def fail_read(self, at: int) -> "FaultPlan":
        """Fail-stop on the ``at``-th read (0-based)."""
        return self.schedule(Fault(FaultKind.FAIL_STOP, "read", at))

    def fail_write(self, at: int) -> "FaultPlan":
        """Fail-stop on the ``at``-th write (0-based)."""
        return self.schedule(Fault(FaultKind.FAIL_STOP, "write", at))

    def transient_read(self, at: int, period: int | None = None,
                       times: int | None = None) -> "FaultPlan":
        """Transient error on the ``at``-th read, recurring every ``period``;
        ``times`` caps the total number of firings."""
        return self.schedule(
            Fault(FaultKind.TRANSIENT, "read", at, period, times=times)
        )

    def transient_write(self, at: int, period: int | None = None,
                        times: int | None = None) -> "FaultPlan":
        return self.schedule(
            Fault(FaultKind.TRANSIENT, "write", at, period, times=times)
        )

    def torn_write(
        self, at: int, torn_bytes: int | None = None, crash: bool = True
    ) -> "FaultPlan":
        """Tear the ``at``-th write: only a prefix of the page lands."""
        return self.schedule(
            Fault(FaultKind.TORN_WRITE, "write", at, torn_bytes=torn_bytes,
                  crash=crash)
        )

    def bit_flip_write(self, at: int, bits: int = 1) -> "FaultPlan":
        """Silently invert ``bits`` seeded bit positions of the ``at``-th write."""
        return self.schedule(Fault(FaultKind.BIT_FLIP, "write", at, bits=bits))

    def bit_flip_read(self, at: int, bits: int = 1) -> "FaultPlan":
        """Corrupt the copy returned by the ``at``-th read (transient rot)."""
        return self.schedule(Fault(FaultKind.BIT_FLIP, "read", at, bits=bits))

    # -- WAL-device faults (repro.wal.device) --------------------------------

    def fail_append(self, at: int) -> "FaultPlan":
        """Fail-stop on the ``at``-th WAL record append (0-based)."""
        return self.schedule(Fault(FaultKind.FAIL_STOP, "append", at))

    def fail_sync(self, at: int) -> "FaultPlan":
        """Fail-stop on the ``at``-th WAL fsync: nothing pending lands."""
        return self.schedule(Fault(FaultKind.FAIL_STOP, "sync", at))

    def torn_sync(self, at: int, torn_bytes: int | None = None) -> "FaultPlan":
        """Tear the ``at``-th fsync: a prefix of the pending bytes becomes
        durable, then the device fail-stops (power loss mid-fsync)."""
        return self.schedule(
            Fault(FaultKind.TORN_WRITE, "sync", at, torn_bytes=torn_bytes)
        )

    # -- matching -----------------------------------------------------------

    def match(self, op: str, index: int) -> Fault | None:
        """First scheduled fault firing for the ``index``-th ``op``.

        Pure lookup: budgets (``times=``) are not consulted or decremented.
        The injecting disk managers use :meth:`consume` instead.
        """
        for fault in self.faults:
            if fault.op == op and fault.fires_at(index):
                return fault
        return None

    def consume(self, op: str, index: int) -> Fault | None:
        """Like :meth:`match`, but honours and decrements firing budgets.

        The budget decrement happens here — *before* the caller raises the
        injected error — so the accounting is exception-safe: a fault that
        fires is charged exactly once no matter how the raise propagates.
        Exhausted faults stop matching (later scheduled faults may still
        fire for the same operation index).
        """
        for position, fault in enumerate(self.faults):
            if fault.op != op or not fault.fires_at(index):
                continue
            if fault.times is not None:
                remaining = self._budget.get(position, fault.times)
                if remaining <= 0:
                    continue
                self._budget[position] = remaining - 1
            return fault
        return None

    def remaining(self, position: int) -> int | None:
        """Remaining firing budget of the ``position``-th scheduled fault
        (None for unbudgeted faults)."""
        fault = self.faults[position]
        if fault.times is None:
            return None
        return self._budget.get(position, fault.times)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, faults={self.faults!r})"
