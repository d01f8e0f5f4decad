"""Access-path health registry for degraded-mode planning.

An :class:`AccessPathHealth` tracks which derived access paths
(Summary-BTrees, baseline indexes, keyword indexes, normalized replicas)
are currently *quarantined* — known or suspected corrupt. It is fed from
two directions:

* :meth:`Database.check_integrity` quarantines every path named by an
  audit violation (:meth:`IntegrityReport.unhealthy_paths`), and
* the executor quarantines the paths of a plan whose execution died on a
  mid-query index corruption, before retrying the statement once on the
  fallback plan.

The planner consults the registry (``Planner._path_ok``) and excludes
unhealthy index candidates, so statements re-plan onto heap scans —
slower, but correct, since every index here is *derived* from the
authoritative heaps (the repair contract of ``repro.core.repair``). A
converged repair rebuilds all derived structures and calls
:meth:`restore_all`.

Keys are ``(kind, table lowercase, instance)`` — the keys of the
``Database.derived`` registry — with ``kind`` one of :data:`PATH_KINDS`,
the kinds the derived structures declare.
"""

from __future__ import annotations

from repro.index.derived import KINDS as PATH_KINDS

PathKey = tuple  # (kind, table_lower, instance)


class AccessPathHealth:
    """Tracks quarantined (unhealthy) derived access paths."""

    def __init__(self, metrics=None):
        self.metrics = metrics
        #: (kind, table lowercase, instance) -> human-readable reason.
        self._unhealthy: dict[PathKey, str] = {}

    @staticmethod
    def _key(kind: str, table: str, instance: str) -> PathKey:
        if kind not in PATH_KINDS:
            raise ValueError(f"unknown access-path kind {kind!r}")
        return (kind, table.lower(), instance)

    def quarantine(self, kind: str, table: str, instance: str,
                   reason: str = "integrity violation") -> bool:
        """Mark one path unhealthy; returns True if it was healthy before."""
        key = self._key(kind, table, instance)
        fresh = key not in self._unhealthy
        self._unhealthy[key] = reason
        if fresh and self.metrics is not None:
            self.metrics.inc("resilience.quarantined")
        return fresh

    def restore(self, kind: str, table: str, instance: str) -> bool:
        """Mark one path healthy again; returns True if it was quarantined."""
        removed = self._unhealthy.pop(self._key(kind, table, instance), None)
        if removed is not None and self.metrics is not None:
            self.metrics.inc("resilience.restored")
        return removed is not None

    def restore_all(self) -> int:
        """Clear the registry (a converged repair rebuilt everything)."""
        count = len(self._unhealthy)
        if count and self.metrics is not None:
            self.metrics.inc("resilience.restored", count)
        self._unhealthy.clear()
        return count

    def is_healthy(self, kind: str, table: str, instance: str) -> bool:
        return self._key(kind, table, instance) not in self._unhealthy

    def unhealthy(self) -> list[PathKey]:
        # dict.copy() is one step under the GIL; iterating the live dict
        # while an executor thread quarantines a path could raise.
        return sorted(self._unhealthy.copy())

    def reason(self, kind: str, table: str, instance: str) -> str | None:
        return self._unhealthy.get(self._key(kind, table, instance))

    def __len__(self) -> int:
        return len(self._unhealthy)

    def __bool__(self) -> bool:  # a registry with no quarantines is falsy
        return bool(self._unhealthy)
