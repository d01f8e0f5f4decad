"""The ``$`` variable: tuple-level summary-set manipulation functions (§3.1).

At query time every tuple ``r`` exposes ``r.$`` — the set of summary objects
attached to it. :class:`SummarySet` implements the paper's summary-set
interface functions and is what summary-based predicates and UDFs receive.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SummaryError
from repro.summaries.objects import SummaryObject, SummaryType


class SummarySet:
    """The set of summary objects attached to one (runtime) tuple: a value
    (the algebra returns new sets), so it may share the cache's objects."""

    def __init__(self, objects: dict[str, SummaryObject] | None = None):
        self._objects: dict[str, SummaryObject] = objects or {}

    # -- paper interface ($-functions) -------------------------------------------

    def get_size(self) -> int:
        """$.getSize() — number of summary objects in the set."""
        return len(self._objects)

    def get_summary_object(self, key: str | int) -> SummaryObject | None:
        """$.getSummaryObject(InstName | i).

        By name: returns the object of that summary instance, or None. By
        position: returns the i-th object (set order is not semantically
        meaningful; positional access exists for UDF iteration).
        """
        if isinstance(key, int):
            ordered = self.objects()
            if not 0 <= key < len(ordered):
                return None
            return ordered[key]
        return self._objects.get(key)

    # -- engine-side helpers --------------------------------------------------------

    def objects(self) -> list[SummaryObject]:
        """Objects in a stable (instance-name) order."""
        return [self._objects[k] for k in sorted(self._objects)]

    def instance_names(self) -> list[str]:
        return sorted(self._objects)

    def __iter__(self) -> Iterator[SummaryObject]:
        return iter(self.objects())

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, instance_name: str) -> bool:
        return instance_name in self._objects

    def require(self, instance_name: str) -> SummaryObject:
        obj = self._objects.get(instance_name)
        if obj is None:
            raise SummaryError(f"no summary object for instance {instance_name!r}")
        return obj

    def filter(self, predicate) -> "SummarySet":
        """New set keeping only objects where ``predicate(obj)`` is True —
        the object-level projection the F operator performs."""
        return SummarySet(
            {k: v for k, v in self._objects.items() if predicate(v)}
        )

    def of_type(self, stype: SummaryType) -> list[SummaryObject]:
        return [o for o in self.objects() if o.summary_type is stype]

    def project_to_columns(self, retained: set[str]) -> "SummarySet":
        """This set without the effect of annotations on projected-out
        columns (§2.2 step 1); itself when no object changes."""
        projected = {
            name: obj.project_to_columns(retained)
            for name, obj in self._objects.items()
        }
        if all(projected[name] is obj for name, obj in self._objects.items()):
            return self
        return SummarySet(projected)

    def merge(self, *others: "SummarySet") -> "SummarySet":
        """The merge of this set with ``others`` (join/aggregation
        semantics): one instance's objects merge, with annotation dedup, in
        one copy; an instance's only object propagates as it is."""
        if not others:
            return self
        by_name: dict[str, list[SummaryObject]] = {}
        for summary_set in (self, *others):
            for name, obj in summary_set._objects.items():
                by_name.setdefault(name, []).append(obj)
        return SummarySet(
            {name: objs[0].merge(*objs[1:]) for name, objs in by_name.items()}
        )

    def to_display(self) -> dict[str, list]:
        """Instance -> Rep[] — what end-users see propagated (§2.1)."""
        return {name: self._objects[name].rep() for name in sorted(self._objects)}
