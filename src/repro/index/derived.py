"""The derived-structure protocol.

Every posting structure in this package is a pure function of one table's
de-normalized summary storage: the Summary-BTree and the Figure 4(c)
baseline (§4), the trigram keyword index and the normalized snippet
replica (Figures 11–12).  Each subclasses :class:`DerivedIndex`:

* it hears one event stream, its table's storage-row channel —
  ``on_objects_write(oid, objects, previous)`` after a row is written and
  ``on_objects_delete(oid, previous)`` before it is dropped, ``previous``
  being the replaced row's :func:`~repro.summaries.maintenance.row_footprint`;
* ``derive(oid, objects)`` lists the entries one stored row should
  contribute and ``entries()`` the entries the structure holds, so one
  :meth:`DerivedIndex.verify` compares the two over the whole storage;
* ``parts()`` names its B-Trees and tables, and ``_create_parts(pool)``
  makes them empty, so one :meth:`DerivedIndex.reset`, one
  :meth:`DerivedIndex.rebuild` and one :meth:`DerivedIndex.pages_used`
  serve every kind.

The owning Database keeps every structure in one registry keyed by
:attr:`DerivedIndex.key` — ``(kind, table, instance)``, the access-path
health key — and integrity, repair, metrics, unlink and the planner
iterate it.  Adding a structure is one subclass (its ``kind`` joins
:data:`KINDS`, which the access-path health registry accepts) plus the
``Database.create_*`` DDL that registers an instance of it.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable

from repro.btree import BTree
from repro.catalog.table import Table
from repro.errors import ReproError
from repro.summaries.objects import ClassifierObject


#: every ``kind`` a structure class declares: the access paths the
#: health registry can quarantine.
KINDS: set[str] = set()


def _drop(part: BTree | Table) -> None:
    """Free a part's pages; a corrupt tree or heap is abandoned rather
    than failing the repair that resets it."""
    pieces = [part] if isinstance(part, BTree) else [
        part.oid_index, *part.secondary_indexes.values(), part.heap
    ]
    for piece in pieces:
        try:
            piece.drop()
        except ReproError:
            pass


def _pages(part: BTree | Table) -> int:
    if isinstance(part, BTree):
        return part.node_count()
    return part.heap.num_pages + sum(
        tree.node_count()
        for tree in (part.oid_index, *part.secondary_indexes.values())
    )


class DerivedIndex:
    """A structure derived from one ``(table, summary instance)`` pair."""

    #: health/registry kind: "summary", "baseline", "keyword" or "replica".
    kind = ""
    table_name: str
    instance_name: str
    #: probes served (``index.<kind>.<table>.<instance>.probes``).
    probes = 0
    #: automatic key-width rebuilds (only the Summary-BTree widens).
    rebuilds = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            KINDS.add(cls.kind)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.table_name, self.instance_name)

    @property
    def location(self) -> str:
        """How integrity and repair reports name this structure."""
        return f"{self.kind} index {self.table_name}.{self.instance_name}"

    # -- what each kind implements -------------------------------------------

    def _create_parts(self, pool) -> None:
        """(Re)create the structure's trees and tables, empty, in ``pool``."""
        raise NotImplementedError

    def parts(self) -> dict[str, BTree | Table]:
        """The structure's trees and tables by name."""
        raise NotImplementedError

    def derive(self, oid: int, objects: dict) -> list[Hashable]:
        """The entries the stored row ``objects`` of ``oid`` should
        contribute."""
        raise NotImplementedError

    def entries(self) -> Iterable[Hashable]:
        """The entries the structure holds, in :meth:`derive`'s form."""
        raise NotImplementedError

    def on_objects_write(self, oid: int, objects: dict, previous) -> None:
        """The row of ``oid`` now holds ``objects``; ``previous`` is the
        footprint of the row it replaced (None when it created the row)."""
        raise NotImplementedError

    def on_objects_delete(self, oid: int, previous) -> None:
        """The row of ``oid`` (footprint ``previous``) is being dropped."""
        raise NotImplementedError

    def on_tuple_move(self, oid: int, old_rid) -> None:
        """The data tuple ``oid`` moved off ``old_rid``; only entries that
        point into the data heap care."""

    # -- shared by every kind -------------------------------------------------

    def pages_used(self) -> int:
        """Pages of every part: what the structure costs (Figure 7)."""
        return sum(_pages(part) for part in self.parts().values())

    def reset(self) -> None:
        """Drop every part and start empty."""
        parts = list(self.parts().values())
        for part in parts:
            _drop(part)
        self._create_parts(parts[0].pool)

    def bulk_build(self, storage) -> int:
        """Index every stored row into an empty structure; returns the
        entries held afterwards."""
        for oid, objects in storage.scan():
            self.on_objects_write(oid, objects, None)
        return len(self)

    def rebuild(self, storage) -> int:
        """Re-derive the structure from ``storage`` (repair path)."""
        self.reset()
        return self.bulk_build(storage)

    def verify(self, storage) -> list[tuple[str, str]]:
        """``(violation kind, detail)`` for every difference between what
        ``storage`` derives and what the structure holds.  A row whose
        entries cannot be derived names a pointer that no longer
        resolves (the Summary-BTree's backward pointers)."""
        problems: list[tuple[str, str]] = []
        expected: Counter = Counter()
        for oid, objects in storage.scan():
            try:
                expected.update(self.derive(oid, objects))
            except ReproError as exc:
                problems.append((
                    "dangling-backward-pointer",
                    f"cannot derive the entries of OID {oid}: {exc}",
                ))
        held = Counter(self.entries())
        problems += [
            ("index-mismatch", f"missing entry {entry!r}")
            for entry in sorted((expected - held).elements())
        ]
        problems += [
            ("index-mismatch", f"stale entry {entry!r}")
            for entry in sorted((held - expected).elements())
        ]
        return problems

    def __len__(self) -> int:
        raise NotImplementedError


def classifier_counts(previous, instance: str) -> dict[str, int] | None:
    """The label counts ``instance`` had in a row footprint (None when
    the row or the object was absent, or is not a classifier)."""
    if previous is None or instance not in previous:
        return None
    return previous[instance][1]


class ClassifierIndex(DerivedIndex):
    """A structure over one Classifier instance's ``label:count`` pairs
    (the Summary-BTree and the baseline): it turns storage-row events into
    the three maintenance cases of §4.1.2."""

    def on_objects_write(self, oid: int, objects: dict, previous) -> None:
        obj = objects.get(self.instance_name)
        if not isinstance(obj, ClassifierObject):
            return
        before = classifier_counts(previous, self.instance_name)
        if before is None:
            self.on_summary_insert(oid, obj)
        else:
            self.on_summary_update(oid, before, dict(obj.rep()))

    def on_objects_delete(self, oid: int, previous) -> None:
        counts = classifier_counts(previous, self.instance_name)
        if counts is not None:
            self.on_tuple_delete(oid, counts)

    def on_summary_insert(self, oid: int, obj) -> None:
        """Adding Annotation — Insertion: index every label of ``obj``."""
        raise NotImplementedError

    def on_summary_update(self, oid: int, old_counts: dict[str, int],
                          new_counts: dict[str, int]) -> None:
        """Adding Annotation — Update: re-key the changed labels."""
        raise NotImplementedError

    def on_tuple_delete(self, oid: int, counts: dict[str, int]) -> None:
        """Deleting tuple: drop every entry of the object."""
        raise NotImplementedError
