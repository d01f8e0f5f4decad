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

One probe: a structure that can answer a query says so in
:meth:`DerivedIndex.probe` — given one summary conjunct of a scan, or an
interesting order, it returns a :class:`Probe` or None.  The planner
prices every probe of every structure on the scanned table with one
formula, and one operator runs any probe through
:meth:`DerivedIndex.hits`.  Under this view the Summary-BTree's
``label:count`` keys, the baseline's normalized rows and the trigram
postings are each "feature → OID postings".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.btree import BTree
from repro.catalog.table import Table
from repro.errors import ReproError
from repro.query.ast import Comparison, Expr, Literal, SummaryExpr
from repro.summaries.objects import ClassifierObject, SummaryObject


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


# -- the conjunct shapes structures serve -------------------------------------


def label_chain(expr) -> tuple[str, str] | None:
    """``(instance, label)`` of a ``$.getSummaryObject(I).getLabelValue(L)``
    chain, else None."""
    if not isinstance(expr, SummaryExpr):
        return None
    chain = expr.chain
    if (
        len(chain) == 2
        and chain[0].name == "getSummaryObject"
        and chain[1].name == "getLabelValue"
        and chain[0].args and isinstance(chain[0].args[0], str)
        and chain[1].args and isinstance(chain[1].args[0], str)
    ):
        return chain[0].args[0], chain[1].args[0]
    return None


#: ``a <op> b`` is ``b <FLIPPED[op]> a``.
FLIPPED = {"=": "=", ">": "<", ">=": "<=", "<": ">", "<=": ">="}


def op_bounds(op: str, c) -> tuple:
    """``(lo, hi, lo_inclusive, hi_inclusive)`` of ``value <op> c``."""
    return {
        "=": (c, c, True, True),
        ">": (c, None, False, True),
        ">=": (c, None, True, True),
        "<": (None, c, True, False),
        "<=": (None, c, True, True),
    }[op]


@dataclass(frozen=True)
class IndexableSummaryPred:
    """A ``getLabelValue(label) <op> constant`` conjunct (§4.1 target query)."""

    alias: str
    instance: str
    label: str
    op: str
    constant: int

    def bounds(self) -> tuple[int | None, int | None, bool, bool]:
        """(lo, hi, lo_inclusive, hi_inclusive) for an index probe."""
        return op_bounds(self.op, self.constant)


def match_indexable_summary_pred(expr: Expr) -> IndexableSummaryPred | None:
    """Recognize the Summary-BTree's target-query shape in a conjunct."""
    if not isinstance(expr, Comparison) or expr.op not in FLIPPED:
        return None
    for summary_side, const_side, op in (
        (expr.left, expr.right, expr.op),
        (expr.right, expr.left, FLIPPED[expr.op]),
    ):
        chain = label_chain(summary_side)
        if chain is not None and isinstance(const_side, Literal) \
                and isinstance(const_side.value, int):
            return IndexableSummaryPred(
                summary_side.alias or "", *chain, op, const_side.value
            )
    return None


# -- the probe protocol -------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """How one structure serves one scan: what the planner prices and
    :class:`~repro.query.physical.scans.DerivedIndexScan` runs.  Charges
    are in pages and B-Tree descents; the planner turns them into cost."""

    #: the structure's registry key, resolved again at run time.
    key: tuple[str, str, str]
    #: EXPLAIN renders ``<name>(<table>/<detail>)``.
    name: str
    detail: str
    #: what the structure's :meth:`DerivedIndex.hits` reads back.
    args: tuple = ()
    #: the conjunct served; None for an order-only probe.
    conjunct: Expr | None = None
    #: False when the hits are a candidate superset: the conjunct stays a
    #: residual and is re-checked on every hit.
    exact: bool = True
    #: share of the table's rows hit; None: the conjunct's selectivity.
    selectivity: float | None = None
    #: B-Tree descents that start the probe.
    descents: int = 1
    #: page reads per hit to reach its data tuple.
    pages: int = 1
    #: further B-Tree descents per hit (an OID-index hop).
    hop_descents: float = 0.0
    #: the summary row arrives with the hit, not through the summary cache.
    summaries_with_hit: bool = False
    #: page reads per hit to re-assemble summary objects from normalized
    #: rows (Figure 12); 0 reads them from the summary storage.
    reconstruct_pages: int = 0
    #: ``(instance, label, direction)`` the hits arrive in, if any.
    order: tuple[str, str, str] | None = None


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
    #: whether :meth:`reconstruct` forms the instance's objects from the
    #: structure's own rows (normalized propagation, Figure 12).
    reconstructs = False

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

    def probe(self, conjunct: Expr | None, order, *, alias: str, manager,
              options) -> Probe | None:
        """How this structure serves ``conjunct`` — one summary conjunct
        of a scan of ``alias`` — or, when ``conjunct`` is None, the
        interesting ``order`` (``.instance``, ``.label``, ``.direction``);
        None when it cannot.  ``options`` are the planner's."""
        return None

    def hits(self, probe: Probe, table: Table
             ) -> Iterator[tuple[int, list, dict | None]]:
        """Run ``probe``: per hit, the data tuple's OID, its values and
        its summary objects when they arrive with the hit (else None)."""
        raise NotImplementedError

    def reconstruct(self, oid: int) -> SummaryObject | None:
        """The instance's object of ``oid`` formed from the structure's
        own rows (None when they hold none), when :attr:`reconstructs`."""
        raise NotImplementedError

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


def is_leaf_label(manager, instance: str, label: str) -> bool:
    """Classifier indexes store *leaf* label keys only: inner hierarchy
    nodes (whose value is a subtree sum) and unknown labels are served by
    scan plans."""
    if not manager.has_instance(instance):
        return False
    labels = getattr(manager.instance(instance), "labels", None)
    return labels is not None and label in labels


class ClassifierIndex(DerivedIndex):
    """A structure over one Classifier instance's ``label:count`` pairs
    (the Summary-BTree and the baseline): it turns storage-row events into
    the three maintenance cases of §4.1.2, and answers a label predicate
    or a label order with ``lookup_range``."""

    def probe(self, conjunct, order, *, alias, manager, options):
        if conjunct is None:
            if order is None:
                return None
            instance, label, direction = order.instance, order.label, \
                order.direction
            bounds = (None, None, True, True)
        else:
            matched = match_indexable_summary_pred(conjunct)
            if matched is None or (matched.alias or alias) != alias:
                return None
            instance, label = matched.instance, matched.label
            bounds = matched.bounds()
            on_label = order is not None and \
                (order.instance, order.label) == (instance, label)
            direction = order.direction if on_label else "ASC"
        if instance != self.instance_name or \
                not is_leaf_label(manager, instance, label):
            return None
        return self._probe(conjunct, (label, *bounds), direction, options)

    def _probe(self, conjunct, args: tuple, direction: str,
               options) -> Probe | None:
        """The kind's probe of ``lookup_range(*args)``."""
        raise NotImplementedError

    def hits(self, probe, table):
        found = self.lookup_range(*probe.args)
        if probe.order[2] == "DESC":
            found = reversed(list(found))  # a buffered reversal
        for _count, pointer in found:
            yield self._resolve(pointer, table)

    def _resolve(self, pointer, table) -> tuple[int, list, dict | None]:
        """How one ``lookup_range`` hit becomes a row."""
        raise NotImplementedError

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
