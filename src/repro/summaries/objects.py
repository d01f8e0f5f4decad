"""Summary objects — the paper's 5-ary vector
``{ObjID, InstanceID, TupleID, Rep[], Elements[][]}`` (§2.1).

Three concrete types mirror the three summarization families:

* :class:`ClassifierObject` — ``Rep[] = [(classLabel, annotationCnt)]``
* :class:`SnippetObject`   — ``Rep[] = [(snippetValue)]``
* :class:`ClusterObject`   — ``Rep[] = [(text, groupSize)]``

Every object also records, per contributing raw annotation, which columns of
its tuple the annotation covers (``ann_targets``). That is the information
the projection operator needs to *eliminate the effect* of annotations whose
columns are projected out (§2.2, Example 1), and what the join merge needs to
avoid double counting annotations shared between the joined tuples.

Counts are always derived from the Elements sets, so dedup under merge is
automatic: merging two classifier objects with 5 common Comment annotations
yields ``|A ∪ B|``, not ``|A| + |B|`` — exactly the 22-not-27 example of
Figure 3.

Objects decoded from storage are immutable (frozensets, tuples,
:class:`FrozenMap`), so readers may share them: the query algebra returns
new values, and maintenance mutates only a writable :meth:`copy`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from repro.errors import SummaryError

_obj_id_counter = itertools.count(1)


def _next_obj_id() -> int:
    return next(_obj_id_counter)


class SummaryType(Enum):
    """The three summary-type families supported by InsightNotes."""

    CLASSIFIER = "Classifier"
    SNIPPET = "Snippet"
    CLUSTER = "Cluster"


#: Column-coverage of one annotation on its tuple; () means row-level.
AnnTargets = dict[int, tuple[str, ...]]


class FrozenMap(dict):
    """A dict that refuses every in-place change yet still pickles
    (external-sort spills pickle rows; ``MappingProxyType`` cannot)."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("stored summary objects are immutable")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return FrozenMap, (dict(self),)


@dataclass
class SummaryObject:
    """Base class for the three concrete summary-object types."""

    instance_name: str
    tuple_id: int
    obj_id: int = field(default_factory=_next_obj_id)
    #: ann_id -> columns covered on this tuple (empty tuple = row-level)
    ann_targets: AnnTargets = field(default_factory=dict)

    #: ``len(to_bytes())`` as of the storage row this object was last read
    #: from or written to (None: never stored).  SummaryStorage measures it
    #: while the row's bytes are in hand, so Figure 6's AvgObjectSize is
    #: kept without serializing anything twice.  Deliberately not a
    #: dataclass field: it describes the stored row, not the value.
    stored_size = None

    # -- interface common to all types (paper §3.1) -----------------------------

    @property
    def summary_type(self) -> SummaryType:
        raise NotImplementedError

    def get_summary_type(self) -> str:
        """O.getSummaryType() — "Classifier", "Snippet", or "Cluster"."""
        return self.summary_type.value

    def get_summary_name(self) -> str:
        """O.getSummaryName() — the summary instance name."""
        return self.instance_name

    def get_size(self) -> int:
        """O.getSize() — number of representatives in Rep[]."""
        return len(self.rep())

    def rep(self) -> list:
        """The Rep[] array (type-specific shape)."""
        raise NotImplementedError

    def elements(self) -> list[list[int]]:
        """Elements[][]: contributing annotation ids per representative."""
        raise NotImplementedError

    def all_annotation_ids(self) -> set[int]:
        """Every raw annotation contributing to this object."""
        return set(self.ann_targets)

    def stray_annotation_ids(self, known: set[int]) -> set[int]:
        """The ids a stored object must not hold: targets absent from
        ``known`` (the annotation store's ids) and Elements[][] members
        its targets lack.  The audit flags them and repair strips them."""
        targets = self.all_annotation_ids()
        return (targets - known) | (set().union(*self.elements()) - targets)

    # -- algebra hooks -----------------------------------------------------------

    def copy(self) -> "SummaryObject":
        """A writable twin — same ``obj_id`` and ``stored_size``, every
        container thawed: the only way to change an object read from
        storage (``copy.copy``'s effect, minus its dispatch)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(
            self.__dict__, ann_targets=dict(self.ann_targets), **self._thawed()
        )
        twin.__dict__.pop("_search_memo", None)  # a writable twin may change
        return twin

    def _thawed(self) -> dict:
        """Mutable copies of the subclass's own containers, by field."""
        raise NotImplementedError

    def remove_annotations(self, ann_ids: set[int]) -> None:
        """Eliminate the effect of ``ann_ids`` in place (writers only)."""
        raise NotImplementedError

    def _absorb(self, other: "SummaryObject") -> None:
        """In-place fold of ``other`` into this (writable) object."""
        raise NotImplementedError

    def merge(self, *others: "SummaryObject") -> "SummaryObject":
        """A new object folding ``others`` (same instance, other tuples)
        into this one, deduplicating the annotations they share; itself
        when there are none."""
        if not others:
            return self
        merged = self.copy()
        for other in others:
            merged._absorb(other)
        return merged

    def project_to_columns(self, retained: set[str]) -> "SummaryObject":
        """Apply projection: this object without the effect of annotations
        attached only to columns outside ``retained`` (itself when there
        are none)."""
        doomed = {
            ann_id
            for ann_id, columns in self.ann_targets.items()
            if columns and not any(c in retained for c in columns)
        }
        if not doomed:
            return self
        projected = self.copy()
        projected.remove_annotations(doomed)
        return projected

    def _merge_targets(self, other: "SummaryObject") -> None:
        for ann_id, columns in other.ann_targets.items():
            if ann_id in self.ann_targets:
                mine = self.ann_targets[ann_id]
                if not mine or not columns:
                    self.ann_targets[ann_id] = ()
                else:
                    self.ann_targets[ann_id] = tuple(
                        sorted(set(mine) | set(columns))
                    )
            else:
                self.ann_targets[ann_id] = columns

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "SummaryObject":
        stype = SummaryType(data["type"])
        cls = {
            SummaryType.CLASSIFIER: ClassifierObject,
            SummaryType.SNIPPET: SnippetObject,
            SummaryType.CLUSTER: ClusterObject,
        }[stype]
        return cls._from_dict(data)

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), separators=(",", ":")).encode("utf-8")

    @staticmethod
    def from_bytes(data: bytes) -> "SummaryObject":
        return SummaryObject.from_dict(json.loads(data.decode("utf-8")))

    def _base_dict(self) -> dict:
        return {
            "type": self.summary_type.value,
            "instance": self.instance_name,
            "tuple_id": self.tuple_id,
            "obj_id": self.obj_id,
            "ann_targets": {str(k): list(v) for k, v in self.ann_targets.items()},
        }

    @staticmethod
    def _decode_targets(data: dict) -> AnnTargets:
        targets = data["ann_targets"]
        return FrozenMap(zip(map(int, targets), map(tuple, targets.values())))


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


@dataclass
class ClassifierObject(SummaryObject):
    """Counts of annotations per user-defined class label.

    ``label_elements`` maps each label (in the order declared at instance
    creation) to the set of annotation ids classified under it; the Rep[]
    counts are the sizes of those sets.
    """

    labels: tuple[str, ...] = ()
    label_elements: dict[str, set[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        for label in self.labels:
            if label not in self.label_elements:
                self.label_elements[label] = set()

    @property
    def summary_type(self) -> SummaryType:
        return SummaryType.CLASSIFIER

    def rep(self) -> list[tuple[str, int]]:
        """[(classLabel, annotationCnt)] in declared label order."""
        return [(label, len(self.label_elements[label])) for label in self.labels]

    def elements(self) -> list[list[int]]:
        return [sorted(self.label_elements[label]) for label in self.labels]

    # -- §3.1 Classifier functions --------------------------------------------

    def get_label_name(self, i: int) -> str:
        """O.getLabelName(i) — class label at position ``i``."""
        if not 0 <= i < len(self.labels):
            raise SummaryError(f"label position {i} out of range")
        return self.labels[i]

    def get_label_value(self, key: int | str) -> int:
        """O.getLabelValue(i | label) — the annotationCnt for that label."""
        if isinstance(key, int):
            return len(self.label_elements[self.get_label_name(key)])
        if key not in self.label_elements:
            raise SummaryError(
                f"classifier {self.instance_name!r} has no label {key!r}"
            )
        return len(self.label_elements[key])

    # -- maintenance -------------------------------------------------------------

    def add_annotation(self, ann_id: int, label: str,
                       columns: tuple[str, ...]) -> None:
        if label not in self.label_elements:
            raise SummaryError(f"unknown label {label!r}")
        self.ann_targets[ann_id] = columns
        self.label_elements[label].add(ann_id)

    # -- algebra -------------------------------------------------------------------

    def _thawed(self) -> dict:
        return {"label_elements": {
            l: set(s) for l, s in self.label_elements.items()
        }}

    def remove_annotations(self, ann_ids: set[int]) -> None:
        for members in self.label_elements.values():
            members.difference_update(ann_ids)
        for ann_id in ann_ids:
            self.ann_targets.pop(ann_id, None)

    def _absorb(self, other: "SummaryObject") -> None:
        if not isinstance(other, ClassifierObject):
            raise SummaryError("cannot merge classifier with non-classifier")
        for label, members in other.label_elements.items():
            self.label_elements.setdefault(label, set()).update(members)
            if label not in self.labels:
                self.labels += (label,)
        self._merge_targets(other)

    def to_dict(self) -> dict:
        data = self._base_dict()
        data["labels"] = list(self.labels)
        data["label_elements"] = {
            l: sorted(s) for l, s in self.label_elements.items()
        }
        return data

    @classmethod
    def _from_dict(cls, data: dict) -> "ClassifierObject":
        elements = data["label_elements"]
        return cls(
            instance_name=data["instance"],
            tuple_id=data["tuple_id"],
            obj_id=data["obj_id"],
            ann_targets=cls._decode_targets(data),
            labels=tuple(data["labels"]),
            label_elements=FrozenMap(zip(
                elements, map(frozenset, elements.values())
            )),
        )


# ---------------------------------------------------------------------------
# Snippet
# ---------------------------------------------------------------------------


class SearchTexts(NamedTuple):
    """A snippet object's keyword-search universe, lowered once: its texts
    joined with ``" \n "``, and the offset each text starts at.

    Lowering each text and then joining equals lowering the join: the
    only context ``str.lower`` reads is a capital sigma's neighbouring
    letters, and the separator holds none."""

    joined: str
    starts: tuple[int, ...]

    @classmethod
    def of(cls, texts: list[str]) -> "SearchTexts":
        lowered = [text.lower() for text in texts]
        starts = list(itertools.accumulate(
            (len(text) + 3 for text in lowered[:-1]), initial=0
        )) if lowered else []
        return cls(" \n ".join(lowered), tuple(starts))

    def contains_single(self, keywords: list[str]) -> bool:
        """All keywords within any ONE text."""
        lowered = [kw.lower() for kw in keywords]
        find = self.joined.find
        ends = [start - 3 for start in self.starts[1:]] + [len(self.joined)]
        return any(
            all(find(kw, start, end) >= 0 for kw in lowered)
            for start, end in zip(self.starts, ends)
        )

    def contains_union(self, keywords: list[str]) -> bool:
        """All keywords within the joined texts."""
        return all(kw.lower() in self.joined for kw in keywords)


@dataclass
class SnippetObject(SummaryObject):
    """Short snippets standing in for large annotations.

    ``snippets`` maps annotation id -> extracted snippet text (only
    annotations longer than the instance threshold get one); ``ann_targets``
    tracks *every* annotation of the tuple so keyword search over "the raw
    annotations" (§3.1 containsSingle/containsUnion) knows the full universe.
    """

    snippets: dict[int, str] = field(default_factory=dict)

    @property
    def summary_type(self) -> SummaryType:
        return SummaryType.SNIPPET

    def rep(self) -> list[str]:
        """[(snippetValue)] — snippet texts ordered by annotation id."""
        return [self.snippets[a] for a in sorted(self.snippets)]

    def elements(self) -> list[list[int]]:
        return [[a] for a in sorted(self.snippets)]

    # -- §3.1 Snippet functions ------------------------------------------------

    def get_snippet(self, i: int) -> str:
        """O.getSnippet(i) — snippet value at position ``i``."""
        reps = self.rep()
        if not 0 <= i < len(reps):
            raise SummaryError(f"snippet position {i} out of range")
        return reps[i]

    def contains_single(self, keywords: list[str],
                        raw_texts: list[str] | None = None) -> bool:
        """True when ALL keywords occur within any ONE snippet (or one raw
        annotation, when ``raw_texts`` are supplied by the executor)."""
        return self._universe(raw_texts).contains_single(keywords)

    def contains_union(self, keywords: list[str],
                       raw_texts: list[str] | None = None) -> bool:
        """True when all keywords occur within the UNION of snippets/raws —
        keywords may span multiple annotations of the same tuple."""
        return self._universe(raw_texts).contains_union(keywords)

    def _universe(self, raw_texts: list[str] | None) -> SearchTexts:
        if raw_texts is None:
            return self.search_texts()
        return SearchTexts.of(list(self.snippets.values()) + list(raw_texts))

    def search_texts(self, raw_texts=None) -> SearchTexts:
        """The keyword-search universe: the snippets, then — when
        ``raw_texts`` (a sorted id list -> their texts) is given — the raw
        texts of :meth:`all_annotation_ids` in id order.

        Both forms are memoized on an object decoded from storage
        (``FrozenMap`` containers): its snippets and annotation ids never
        change, nor do the texts of annotations, and a row rewrite decodes
        a new object.  :meth:`copy` leaves the memos behind."""
        full = raw_texts is not None
        memos = self.__dict__.get("_search_memo")
        if memos is not None and full in memos:
            return memos[full]
        texts = list(self.snippets.values())
        if full:
            texts += raw_texts(sorted(self.ann_targets))
        universe = SearchTexts.of(texts)
        if type(self.snippets) is FrozenMap \
                and type(self.ann_targets) is FrozenMap:
            self.__dict__.setdefault("_search_memo", {})[full] = universe
        return universe

    def has_search_texts(self) -> bool:
        """Whether the full universe is built: :meth:`search_texts` then
        answers without reading a raw text."""
        return True in self.__dict__.get("_search_memo", ())

    # -- maintenance --------------------------------------------------------------

    def add_annotation(self, ann_id: int, columns: tuple[str, ...],
                       snippet: str | None) -> None:
        self.ann_targets[ann_id] = columns
        if snippet is not None:
            self.snippets[ann_id] = snippet

    # -- algebra -------------------------------------------------------------------

    def _thawed(self) -> dict:
        return {"snippets": dict(self.snippets)}

    def remove_annotations(self, ann_ids: set[int]) -> None:
        for ann_id in ann_ids:
            self.snippets.pop(ann_id, None)
            self.ann_targets.pop(ann_id, None)

    def _absorb(self, other: "SummaryObject") -> None:
        if not isinstance(other, SnippetObject):
            raise SummaryError("cannot merge snippet with non-snippet")
        self.snippets.update(other.snippets)
        self._merge_targets(other)

    def to_dict(self) -> dict:
        data = self._base_dict()
        data["snippets"] = {str(k): v for k, v in self.snippets.items()}
        return data

    @classmethod
    def _from_dict(cls, data: dict) -> "SnippetObject":
        snippets = data["snippets"]
        return cls(
            instance_name=data["instance"],
            tuple_id=data["tuple_id"],
            obj_id=data["obj_id"],
            ann_targets=cls._decode_targets(data),
            snippets=FrozenMap(zip(map(int, snippets), snippets.values())),
        )


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------


class ClusterGroup(NamedTuple):
    """One group of similar annotations inside a Cluster summary object."""

    rep_ann_id: int
    members: set[int]
    #: member id -> short excerpt, kept so a replacement representative can
    #: be elected at query time when the current one is projected away
    #: (Figure 3: A5 replaces the dropped A2).
    excerpts: dict[int, str]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def rep_text(self) -> str:
        return self.excerpts.get(self.rep_ann_id, "")


@dataclass
class ClusterObject(SummaryObject):
    """Groups of similar annotations, one representative per group."""

    groups: tuple[ClusterGroup, ...] = ()

    def __post_init__(self) -> None:
        self.groups = tuple(self.groups)

    @property
    def summary_type(self) -> SummaryType:
        return SummaryType.CLUSTER

    def rep(self) -> list[tuple[str, int]]:
        """[(representative text, groupSize)] — largest groups first."""
        ordered = sorted(self.groups, key=lambda g: (-g.size, g.rep_ann_id))
        return [(g.rep_text, g.size) for g in ordered]

    def elements(self) -> list[list[int]]:
        ordered = sorted(self.groups, key=lambda g: (-g.size, g.rep_ann_id))
        return [sorted(g.members) for g in ordered]

    def get_group_size(self, i: int) -> int:
        """Size of the group at Rep[] position ``i``."""
        reps = self.rep()
        if not 0 <= i < len(reps):
            raise SummaryError(f"group position {i} out of range")
        return reps[i][1]

    def get_representative(self, i: int) -> str:
        """Representative text of the group at Rep[] position ``i``."""
        reps = self.rep()
        if not 0 <= i < len(reps):
            raise SummaryError(f"group position {i} out of range")
        return reps[i][0]

    def largest_group_size(self) -> int:
        return max((g.size for g in self.groups), default=0)

    # -- algebra ---------------------------------------------------------------------

    def _thawed(self) -> dict:
        return {"groups": tuple([
            ClusterGroup(g.rep_ann_id, set(g.members), dict(g.excerpts))
            for g in self.groups
        ])}

    def remove_annotations(self, ann_ids: set[int]) -> None:
        for ann_id in ann_ids:
            self.ann_targets.pop(ann_id, None)
        survivors = []
        for group in self.groups:
            members = group.members - ann_ids
            if not members:
                continue
            rep = group.rep_ann_id  # re-elected when projected away
            survivors.append(ClusterGroup(
                rep if rep in members else min(members),
                members,
                {m: t for m, t in group.excerpts.items() if m not in ann_ids},
            ))
        self.groups = tuple(survivors)

    def _absorb(self, other: "SummaryObject") -> None:
        """Combine overlapping groups; non-overlapping groups propagate
        separately (§2.2 Example 1)."""
        if not isinstance(other, ClusterObject):
            raise SummaryError("cannot merge cluster with non-cluster")
        merged = list(self.groups)
        for incoming in other.groups:
            # Keep folding until the incoming group overlaps nothing.
            while True:
                overlap = next(
                    (g for g in merged if g.members & incoming.members), None
                )
                if overlap is None:
                    break
                merged.remove(overlap)
                # Larger side keeps its representative (deterministic).
                if (overlap.size, -overlap.rep_ann_id) >= (
                    incoming.size,
                    -incoming.rep_ann_id,
                ):
                    keeper_rep = overlap.rep_ann_id
                else:
                    keeper_rep = incoming.rep_ann_id
                incoming = ClusterGroup(
                    keeper_rep,
                    overlap.members | incoming.members,
                    {**overlap.excerpts, **incoming.excerpts},
                )
            merged.append(incoming)
        self.groups = tuple(merged)
        self._merge_targets(other)

    def to_dict(self) -> dict:
        data = self._base_dict()
        data["groups"] = [
            {
                "rep": g.rep_ann_id,
                "members": sorted(g.members),
                "excerpts": {str(k): v for k, v in g.excerpts.items()},
            }
            for g in self.groups
        ]
        return data

    @classmethod
    def _from_dict(cls, data: dict) -> "ClusterObject":
        return cls(
            instance_name=data["instance"],
            tuple_id=data["tuple_id"],
            obj_id=data["obj_id"],
            ann_targets=cls._decode_targets(data),
            groups=[
                ClusterGroup(
                    g["rep"],
                    frozenset(g["members"]),
                    FrozenMap(zip(map(int, g["excerpts"]),
                                  g["excerpts"].values())),
                )
                for g in data["groups"]
            ],
        )
