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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum

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

    # -- algebra hooks -----------------------------------------------------------

    def copy(self) -> "SummaryObject":
        """Deep copy; operators mutate propagated objects, never the stored
        originals."""
        raise NotImplementedError

    def remove_annotations(self, ann_ids: set[int]) -> None:
        """Eliminate the effect of ``ann_ids`` (projection semantics)."""
        raise NotImplementedError

    def merge(self, other: "SummaryObject") -> None:
        """Fold ``other`` (same instance, different tuple) into this object,
        deduplicating annotations present on both sides."""
        raise NotImplementedError

    def project_to_columns(self, retained: set[str]) -> None:
        """Apply projection: drop the effect of annotations attached only to
        columns outside ``retained``."""
        doomed = {
            ann_id
            for ann_id, columns in self.ann_targets.items()
            if columns and not any(c in retained for c in columns)
        }
        if doomed:
            self.remove_annotations(doomed)

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
        return {int(k): tuple(v) for k, v in data["ann_targets"].items()}


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

    labels: list[str] = field(default_factory=list)
    label_elements: dict[str, set[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label in self.labels:
            self.label_elements.setdefault(label, set())

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

    def label_of(self, ann_id: int) -> str | None:
        for label, members in self.label_elements.items():
            if ann_id in members:
                return label
        return None

    # -- maintenance -------------------------------------------------------------

    def add_annotation(self, ann_id: int, label: str,
                       columns: tuple[str, ...]) -> None:
        if label not in self.label_elements:
            raise SummaryError(f"unknown label {label!r}")
        self.label_elements[label].add(ann_id)
        self.ann_targets[ann_id] = columns

    # -- algebra -------------------------------------------------------------------

    def copy(self) -> "ClassifierObject":
        return ClassifierObject(
            instance_name=self.instance_name,
            tuple_id=self.tuple_id,
            ann_targets=dict(self.ann_targets),
            labels=list(self.labels),
            label_elements={l: set(s) for l, s in self.label_elements.items()},
        )

    def remove_annotations(self, ann_ids: set[int]) -> None:
        for members in self.label_elements.values():
            members -= ann_ids
        for ann_id in ann_ids:
            self.ann_targets.pop(ann_id, None)

    def merge(self, other: "SummaryObject") -> None:
        if not isinstance(other, ClassifierObject):
            raise SummaryError("cannot merge classifier with non-classifier")
        for label, members in other.label_elements.items():
            self.label_elements.setdefault(label, set()).update(members)
            if label not in self.labels:
                self.labels.append(label)
        self._merge_targets(other)

    def to_dict(self) -> dict:
        data = self._base_dict()
        data["labels"] = self.labels
        data["label_elements"] = {
            l: sorted(s) for l, s in self.label_elements.items()
        }
        return data

    @classmethod
    def _from_dict(cls, data: dict) -> "ClassifierObject":
        return cls(
            instance_name=data["instance"],
            tuple_id=data["tuple_id"],
            obj_id=data["obj_id"],
            ann_targets=cls._decode_targets(data),
            labels=list(data["labels"]),
            label_elements={l: set(v) for l, v in data["label_elements"].items()},
        )


# ---------------------------------------------------------------------------
# Snippet
# ---------------------------------------------------------------------------


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
        lowered = [kw.lower() for kw in keywords]
        universe = list(self.snippets.values()) + list(raw_texts or [])
        return any(
            all(kw in text.lower() for kw in lowered) for text in universe
        )

    def contains_union(self, keywords: list[str],
                       raw_texts: list[str] | None = None) -> bool:
        """True when all keywords occur within the UNION of snippets/raws —
        keywords may span multiple annotations of the same tuple."""
        universe = " \n ".join(
            list(self.snippets.values()) + list(raw_texts or [])
        ).lower()
        return all(kw.lower() in universe for kw in keywords)

    # -- maintenance --------------------------------------------------------------

    def add_annotation(self, ann_id: int, columns: tuple[str, ...],
                       snippet: str | None) -> None:
        self.ann_targets[ann_id] = columns
        if snippet is not None:
            self.snippets[ann_id] = snippet

    # -- algebra -------------------------------------------------------------------

    def copy(self) -> "SnippetObject":
        return SnippetObject(
            instance_name=self.instance_name,
            tuple_id=self.tuple_id,
            ann_targets=dict(self.ann_targets),
            snippets=dict(self.snippets),
        )

    def remove_annotations(self, ann_ids: set[int]) -> None:
        for ann_id in ann_ids:
            self.snippets.pop(ann_id, None)
            self.ann_targets.pop(ann_id, None)

    def merge(self, other: "SummaryObject") -> None:
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
        return cls(
            instance_name=data["instance"],
            tuple_id=data["tuple_id"],
            obj_id=data["obj_id"],
            ann_targets=cls._decode_targets(data),
            snippets={int(k): v for k, v in data["snippets"].items()},
        )


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------


@dataclass
class ClusterGroup:
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

    def reelect(self) -> None:
        """Pick a deterministic replacement representative."""
        if self.rep_ann_id not in self.members and self.members:
            self.rep_ann_id = min(self.members)

    def copy(self) -> "ClusterGroup":
        return ClusterGroup(self.rep_ann_id, set(self.members), dict(self.excerpts))


@dataclass
class ClusterObject(SummaryObject):
    """Groups of similar annotations, one representative per group."""

    groups: list[ClusterGroup] = field(default_factory=list)

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

    def copy(self) -> "ClusterObject":
        return ClusterObject(
            instance_name=self.instance_name,
            tuple_id=self.tuple_id,
            ann_targets=dict(self.ann_targets),
            groups=[g.copy() for g in self.groups],
        )

    def remove_annotations(self, ann_ids: set[int]) -> None:
        survivors = []
        for group in self.groups:
            group.members -= ann_ids
            for ann_id in ann_ids:
                group.excerpts.pop(ann_id, None)
            if group.members:
                group.reelect()
                survivors.append(group)
        self.groups = survivors
        for ann_id in ann_ids:
            self.ann_targets.pop(ann_id, None)

    def merge(self, other: "SummaryObject") -> None:
        """Combine overlapping groups; non-overlapping groups propagate
        separately (§2.2 Example 1)."""
        if not isinstance(other, ClusterObject):
            raise SummaryError("cannot merge cluster with non-cluster")
        merged: list[ClusterGroup] = [g.copy() for g in self.groups]
        for incoming in other.groups:
            incoming = incoming.copy()
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
        self.groups = merged
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
                    set(g["members"]),
                    {int(k): v for k, v in g["excerpts"].items()},
                )
                for g in data["groups"]
            ],
        )
