"""Runtime tuples flowing through the operator pipeline.

A :class:`QTuple` carries its data values (qualified ``alias.column``
names), a per-alias view of its summary sets, and the (table, oid)
provenance of each contributing base tuple. After a join, every alias points
at the *same* merged :class:`~repro.summaries.functions.SummarySet` —
matching §2.2 where the join merges the summary objects of the joined
tuples — while the per-alias mapping keeps pre-merge join predicates
(``p(r.$, s.$)``) expressible.
"""

from __future__ import annotations

import pickle

from repro.errors import QueryError
from repro.summaries.functions import SummarySet


def _distinct(summary_sets: dict[str, SummarySet]) -> list[SummarySet]:
    seen: list[SummarySet] = []
    for s in summary_sets.values():
        if not any(s is other for other in seen):
            seen.append(s)
    return seen


def resolve_summary_set(
    summary_sets: dict[str, SummarySet], alias: str | None
) -> SummarySet:
    """The set ``alias.$`` names in a per-alias ``summary_sets`` dict (the
    only distinct set when no alias is given) — the one rule behind both a
    tuple's ``$`` and a batch's summary slot."""
    if alias is not None:
        if alias not in summary_sets:
            raise QueryError(f"no summary set for alias {alias!r}")
        return summary_sets[alias]
    distinct = _distinct(summary_sets)
    if len(distinct) == 1:
        return distinct[0]
    if not distinct:
        return SummarySet()
    raise QueryError("'$' is ambiguous: qualify it with an alias")


class QTuple:
    """One runtime tuple: values + summary set(s) + provenance."""

    __slots__ = ("columns", "values", "summary_sets", "provenance")

    def __init__(
        self,
        columns: list[str],
        values: list[object],
        summary_sets: dict[str, SummarySet] | None = None,
        provenance: dict[str, tuple[str, int]] | None = None,
    ):
        self.columns = columns
        self.values = values
        self.summary_sets = summary_sets or {}
        self.provenance = provenance or {}

    # -- value access --------------------------------------------------------------

    def get(self, name: str) -> object:
        """Value of a qualified (``alias.column``) or unique bare column."""
        if name in self.columns:
            return self.values[self.columns.index(name)]
        suffix = "." + name
        matches = [i for i, c in enumerate(self.columns) if c.endswith(suffix)]
        if len(matches) == 1:
            return self.values[matches[0]]
        if not matches:
            raise QueryError(f"no column {name!r} in {self.columns}")
        raise QueryError(f"ambiguous column {name!r} in {self.columns}")

    def has_column(self, name: str) -> bool:
        if name in self.columns:
            return True
        suffix = "." + name
        return sum(1 for c in self.columns if c.endswith(suffix)) == 1

    # -- summaries -------------------------------------------------------------------

    def summary_set(self, alias: str | None = None) -> SummarySet:
        """The summary set visible through ``alias.$`` (or the tuple's only
        set when no alias is given)."""
        return resolve_summary_set(self.summary_sets, alias)

    def distinct_summary_sets(self) -> list[SummarySet]:
        return _distinct(self.summary_sets)

    def merged_summary_set(self) -> SummarySet:
        """One merged set over all aliases (what the user sees propagated)."""
        distinct = self.distinct_summary_sets()
        if not distinct:
            return SummarySet()
        return distinct[0].merge(*distinct[1:])

    # -- construction helpers ------------------------------------------------------------

    @staticmethod
    def join(left: "QTuple", right: "QTuple") -> "QTuple":
        """Concatenate values and merge summary sets (§2.2 join semantics).

        The merge deduplicates annotations attached to tuples on both sides;
        instances present on only one side propagate unchanged.
        """
        merged = left.merged_summary_set().merge(right.merged_summary_set())
        sets = {alias: merged for alias in
                list(left.summary_sets) + list(right.summary_sets)}
        return QTuple(
            left.columns + right.columns,
            left.values + right.values,
            sets,
            {**left.provenance, **right.provenance},
        )

    # -- serialization (external sort spills) ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Spill encoding for external-sort runs.

        Pickle keeps every value type-faithful (tuples stay tuples, bytes
        stay bytes — JSON silently converted or crashed on both) and its
        memo preserves shared SummarySet identity across aliases, which
        ``distinct_summary_sets`` relies on. Spill bytes never leave the
        process's own temporary heap pages, so unpickling reads only what
        this engine just wrote.
        """
        return pickle.dumps(
            (self.columns, self.values, self.summary_sets, self.provenance),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @staticmethod
    def from_bytes(data: bytes) -> "QTuple":
        columns, values, summary_sets, provenance = pickle.loads(data)
        return QTuple(columns, values, summary_sets, provenance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{c}={v!r}" for c, v in zip(self.columns, self.values))
        return f"QTuple({pairs})"
