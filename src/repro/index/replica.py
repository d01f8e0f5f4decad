"""Normalized replicas of non-classifier summary objects (Figure 12).

The Baseline scheme of §4.1 stores summary objects in *normalized* form —
"replicating their components".  For Classifier-type objects that replica
lives inside :class:`~repro.index.baseline.BaselineClassifierIndex`; this
module adds the snippet counterpart so the Figure 12 experiment — "the
Baseline scheme will not only evaluate the predicates, but also form the
summary objects for propagation" — can form a *complete* summary set from
primitives.  A snippet object normalizes into two row sets:

* one ``(data_oid, pos, ann_id, snippet)`` row per representative in
  ``<table>_<instance>_snip_norm``, and
* one ``(data_oid, ann_id, columns)`` row per contributing annotation in
  ``<table>_<instance>_member_norm`` — the Elements[][]/target references
  without which keyword search over "the raw annotations" (§3.1) and
  projection-time annotation elimination cannot work.

:meth:`reconstruct` re-assembles a :class:`SnippetObject` by probing the
``data_oid`` B-Trees and reading every row back.  That per-tuple join work
— one row per raw annotation — is precisely the cost the de-normalized
R_SummaryStorage exists to avoid, and it grows with annotation density
exactly as Figure 12 shows.

Freshness: the replica is a :class:`~repro.index.derived.DerivedIndex`
and hears every storage-row write and delete of its table, so
incremental annotation maintenance keeps it consistent.
"""

from __future__ import annotations

from typing import Iterator

from repro.catalog.schema import Column, Schema
from repro.catalog.table import Table
from repro.index.derived import DerivedIndex
from repro.storage.buffer import BufferPool
from repro.storage.record import ValueType
from repro.summaries.objects import SnippetObject, SummaryObject

_SNIP_SCHEMA = Schema(
    [
        Column("data_oid", ValueType.INT, nullable=False),
        Column("pos", ValueType.INT, nullable=False),
        Column("ann_id", ValueType.INT, nullable=False),
        Column("snippet", ValueType.TEXT, nullable=False),
    ]
)

_MEMBER_SCHEMA = Schema(
    [
        Column("data_oid", ValueType.INT, nullable=False),
        Column("ann_id", ValueType.INT, nullable=False),
        Column("columns", ValueType.TEXT, nullable=False),
    ]
)


class NormalizedSnippetReplica(DerivedIndex):
    """Normalized rows + ``data_oid`` B-Trees for one snippet instance."""

    kind = "replica"
    reconstructs = True

    def __init__(self, table_name: str, instance_name: str, pool: BufferPool):
        self.table_name = table_name.lower()
        self.instance_name = instance_name
        self._create_parts(pool)

    def __len__(self) -> int:
        return len(self.norm)

    # -- derived-structure protocol ------------------------------------------------

    def _create_parts(self, pool: BufferPool) -> None:
        prefix = f"{self.table_name}_{self.instance_name}"
        self.norm = Table(f"{prefix}_snip_norm", _SNIP_SCHEMA, pool)
        self.norm.create_index("data_oid")
        self.members = Table(f"{prefix}_member_norm", _MEMBER_SCHEMA, pool)
        self.members.create_index("data_oid")

    def parts(self) -> dict:
        return {"norm-table": self.norm, "member-table": self.members}

    def derive(self, oid: int, objects: dict) -> list:
        obj = objects.get(self.instance_name)
        if not isinstance(obj, SnippetObject):
            return []
        return [
            ("snippet", oid, pos, ann_id, snippet)
            for pos, (ann_id, snippet) in enumerate(sorted(obj.snippets.items()))
        ] + [
            ("member", oid, ann_id, ",".join(columns))
            for ann_id, columns in sorted(obj.ann_targets.items())
        ]

    def entries(self) -> Iterator[tuple]:
        for _, values in self.norm.scan():
            row = self.norm.schema.dict_from_row(values)
            yield ("snippet", row["data_oid"], row["pos"], row["ann_id"],
                   row["snippet"])
        for _, values in self.members.scan():
            row = self.members.schema.dict_from_row(values)
            yield "member", row["data_oid"], row["ann_id"], row["columns"]

    # -- maintenance ---------------------------------------------------------------

    def _write_rows(self, oid: int, obj: SnippetObject) -> None:
        for pos, (ann_id, snippet) in enumerate(sorted(obj.snippets.items())):
            self.norm.insert(
                {"data_oid": oid, "pos": pos, "ann_id": ann_id,
                 "snippet": snippet}
            )
        for ann_id, columns in sorted(obj.ann_targets.items()):
            self.members.insert(
                {"data_oid": oid, "ann_id": ann_id,
                 "columns": ",".join(columns)}
            )

    def _delete_rows(self, oid: int) -> None:
        for table in (self.norm, self.members):
            for norm_oid in list(table.index_lookup("data_oid", oid)):
                table.delete(norm_oid)

    def on_objects_write(
        self, oid: int, objects: dict[str, SummaryObject], previous
    ) -> None:
        """Re-normalize this tuple's rows."""
        if previous is not None:  # a new row has nothing normalized yet
            self._delete_rows(oid)
        obj = objects.get(self.instance_name)
        if isinstance(obj, SnippetObject):
            self._write_rows(oid, obj)

    def on_objects_delete(self, oid: int, previous) -> None:
        self._delete_rows(oid)

    # -- reconstruction (the Figure 12 propagation path) -----------------------------

    def reconstruct(self, oid: int) -> SnippetObject | None:
        """Re-assemble the snippet object from its normalized rows."""
        self.probes += 1
        member_rows = [
            self.members.read_dict(n)
            for n in self.members.index_lookup("data_oid", oid)
        ]
        snippet_rows = [
            self.norm.read_dict(n)
            for n in self.norm.index_lookup("data_oid", oid)
        ]
        if not member_rows and not snippet_rows:
            return None
        obj = SnippetObject(instance_name=self.instance_name, tuple_id=oid)
        for row in member_rows:
            columns = tuple(c for c in row["columns"].split(",") if c)
            obj.ann_targets[row["ann_id"]] = columns
        for row in sorted(snippet_rows, key=lambda r: r["pos"]):
            obj.snippets[row["ann_id"]] = row["snippet"]
        return obj
