"""Baseline classifier indexing scheme (§4.1, Figure 4(c)).

The straw-man the paper compares against: the Classifier-type objects are
*normalized* — each (oid, label, count) triple becomes a row in a separate
``R_<instance>_norm`` table, plus a system-maintained derived column that
concatenates label and count — and a standard B-Tree is built on the derived
column.

The two drawbacks the paper calls out are intrinsic to this layout and
reproduce here:

1. storage is doubled (one replica in the de-normalized SummaryStorage for
   propagation, one normalized replica for indexing), and
2. reaching a data tuple from the index takes extra join hops
   (derived-index -> normalized row -> R's OID index -> R heap).

For Figure 12, :meth:`reconstruct` additionally rebuilds a classifier
summary object *from its normalized primitives* — the expensive propagation
path the de-normalized storage exists to avoid.
"""

from __future__ import annotations

from typing import Iterator

from repro.catalog.schema import Column, Schema
from repro.catalog.table import Table
from repro.index.derived import ClassifierIndex, Probe
from repro.index.itemize import (
    DEFAULT_WIDTH,
    clamp_probe,
    itemize,
    probe_range,
)
from repro.storage.buffer import BufferPool
from repro.storage.record import ValueType
from repro.summaries.objects import ClassifierObject

_NORM_SCHEMA = Schema(
    [
        Column("data_oid", ValueType.INT, nullable=False),
        Column("label", ValueType.TEXT, nullable=False),
        Column("cnt", ValueType.INT, nullable=False),
        Column("derived", ValueType.TEXT, nullable=False),
    ]
)


class BaselineClassifierIndex(ClassifierIndex):
    """Normalized-table + derived-column B-Tree baseline."""

    kind = "baseline"
    reconstructs = True

    def __init__(
        self,
        table: Table,
        instance_name: str,
        pool: BufferPool,
        width: int = DEFAULT_WIDTH,
        label_order: list[str] | None = None,
    ):
        self.table = table
        self.instance_name = instance_name
        self.width = width
        #: lookup_eq / lookup_range probes served (observability).
        self.probes = 0
        #: the classifier instance's pre-defined label order (§3.1) — Rep[]
        #: of reconstructed objects must match the stored objects exactly.
        self.label_order = label_order
        self._create_parts(pool)

    @property
    def table_name(self) -> str:
        return self.table.name.lower()

    # -- derived-structure protocol -------------------------------------------------------

    def _create_parts(self, pool: BufferPool) -> None:
        self.norm = Table(f"{self.table.name}_{self.instance_name}_norm",
                          _NORM_SCHEMA, pool)
        # Standard B-Tree on the derived column answers the predicates; the
        # index on data_oid locates a tuple's normalized rows for maintenance
        # and reconstruction.
        self.norm.create_index("derived")
        self.norm.create_index("data_oid")

    def parts(self) -> dict:
        # Normalized heap pages + all its index nodes: the replica cost
        # (Figure 7).
        return {"norm-table": self.norm}

    def derive(self, oid: int, objects: dict) -> list:
        obj = objects.get(self.instance_name)
        if not isinstance(obj, ClassifierObject):
            return []
        return [(oid, label, count, itemize(label, count, self.width))
                for label, count in obj.rep()]

    def entries(self) -> Iterator[tuple[int, str, int, str]]:
        for _, values in self.norm.scan():
            row = self.norm.schema.dict_from_row(values)
            yield row["data_oid"], row["label"], row["cnt"], row["derived"]

    def __len__(self) -> int:
        return len(self.norm)

    # -- maintenance (§4.1.2) ---------------------------------------------------------------

    def on_summary_insert(self, oid: int, obj: ClassifierObject) -> None:
        """De-normalization step: one normalized row per class label."""
        for label, count in obj.rep():
            self.norm.insert(
                {
                    "data_oid": oid,
                    "label": label,
                    "cnt": count,
                    "derived": itemize(label, count, self.width),
                }
            )

    def on_summary_update(
        self, oid: int, old_counts: dict[str, int], new_counts: dict[str, int]
    ) -> None:
        rows = {
            self.norm.read_dict(n)["label"]: n
            for n in self.norm.index_lookup("data_oid", oid)
        }
        for label, new_count in new_counts.items():
            if old_counts.get(label) == new_count:
                continue
            derived = itemize(label, new_count, self.width)
            if label in rows:
                self.norm.update(rows[label], {"cnt": new_count, "derived": derived})
            else:
                self.norm.insert(
                    {"data_oid": oid, "label": label, "cnt": new_count,
                     "derived": derived}
                )

    def on_tuple_delete(self, oid: int, counts: dict[str, int]) -> None:
        for norm_oid in self.norm.index_lookup("data_oid", oid):
            self.norm.delete(norm_oid)

    # -- querying ----------------------------------------------------------------------------

    def lookup_eq(self, label: str, count: int) -> list[int]:
        """Data-tuple OIDs with ``label = count``.

        Two hops: derived-column index -> normalized rows -> data_oid.
        """
        self.probes += 1
        if clamp_probe(count, count, True, True, self.width) is None:
            return []
        key = itemize(label, count, self.width)
        return [
            self.norm.read_dict(norm_oid)["data_oid"]
            for norm_oid in self.norm.index_lookup("derived", key)
        ]

    def lookup_range(
        self,
        label: str,
        lo: int | None = None,
        hi: int | None = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(count, data_oid)`` in ascending count order."""
        self.probes += 1  # counted at call time, like SummaryBTreeIndex
        bounds = clamp_probe(lo, hi, lo_inclusive, hi_inclusive, self.width)
        if bounds is None:
            return iter(())
        lo, hi, lo_inclusive, hi_inclusive = bounds
        lo_key, hi_key = probe_range(label, lo, hi, self.width)

        def scan() -> Iterator[tuple[int, int]]:
            for norm_oid in self.norm.index_range(
                "derived", lo_key, hi_key, lo_inclusive, hi_inclusive
            ):
                row = self.norm.read_dict(norm_oid)
                yield row["cnt"], row["data_oid"]

        return scan()

    def probe(self, conjunct, order, **context):
        if conjunct is None:
            return None  # order-only scans are the Summary-BTree's
        return super().probe(conjunct, order, **context)

    def _probe(self, conjunct, args, direction, options):
        # Derived index -> normalized row -> OID index -> heap; normalized
        # propagation re-assembles every hit's summaries from primitives.
        normalized = options.normalized_propagation
        label, lo, hi = args[:3]
        mode = "normalized" if normalized else "denormalized"
        return Probe(
            self.key, "BaselineIndexScan",
            f"{self.instance_name}.{label} in [{lo}, {hi}], {mode}",
            args, conjunct, pages=2, hop_descents=1.0,
            reconstruct_pages=4 if normalized else 0,
            order=(self.instance_name, label, direction),
        )

    def _resolve(self, oid, table):
        return oid, table.read(oid), None  # OID-index hop into R

    # -- normalized propagation (Figure 12) -------------------------------------------------------

    def reconstruct(self, oid: int) -> ClassifierObject | None:
        """Rebuild a classifier object from its normalized primitives.

        This is what propagation costs when only the normalized replica
        exists: per tuple, fetch all k rows and re-assemble the object.
        Element-level information (which raw annotations contribute) is not
        recoverable from the normalized schema — another intrinsic
        limitation of the baseline layout — so the result carries counts
        only (synthetic element ids preserve the count arithmetic).
        """
        rows = [
            self.norm.read_dict(n) for n in self.norm.index_lookup("data_oid", oid)
        ]
        if not rows:
            return None
        if self.label_order:
            rank = {label: i for i, label in enumerate(self.label_order)}
            rows.sort(key=lambda r: rank.get(r["label"], len(rank)))
        else:
            rows.sort(key=lambda r: r["label"])
        obj = ClassifierObject(
            instance_name=self.instance_name,
            tuple_id=oid,
            labels=[r["label"] for r in rows],
        )
        synthetic = -1
        for row in rows:
            for _ in range(row["cnt"]):
                obj.label_elements[row["label"]].add(synthetic)
                synthetic -= 1
        return obj
