"""Persistent raw-annotation store.

Annotations live in a system heap table (``_annotations``) with a B-Tree on
the annotation id so zoom-in queries can fetch raw texts directly from the
Elements[][] references carried by summary objects.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.annotations.annotation import Annotation, AnnotationTarget
from repro.catalog.keys import decode_int, encode_key
from repro.catalog.schema import Column, Schema
from repro.catalog.table import Table
from repro.errors import DuplicateKeyError, RecordNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.record import ValueType

_SCHEMA = Schema(
    [
        Column("ann_id", ValueType.INT, nullable=False),
        Column("text", ValueType.TEXT, nullable=False),
        Column("targets", ValueType.TEXT, nullable=False),  # JSON
    ]
)


def _encode_targets(targets: list[AnnotationTarget]) -> str:
    return json.dumps(
        [[t.table, t.oid, list(t.columns)] for t in targets],
        separators=(",", ":"),
    )


def _decode_targets(raw: str) -> list[AnnotationTarget]:
    return [
        AnnotationTarget(table, oid, tuple(columns))
        for table, oid, columns in json.loads(raw)
    ]


#: Bound on the raw-text cache (entries); zoom-in working sets are far
#: smaller, this just keeps a pathological session from holding every
#: annotation text ever read.
_TEXT_CACHE_MAX = 8192


#: A gap between wanted annotation ids wider than this splits a sparse
#: id set into runs: jumping it costs one more index descent, scanning
#: it decodes every key in between.
_RUN_GAP = 64


def _dense(ids: list[int]) -> bool:
    """Sorted ``ids`` fill at least a quarter of their span: one range
    pass over the ann_id index beats one descent per id."""
    return ids[-1] - ids[0] + 1 <= 4 * len(ids)


def _index_runs(ids: list[int]) -> list[list[int]]:
    """Sorted ``ids`` as the runs :meth:`AnnotationStore.texts` resolves
    one at a time: all of them when dense, else split at every gap wider
    than ``_RUN_GAP`` — a keyword-search batch asks for the union of
    several tuples' id blocks, each dense on its own."""
    if _dense(ids):
        return [ids]
    runs = [[ids[0]]]
    for prev, ann_id in zip(ids, ids[1:]):
        if ann_id - prev > _RUN_GAP:
            runs.append([])
        runs[-1].append(ann_id)
    return runs


class AnnotationStore:
    """CRUD over raw annotations, indexed by annotation id."""

    #: Class-level fallback so instances unpickled from older images run
    #: with an empty cache instead of crashing on the missing attribute.
    _text_cache: dict[int, str] | None = None

    def __init__(self, pool: BufferPool):
        self._table = Table("_annotations", _SCHEMA, pool)
        self._table.create_index("ann_id")
        self._next_id = 1
        self._text_cache = {}

    def _texts_cached(self) -> dict[int, str]:
        if self._text_cache is None:
            self._text_cache = {}
        return self._text_cache

    def invalidate_texts(self) -> None:
        """Drop the raw-text cache (repair rewrote the table underneath)."""
        if self._text_cache:
            self._text_cache.clear()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def next_id(self) -> int:
        """The id the next create will assign (WAL records log it ahead)."""
        return self._next_id

    def create(
        self, text: str, targets: list[AnnotationTarget],
        ann_id: int | None = None,
    ) -> Annotation:
        """Persist a new annotation; assigns and returns its id.

        ``ann_id`` forces the id (WAL replay re-creating the annotation
        under its original identity); the counter advances past it once
        the row is valid, even if storing it fails, since replay may yet
        store that record.  Ids are never reused, so a forced id below the
        counter raises :class:`~repro.errors.DuplicateKeyError`.
        """
        if ann_id is None:
            ann_id = self._next_id
        elif ann_id < self._next_id:
            raise DuplicateKeyError(
                f"annotation id {ann_id} was already assigned "
                f"(next id {self._next_id})"
            )
        annotation = Annotation(ann_id, text, list(targets))
        row = self._table.canonical_row(
            [ann_id, text, _encode_targets(annotation.targets)])
        self._next_id = max(self._next_id, ann_id + 1)
        self._table.insert(row)
        self._texts_cached().pop(ann_id, None)
        return annotation

    def get(self, ann_id: int) -> Annotation:
        """Fetch one annotation by id."""
        oids = self._table.index_lookup("ann_id", ann_id)
        if not oids:
            raise RecordNotFoundError(f"no annotation with id {ann_id}")
        row = self._table.read_dict(oids[0])
        return Annotation(row["ann_id"], row["text"], _decode_targets(row["targets"]))

    def get_many(self, ann_ids: list[int]) -> list[Annotation]:
        """Fetch annotations in the order of ``ann_ids``."""
        return [self.get(a) for a in ann_ids]

    def texts(self, ann_ids: list[int]) -> list[str]:
        """Raw texts for ``ann_ids`` (zoom-in's workhorse).

        Cache-backed and bulk-resolved: misses are fetched together — for
        dense id sets (the usual shape — one tuple's annotations were
        created consecutively) a single range pass over the ann_id index
        maps ids to table OIDs and one OID-index pass decodes just the
        text column, skipping both the per-annotation B-Tree descents and
        the targets-JSON parse that :meth:`get` pays.  A sparse set is
        resolved run by run (:func:`_index_runs`).
        """
        if not ann_ids:
            return []
        cache = self._texts_cached()
        wanted = {a for a in ann_ids if a not in cache}
        if wanted:
            for run in _index_runs(sorted(wanted)):
                self._read_texts(run, cache)
            while len(cache) > _TEXT_CACHE_MAX:
                cache.pop(next(iter(cache)))
        try:
            return [cache[a] for a in ann_ids]
        except KeyError:  # trimmed straight back out by an oversized ask
            return [
                cache[a] if a in cache else self.get(a).text
                for a in ann_ids
            ]

    def _read_texts(self, ann_ids: list[int], cache: dict[int, str]) -> None:
        """Cache the texts of the sorted ``ann_ids``: one ann_id-index
        range pass when they are dense, one descent each when not, then
        one batch read of the text column."""
        wanted = set(ann_ids)
        oid_of: dict[int, int] = {}
        if _dense(ann_ids):
            for key, value in self._table.secondary_indexes[
                "ann_id"
            ].range_scan(
                encode_key(ann_ids[0], ValueType.INT),
                encode_key(ann_ids[-1], ValueType.INT),
            ):
                ann_id = decode_int(key[1:])
                if ann_id in wanted:
                    oid_of[ann_id] = decode_int(value)
        else:
            for ann_id in ann_ids:
                oids = self._table.index_lookup("ann_id", ann_id)
                if oids:
                    oid_of[ann_id] = oids[0]
        missing = wanted - oid_of.keys()
        if missing:
            raise RecordNotFoundError(f"no annotation with id {min(missing)}")
        texts = self._table.read_column_many(list(oid_of.values()), "text")
        for ann_id, oid in oid_of.items():
            if oid not in texts:  # index entry without a live heap row
                raise RecordNotFoundError(f"no annotation with id {ann_id}")
            cache[ann_id] = texts[oid]

    def delete(self, ann_id: int) -> Annotation:
        """Remove an annotation; returns what was removed."""
        oids = self._table.index_lookup("ann_id", ann_id)
        if not oids:
            raise RecordNotFoundError(f"no annotation with id {ann_id}")
        annotation = self.get(ann_id)
        self._table.delete(oids[0])
        self._texts_cached().pop(ann_id, None)
        return annotation

    def scan(self) -> Iterator[Annotation]:
        for _, values in self._table.scan():
            row = _SCHEMA.dict_from_row(values)
            yield Annotation(
                row["ann_id"], row["text"], _decode_targets(row["targets"])
            )

    @property
    def heap_pages(self) -> int:
        return self._table.heap.num_pages
