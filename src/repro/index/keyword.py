"""Trigram keyword index over Snippet summary objects.

§3.1 notes a studied trade-off "w.r.t accuracy and performance — between
searching the snippets vs. searching the raw annotations", and §8 lists
richer operator implementations as future work.  This index accelerates
the snippet-side of that trade-off: ``containsSingle``/``containsUnion``
predicates evaluated in snippet-only mode (``PlannerOptions.search_raw =
False``).

Design (the pg_trgm idea): every snippet's lowercase text is decomposed
into character **trigrams**; a B-Tree maps ``trigram -> data OID``.  A
keyword matches a tuple only if *all* of the keyword's trigrams occur in
that tuple's snippet text, so intersecting posting lists yields a
**superset** of the true substring matches — the engine then re-checks the
original predicate on the candidates, keeping results exactly equal to a
scan plan.  Keywords shorter than three characters produce no trigrams and
make the index unusable for that query (the planner falls back to a scan).

A reverse B-Tree (``OID -> trigram``) supports incremental maintenance via
the SummaryManager's generic ``on_objects_write`` event.
"""

from __future__ import annotations

from repro.btree.tree import BTree
from repro.catalog.keys import decode_int, encode_int
from repro.errors import ReproError
from repro.storage.buffer import BufferPool
from repro.summaries.objects import SnippetObject, SummaryObject


def trigrams(text: str) -> set[str]:
    """Distinct character trigrams of ``text``, lowercased."""
    lowered = text.lower()
    return {lowered[i:i + 3] for i in range(len(lowered) - 2)}


class TrigramKeywordIndex:
    """Trigram postings over one snippet instance of one table."""

    def __init__(self, table_name: str, instance_name: str, pool: BufferPool):
        self.table_name = table_name.lower()
        self.instance_name = instance_name
        #: trigram (utf-8) -> encoded OID
        self.postings = BTree(pool)
        #: encoded OID -> trigram (utf-8), for incremental deletion
        self.reverse = BTree(pool)
        #: candidates() probes served (observability).
        self.probes = 0

    def __len__(self) -> int:
        return len(self.postings)

    def pages_used(self) -> int:
        return self.postings.node_count() + self.reverse.node_count()

    # -- maintenance -----------------------------------------------------------

    def _snippet_text(self, objects: dict[str, SummaryObject]) -> str | None:
        obj = objects.get(self.instance_name)
        if not isinstance(obj, SnippetObject) or not obj.snippets:
            return None
        return " \n ".join(obj.snippets.values())

    def _insert_rows(self, oid: int, text: str) -> None:
        key_oid = encode_int(oid)
        for gram in trigrams(text):
            self.postings.insert(gram.encode("utf-8"), key_oid)
            self.reverse.insert(key_oid, gram.encode("utf-8"))

    def _delete_rows(self, oid: int) -> None:
        key_oid = encode_int(oid)
        for gram in self.reverse.search(key_oid):
            self.postings.delete(gram, key_oid)
            self.reverse.delete(key_oid, gram)

    def on_objects_write(
        self, oid: int, objects: dict[str, SummaryObject], previous=None
    ) -> None:
        self._delete_rows(oid)
        text = self._snippet_text(objects)
        if text is not None:
            self._insert_rows(oid, text)

    def on_objects_delete(self, oid: int, previous=None) -> None:
        self._delete_rows(oid)

    def bulk_build(self, storage) -> int:
        """Index every existing snippet object; returns postings written."""
        written = 0
        for oid, objects in storage.scan():
            text = self._snippet_text(objects)
            if text is not None:
                self._insert_rows(oid, text)
                written += 1
        return written

    def rebuild(self, storage) -> int:
        """Discard both trees and re-derive them from the de-normalized
        storage (repair path). Returns postings written."""
        pool = self.postings.pool
        for tree in (self.postings, self.reverse):
            try:
                tree.drop()
            except ReproError:
                pass  # corrupt tree: abandon its pages rather than fail
        self.postings = BTree(pool)
        self.reverse = BTree(pool)
        return self.bulk_build(storage)

    # -- querying ----------------------------------------------------------------

    def oids_with_trigram(self, gram: str) -> set[int]:
        return {
            decode_int(v) for v in self.postings.search(gram.encode("utf-8"))
        }

    def candidates(self, keywords: list[str]) -> set[int] | None:
        """OIDs that *may* contain every keyword as a substring of their
        snippet text (a superset of the true matches), or ``None`` when
        any keyword is too short to decompose into trigrams."""
        self.probes += 1
        result: set[int] | None = None
        for keyword in keywords:
            grams = trigrams(keyword)
            if not grams:
                return None  # unusable: the keyword has < 3 characters
            keyword_oids: set[int] | None = None
            for gram in grams:
                hits = self.oids_with_trigram(gram)
                keyword_oids = (
                    hits if keyword_oids is None else keyword_oids & hits
                )
                if not keyword_oids:
                    break
            result = (
                keyword_oids if result is None else result & keyword_oids
            )
            if not result:
                return set()
        return result if result is not None else set()
