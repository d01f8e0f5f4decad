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

A reverse B-Tree (``OID -> trigram``) supports incremental maintenance
from the table's storage-row events (a
:class:`~repro.index.derived.DerivedIndex`).
"""

from __future__ import annotations

from typing import Iterator

from repro.btree.tree import BTree
from repro.catalog.keys import decode_int, encode_int
from repro.index.derived import DerivedIndex, Probe
from repro.query.ast import SummaryExpr
from repro.storage.buffer import BufferPool
from repro.summaries.objects import SnippetObject, SummaryObject


def match_keyword_pred(expr) -> tuple[str, str, tuple[str, ...]] | None:
    """``(alias, instance, keywords)`` of a containsSingle/containsUnion
    conjunct over one snippet instance, else None."""
    if not isinstance(expr, SummaryExpr):
        return None
    chain = expr.chain
    if (
        len(chain) == 2
        and chain[0].name == "getSummaryObject"
        and chain[1].name in ("containsSingle", "containsUnion")
        and chain[0].args and isinstance(chain[0].args[0], str)
        and chain[1].args
        and all(isinstance(a, str) for a in chain[1].args)
    ):
        return expr.alias or "", chain[0].args[0], tuple(chain[1].args)
    return None


def trigrams(text: str) -> set[str]:
    """Distinct character trigrams of ``text``, lowercased."""
    lowered = text.lower()
    return {lowered[i:i + 3] for i in range(len(lowered) - 2)}


class TrigramKeywordIndex(DerivedIndex):
    """Trigram postings over one snippet instance of one table."""

    kind = "keyword"

    def __init__(self, table_name: str, instance_name: str, pool: BufferPool):
        self.table_name = table_name.lower()
        self.instance_name = instance_name
        self._create_parts(pool)
        #: candidates() probes served (observability).
        self.probes = 0

    def __len__(self) -> int:
        return len(self.postings)

    # -- derived-structure protocol ----------------------------------------------

    def _create_parts(self, pool: BufferPool) -> None:
        #: trigram (utf-8) -> encoded OID
        self.postings = BTree(pool)
        #: encoded OID -> trigram (utf-8), for incremental deletion
        self.reverse = BTree(pool)

    def parts(self) -> dict:
        return {"postings": self.postings, "reverse": self.reverse}

    def derive(self, oid: int, objects: dict) -> list:
        text = self._snippet_text(objects)
        if text is None:
            return []
        grams = trigrams(text)
        return [(tree, gram, oid)
                for tree in ("postings", "reverse") for gram in grams]

    def entries(self) -> Iterator[tuple[str, str, int]]:
        for gram, oid in self.postings.items():
            yield "postings", gram.decode("utf-8"), decode_int(oid)
        for oid, gram in self.reverse.items():
            yield "reverse", gram.decode("utf-8"), decode_int(oid)

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
        self, oid: int, objects: dict[str, SummaryObject], previous
    ) -> None:
        if previous is not None:  # a new row has nothing indexed yet
            self._delete_rows(oid)
        text = self._snippet_text(objects)
        if text is not None:
            self._insert_rows(oid, text)

    def on_objects_delete(self, oid: int, previous) -> None:
        self._delete_rows(oid)

    # -- querying ----------------------------------------------------------------

    def probe(self, conjunct, order, *, alias, manager, options):
        """Trigram candidates, a superset: the keyword conjunct stays a
        residual.  Only in snippet-only search (``search_raw`` off): the
        index holds no raw annotation text."""
        matched = None if conjunct is None or options.search_raw \
            else match_keyword_pred(conjunct)
        if matched is None:
            return None
        kw_alias, instance, keywords = matched
        if instance != self.instance_name or (kw_alias or alias) != alias \
                or any(len(k) < 3 for k in keywords):
            return None  # a keyword below trigram length: unusable
        return Probe(
            self.key, "KeywordIndexScan",
            f"{self.instance_name}: {', '.join(keywords)}",
            keywords, conjunct, exact=False, selectivity=0.15,
            descents=len(keywords),
            hop_descents=1 / 3,  # posting-list intersection, per candidate
        )

    def hits(self, probe, table):
        for oid in sorted(self.candidates(list(probe.args))):
            yield oid, table.read(oid), None

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
