"""Trigram keyword index over snippet text: candidate superset property,
incremental maintenance, planner side conditions, and scan equivalence in
snippet-only search mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.index.keyword import TrigramKeywordIndex, trigrams

LONG_PAD = " with enough padding words to cross the snippet threshold"

TEXTS = {
    "a": "the experiment was documented in the wikipedia archive",
    "b": "a wetland survey note with no special terms inside here",
    "c": "another experiment log kept in the archive for reference",
    "d": "wikipedia editors reviewed the wetland experiment pages",
}


def make_db(with_index: bool = True):
    db = Database()
    db.create_table("t", [Column("name", ValueType.TEXT)])
    db.create_snippet_instance("S", min_chars=40, max_chars=400)
    db.manager.link("t", "S")
    oids = {}
    for name, text in TEXTS.items():
        oid = db.insert("t", {"name": name})
        oids[name] = oid
        db.add_annotation(text + LONG_PAD, table="t", oid=oid)
    if with_index:
        db.create_keyword_index("t", "S")
    db.analyze("t")
    return db, oids


class TestTrigrams:
    def test_basic_decomposition(self):
        assert trigrams("abcd") == {"abc", "bcd"}

    def test_lowercased(self):
        assert trigrams("ABC") == {"abc"}

    def test_too_short(self):
        assert trigrams("ab") == set()
        assert trigrams("") == set()

    @given(st.text(alphabet="abcdef ", min_size=3, max_size=30))
    @settings(max_examples=50)
    def test_substring_implies_trigram_subset(self, text):
        # The superset property the access path relies on: if kw is a
        # substring of text, every trigram of kw is a trigram of text.
        for start in range(len(text) - 2):
            kw = text[start:start + 5]
            if len(kw) >= 3:
                assert trigrams(kw) <= trigrams(text)


class TestCandidates:
    def test_candidates_cover_true_matches(self):
        db, oids = make_db()
        index = db.derived[("keyword", "t", "S")]
        candidates = index.candidates(["experiment", "archive"])
        assert {oids["a"], oids["c"]} <= candidates

    def test_no_match_empty(self):
        db, _ = make_db()
        index = db.derived[("keyword", "t", "S")]
        assert index.candidates(["zzzqqq"]) == set()

    def test_short_keyword_unusable(self):
        db, _ = make_db()
        index = db.derived[("keyword", "t", "S")]
        assert index.candidates(["ab"]) is None

    def test_multi_keyword_intersection(self):
        db, oids = make_db()
        index = db.derived[("keyword", "t", "S")]
        both = index.candidates(["wikipedia", "wetland"])
        assert oids["d"] in both
        assert oids["b"] not in both  # has wetland but not wikipedia


class TestMaintenance:
    def test_new_annotation_indexed(self):
        db, _ = make_db()
        index = db.derived[("keyword", "t", "S")]
        oid = db.insert("t", {"name": "e"})
        db.add_annotation("a freshly added zebra sighting" + LONG_PAD,
                          table="t", oid=oid)
        assert oid in index.candidates(["zebra"])

    def test_tuple_delete_removes_postings(self):
        db, oids = make_db()
        index = db.derived[("keyword", "t", "S")]
        db.delete_tuple("t", oids["a"])
        candidates = index.candidates(["experiment"])
        assert oids["a"] not in candidates

    def test_annotation_delete_reindexes(self):
        db, _ = make_db()
        index = db.derived[("keyword", "t", "S")]
        oid = db.insert("t", {"name": "f"})
        ann = db.add_annotation("temporary quagga report" + LONG_PAD,
                                table="t", oid=oid)
        assert oid in index.candidates(["quagga"])
        db.delete_annotation(ann.ann_id)
        assert oid not in index.candidates(["quagga"])

    def test_duplicate_index_rejected(self):
        db, _ = make_db()
        with pytest.raises(Exception):
            db.create_keyword_index("t", "S")


class TestAccessPath:
    QUERY = (
        "Select name From t r Where "
        "r.$.getSummaryObject('S').containsUnion('experiment', 'archive')"
    )

    def run(self, db, force=None):
        db.options.force_access = force
        try:
            return sorted(t.get("name") for t in db.sql(self.QUERY).tuples)
        finally:
            db.options.force_access = None

    def test_index_equivalent_to_scan_snippet_mode(self):
        db, _ = make_db()
        db.options.search_raw = False
        via_index = self.run(db, force="index")
        via_scan = self.run(db)
        db.options.search_raw = True
        assert via_index == via_scan == ["a", "c"]

    def test_plan_uses_keyword_index_when_forced(self):
        db, _ = make_db()
        db.options.search_raw = False
        db.options.force_access = "index"
        report = db.explain(self.QUERY)
        db.options.force_access = None
        db.options.search_raw = True
        assert "KeywordIndexScan" in report.physical

    def test_not_used_in_raw_search_mode(self):
        # With search_raw on, predicates consult raw annotations the index
        # does not cover — the planner must not offer it.
        db, _ = make_db()
        db.options.force_access = "index"
        report = db.explain(self.QUERY)
        db.options.force_access = None
        assert "KeywordIndexScan" not in report.physical

    def test_not_used_for_short_keywords(self):
        db, _ = make_db()
        db.options.search_raw = False
        db.options.force_access = "index"
        report = db.explain(
            "Select name From t r Where "
            "r.$.getSummaryObject('S').containsUnion('ab')"
        )
        db.options.force_access = None
        db.options.search_raw = True
        assert "KeywordIndexScan" not in report.physical

    def test_contains_single_served_too(self):
        db, _ = make_db()
        db.options.search_raw = False
        db.options.force_access = "index"
        got = sorted(
            t.get("name") for t in db.sql(
                "Select name From t r Where r.$.getSummaryObject('S')"
                ".containsSingle('experiment', 'wikipedia')"
            ).tuples
        )
        db.options.force_access = None
        via_scan = sorted(
            t.get("name") for t in db.sql(
                "Select name From t r Where r.$.getSummaryObject('S')"
                ".containsSingle('experiment', 'wikipedia')"
            ).tuples
        )
        db.options.search_raw = True
        assert got == via_scan == ["a", "d"]

    def test_substring_keywords_still_exact(self):
        # 'experimen' is a strict substring of 'experiment': the trigram
        # pre-filter must not lose it, and the residual keeps exactness.
        db, _ = make_db()
        db.options.search_raw = False
        db.options.force_access = "index"
        got = sorted(
            t.get("name") for t in db.sql(
                "Select name From t r Where "
                "r.$.getSummaryObject('S').containsUnion('experimen')"
            ).tuples
        )
        db.options.force_access = None
        db.options.search_raw = True
        assert got == ["a", "c", "d"]
