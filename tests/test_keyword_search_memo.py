"""Keyword search over memoized search texts answers as before.

``containsSingle``/``containsUnion`` test the snippets first and, on a
miss, the snippets plus the tuple's raw annotation texts.  They used to
lower every text on every row and fetch each row's raw texts on its own.
Now an object decoded from storage builds each lowered universe once
(:meth:`SnippetObject.search_texts`); an object holding the full one
answers with one check over it; and a batch reads the raw texts its
objects still lack with one call.  The two-step evaluation it replaced
is kept here as the reference; every draw — mixed-case keywords, keywords
holding spaces or the ``" \n "`` separator, repeated keywords, capital
sigmas, objects without snippets, rows without a snippet object, merged
objects, ``search_raw`` on and off, a cell-annotated table under
projection — must answer the same, cold and from the memo.  The last
tests pin the memo's invalidation: a writable ``copy()`` carries no
memo, and a rewritten row decodes a fresh object that sees the new
annotation; and rows an earlier conjunct rejected read no text.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.annotations.annotation import AnnotationTarget
from repro.annotations.store import AnnotationStore
from repro.query import eval as query_eval
from repro.query.ast import FuncCall, SummaryExpr
from repro.query.eval import (
    EvalContext,
    evaluate_summary_expr,
    evaluate_summary_exprs,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.summaries.functions import SummarySet
from repro.summaries.objects import FrozenMap, SnippetObject, SummaryObject

FUNCS = ("containsSingle", "containsUnion")


# -- the reference: the two-step evaluation ---------------------------------


def ref_single(snippets, keywords, raw_texts=None) -> bool:
    lowered = [kw.lower() for kw in keywords]
    universe = list(snippets) + list(raw_texts or [])
    return any(
        all(kw in text.lower() for kw in lowered) for text in universe
    )


def ref_union(snippets, keywords, raw_texts=None) -> bool:
    universe = " \n ".join(list(snippets) + list(raw_texts or [])).lower()
    return all(kw.lower() in universe for kw in keywords)


def ref_search(obj, name, args, raw_texts) -> bool:
    """Snippets first; on a miss, snippets plus the raw texts (none when
    ``raw_texts`` is None: ``search_raw`` off)."""
    keywords = [str(a) for a in args]
    method = ref_single if name == "containsSingle" else ref_union
    snippets = list(obj.snippets.values())
    if method(snippets, keywords):
        return True
    if raw_texts is None:
        return False
    return method(snippets, keywords,
                  raw_texts(sorted(obj.all_annotation_ids())))


def ref_value(obj, name, keywords, raw: dict | None):
    """The chain's value on one row; ``raw`` None is ``search_raw`` off."""
    if obj is None:
        return None
    return ref_search(obj, name, keywords, None if raw is None
                         else lambda ids: [raw[a] for a in ids])


def two_step_evaluation():
    """Patch the engine back to the per-row two-step search."""
    def per_row(expr, summary_sets, ctx):
        return [evaluate_summary_expr(expr, sets, ctx)
                for sets in summary_sets]

    return mock.patch.multiple(
        query_eval, _keyword_search=ref_search,
        evaluate_summary_exprs=per_row,
    )


# -- object-level draws -------------------------------------------------------

#: capital sigma lowers by context; ``İ`` lowers to two code points.
ALPHABET = "abAB \nΣσςİi"
fragments = st.one_of(
    st.text(alphabet=ALPHABET, max_size=4),
    st.sampled_from(
        [" \n ", "a \n b", "B \n", "ας", "ΑΣ", "i̇", "ab", ""]
    ),
)
keyword_lists = st.lists(fragments, min_size=1, max_size=3).flatmap(
    lambda kws: st.sampled_from([kws, kws + kws[:1], [k.upper() for k in kws]])
)
texts = st.text(alphabet=ALPHABET, max_size=14)


@st.composite
def snippet_objects(draw, first_id=1):
    """(object, raw text per annotation id): every annotation has a raw
    text, some a snippet; possibly none at all."""
    n = draw(st.integers(0, 5))
    raw = {first_id + i: draw(texts) for i in range(n)}
    obj = SnippetObject(instance_name="S", tuple_id=1)
    for ann_id in raw:
        snippet = draw(st.one_of(st.none(), texts))
        obj.add_annotation(ann_id, (), snippet)
    return obj, raw


def decoded(obj: SnippetObject) -> SnippetObject:
    """The object as storage hands it out: immutable, memoizable."""
    return SummaryObject.from_bytes(obj.to_bytes())


def context(raw: dict, search_raw: bool = True) -> EvalContext:
    store = SimpleNamespace(texts=lambda ids: [raw[a] for a in ids])
    return EvalContext(manager=SimpleNamespace(annotations=store),
                       search_raw=search_raw)


def chain(name: str, keywords) -> SummaryExpr:
    return SummaryExpr("r", (FuncCall("getSummaryObject", ("S",)),
                             FuncCall(name, tuple(keywords))))


def row(obj) -> dict:
    return {"r": SummarySet({} if obj is None else {"S": obj})}


@given(snippet_objects(), keyword_lists, st.sampled_from(FUNCS),
       st.booleans())
def test_memoized_search_matches_two_step(drawn, keywords, name, search_raw):
    obj, raw = drawn
    expected = ref_value(obj, name, keywords, raw if search_raw else None)
    for candidate in (obj, decoded(obj)):
        ctx = context(raw, search_raw)
        for _ in range(2):  # cold, then from the memo when there is one
            assert evaluate_summary_expr(
                chain(name, keywords), row(candidate), ctx) == expected
    # Raw texts are read, and kept, only when the snippets miss.
    frozen = decoded(obj)
    evaluate_summary_expr(chain(name, keywords), row(frozen), context(raw))
    assert frozen.has_search_texts() == (
        not ref_value(obj, name, keywords, None))
    assert not obj.has_search_texts()  # writable: never memoized


@given(snippet_objects(), snippet_objects(first_id=4), keyword_lists,
       st.sampled_from(FUNCS))
def test_merged_objects_match_two_step(left, right, keywords, name):
    """Objects sharing annotation ids 4 and 5 merge as a join merges."""
    (a, raw_a), (b, raw_b) = left, right
    raw = {**raw_b, **raw_a}
    b = SnippetObject(instance_name="S", tuple_id=2, snippets={
        k: v for k, v in b.snippets.items() if k not in raw_a
    }, ann_targets=dict(b.ann_targets))
    merged = decoded(a).merge(decoded(b))
    assert not merged.has_search_texts()
    expected = ref_value(merged, name, keywords, raw)
    ctx = context(raw)
    for _ in range(2):
        assert evaluate_summary_expr(
            chain(name, keywords), row(merged), ctx) == expected
    assert not merged.has_search_texts()


@given(st.lists(st.one_of(st.none(), snippet_objects()), max_size=6),
       keyword_lists, st.sampled_from(FUNCS), st.booleans())
def test_batch_reads_raw_texts_once(rows, keywords, name, search_raw):
    """A batch of rows — some without a snippet object — answers per row
    as the two-step search does, with at most one raw-text read for the
    batch."""
    raw: dict = {}
    objects = []
    for number, drawn in enumerate(rows):
        if drawn is None:
            objects.append(None)
            continue
        obj, texts_of = drawn
        shifted = SnippetObject(instance_name="S", tuple_id=number)
        for ann_id, text in texts_of.items():
            new_id = 10 * number + ann_id
            raw[new_id] = text
            shifted.add_annotation(new_id, (), obj.snippets.get(ann_id))
        objects.append(decoded(shifted) if number % 2 else shifted)
    expected = [ref_value(o, name, keywords, raw if search_raw else None)
                for o in objects]
    ctx = context(raw, search_raw)
    calls = []
    original = ctx.raw_texts
    ctx.raw_texts = lambda ids: calls.append(ids) or original(ids)
    sets = [row(o) for o in objects]
    # Only objects the snippets do not answer read raw texts; writable
    # ones keep no memo, so the warm pass reads theirs again.
    missed = [o for o in objects if o is not None
              and not ref_value(o, name, keywords, None)]
    every = sorted(a for o in missed for a in o.all_annotation_ids())
    writable = sorted(a for o in missed if o.tuple_id % 2 == 0
                      for a in o.all_annotation_ids())
    for wanted in (every, writable):
        calls.clear()
        assert evaluate_summary_exprs(chain(name, keywords), sets, ctx) \
            == expected
        assert calls == ([wanted] if search_raw and wanted else [])


def test_snippet_hits_read_no_raw_text():
    """Only the object whose snippets miss reads raw texts."""
    hit = SnippetObject(instance_name="S", tuple_id=1)
    hit.add_annotation(1, (), "Wing note")
    hit.add_annotation(2, (), None)
    miss = SnippetObject(instance_name="S", tuple_id=2)
    miss.add_annotation(3, (), "beak")
    miss.add_annotation(4, (), None)
    raw = {1: "a wing note", 2: "tail", 3: "beak", 4: "a wing song"}
    ctx = context(raw)
    calls = []
    original = ctx.raw_texts
    ctx.raw_texts = lambda ids: calls.append(ids) or original(ids)
    sets = [row(decoded(hit)), row(decoded(miss))]
    assert evaluate_summary_exprs(
        chain("containsUnion", ["WING"]), sets, ctx) == [True, True]
    assert calls == [[3, 4]]


# -- through SQL --------------------------------------------------------------

WORDS = ["Wing", "wing", "BEAK", "tail feather", "Σκ", "song", "nest"]
COLUMNS = ("a", "b", "c")
ROWS = 5


def make_db() -> Database:
    db = Database()
    db.create_table("t", [Column(c, ValueType.TEXT) for c in COLUMNS])
    db.create_snippet_instance("S", min_chars=20, max_chars=12)
    db.link_summary_instance("t", "S")
    for i in range(ROWS):
        db.insert("t", {c: f"{c}{i}" for c in COLUMNS})
    return db


annotation_texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6) \
    .map(" ".join)
annotations = st.lists(
    st.tuples(
        annotation_texts,
        st.integers(1, ROWS - 1),  # the last row stays without a summary
        st.sampled_from([(), (), ("a",), ("b", "c")]),
    ),
    max_size=10,
)
sql_keywords = st.lists(
    st.sampled_from(["wing", "WING", "beak", "tail feather", "σκ", "nest",
                     " \n ", "wing \n beak", "song"]),
    min_size=1, max_size=3,
)


def queries(name: str, keywords) -> list[str]:
    pred = f"r.$.getSummaryObject('S').{name}(" + ", ".join(
        f"'{k}'" for k in keywords) + ")"
    return [
        f"Select * From t r Where {pred}",
        f"Select a From t r Where {pred}",  # projects cell annotations away
        f"Select r.a, s.b From t r, t s Where r.a = s.a And {pred}",
    ]


def answers(db: Database, sql_list) -> list:
    return [sorted(map(repr, db.sql(sql).rows)) for sql in sql_list]


@given(annotations, sql_keywords, st.sampled_from(FUNCS), st.booleans())
def test_sql_answers_match_two_step(items, keywords, name, search_raw):
    db = make_db()
    for text, oid, columns in items:
        db.add_annotation(text, table="t", oid=oid, columns=columns)
    db.options.search_raw = search_raw
    sql_list = queries(name, keywords)
    with two_step_evaluation():
        expected = answers(db, sql_list)
    assert answers(db, sql_list) == expected  # cold
    assert answers(db, sql_list) == expected  # from the memo
    with two_step_evaluation():
        assert answers(db, sql_list) == expected


# -- invalidation -------------------------------------------------------------


def annotated_db() -> Database:
    db = make_db()
    db.add_annotation("Wing span measured at dawn near the nest",
                      table="t", oid=1)
    db.add_annotation("beak", table="t", oid=1)
    return db


def union_rows(db: Database, keyword: str) -> list:
    return db.sql("Select a From t r Where "
                  f"r.$.getSummaryObject('S').containsUnion('{keyword}')").rows


def test_copy_of_memoized_object_sees_its_new_annotation():
    db = annotated_db()
    storage = db.manager.storage_for("t")
    assert union_rows(db, "beak") == [{"a": "a0"}]  # a raw-text hit
    shared = storage.get(1)["S"]
    assert shared.has_search_texts()
    before = (shared._search_memo, dict(shared.ann_targets))

    twin = shared.copy()
    assert not twin.has_search_texts()
    assert type(twin.ann_targets) is not FrozenMap
    new = db.manager.annotations.create(
        "a heron waded past", [AnnotationTarget("t", 1, ())]
    )
    twin.add_annotation(new.ann_id, (), None)
    storage.put(1, {"S": twin})
    fresh = storage.get(1)["S"]
    assert fresh is not shared and not fresh.has_search_texts()
    assert union_rows(db, "heron") == [{"a": "a0"}]
    assert union_rows(db, "heron wing") == []
    # The old shared object is untouched: same memo, same annotations.
    assert (shared._search_memo, dict(shared.ann_targets)) == before
    assert shared.has_search_texts()
    assert "heron" not in shared._search_memo[True].joined


def test_added_annotation_is_searchable_after_the_memo():
    db = annotated_db()
    assert union_rows(db, "heron") == []  # builds the row's full memo
    assert db.manager.storage_for("t").get(1)["S"].has_search_texts()
    db.add_annotation("a Heron waded past", table="t", oid=1)
    assert union_rows(db, "HERON") == [{"a": "a0"}]
    db.add_annotation("wing", table="t", oid=2)
    assert union_rows(db, "wing") == [{"a": "a0"}, {"a": "a1"}]


def test_rows_failing_an_earlier_conjunct_read_no_text():
    db = annotated_db()
    db.add_annotation("beak", table="t", oid=2)  # short: no snippet
    row_one = db.manager.storage_for("t").get(1)["S"].all_annotation_ids()
    asked: list = []
    original = EvalContext.raw_texts

    def recording(self, ids):
        asked.extend(ids)
        return original(self, ids)

    with mock.patch.object(EvalContext, "raw_texts", recording):
        rows = db.sql("Select a From t r Where r.b = 'b0' And "
                      "r.$.getSummaryObject('S').containsUnion('beak')").rows
    assert rows == [{"a": "a0"}]
    assert asked and set(asked) <= row_one


# -- the annotation store's text reads ----------------------------------------


def text_store(count: int = 400) -> AnnotationStore:
    store = AnnotationStore(BufferPool(DiskManager(), capacity=16))
    for i in range(count):
        store.create(f"note {i} " + "x" * (i % 50),
                     [AnnotationTarget("t", 1 + i // 20, ())])
    return store


STORE = text_store()


def page_accesses(store: AnnotationStore, asks: list[list[int]]) -> int:
    store.invalidate_texts()
    pool = store._table.pool
    before = pool.hits + pool.misses
    for ids in asks:
        store.texts(ids)
    return pool.hits + pool.misses - before


@given(st.lists(st.tuples(st.integers(1, 400), st.integers(1, 25)),
                min_size=1, max_size=8))
def test_union_text_reads_match_per_id_reads(blocks):
    """A union of id blocks — a keyword batch's shape — reads the texts
    one read per id would."""
    ids = sorted({a for start, n in blocks
                  for a in range(start, min(start + n, 401))})
    STORE.invalidate_texts()
    assert STORE.texts(ids) == [STORE.get(a).text for a in ids]


def test_union_of_tuple_blocks_costs_no_more_than_one_read_each():
    """Three tuples' 20-id blocks, too far apart to scan as one range:
    one call reads no more pages than one call per block (it used to
    descend once per id)."""
    blocks = [list(range(start, start + 20)) for start in (1, 181, 361)]
    union = sorted(a for block in blocks for a in block)
    assert page_accesses(STORE, [union]) <= page_accesses(STORE, blocks)
