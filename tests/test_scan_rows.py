"""Row realization on scan batches (DESIGN.md §5f).

A scan batch's columns share one :class:`~repro.storage.record.RecordBlock`:
a row view decodes its record once, whole, and summary predicates read the
batch's summary slot (:meth:`~repro.query.batch.Batch.summary_values`)
instead of building a row. The exactness oracle is row-at-a-time
evaluation, kept here and only here: every heap record decoded with
``RecordCodec.decode``, its summary set read and projected as a scan would,
``evaluate`` of the predicate, then of each select item. A Hypothesis
property draws small annotated tables over every value type (NULLs
included) and predicates mixing data comparisons with every summary shape
— raw-countable and rollup labels, missing instances, keyword search,
``getSize``, ``$`` with, without and with a wrong alias — under
``And``/``Or``/``Not``, and requires the Filter/Project output to have
the same rows, in the same order, with the same summary sets, or the same
error type.

A second property checks the record block directly: a row read off a
batch equals ``RecordCodec.decode`` of its record across chained
``take`` calls. The decode guard counts decodes on the §5 scan queries:
rows a summary-only predicate rejects are never decoded, and a realized
row is decoded once.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.bench.queries import two_predicate_query
from repro.query.ast import (
    And,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Not,
    Or,
    SelectItem,
    Star,
    SummaryExpr,
)
from repro.query.eval import evaluate
from repro.query.physical import FilterOp, ProjectOp, SeqScan, SummarySelectOp
from repro.query.tuples import QTuple
from repro.storage.record import LazyColumn, RecordCodec
from repro.workload.generator import WorkloadConfig, build_database

TREE = {"Health": {"Disease": {}, "Anatomy": {}},
        "Life": {"Behavior": {}, "Other": {}}}
SEED = [
    ("infection avian flu disease symptoms", "Disease"),
    ("wing beak plumage anatomy", "Anatomy"),
    ("migration nesting behavior flock", "Behavior"),
    ("note comment misc", "Other"),
]
TEXTS = [
    "avian flu infection disease symptoms observed",
    "wing beak plumage anatomy measured at the station",
    "migration nesting behavior of the flock",
    "note comment misc",
]
NAMES = ["i", "f", "s", "b", "x"]
TYPES = [ValueType.INT, ValueType.FLOAT, ValueType.TEXT, ValueType.BOOL,
         ValueType.BLOB]
ALIAS = "r"
OPS = ["=", "<>", "<", "<=", ">", ">="]
KEYWORDS = ["flu", "wing", "flock", "misc", "absent"]


# -- the reference -------------------------------------------------------------


def per_row(db: Database, predicate, items, retained) -> list[QTuple]:
    """Decode every heap record whole (``Table.scan``: heap order,
    ``RecordCodec.decode``), attach its summary set as a scan does, keep
    the rows ``predicate`` accepts and evaluate each select item on them:
    the semantics the batch path must keep."""
    table = db.catalog.table("t")
    eval_ctx = db.planner.exec_context().eval_ctx
    columns = [f"{ALIAS}.{c}" for c in table.schema.names] + [f"{ALIAS}.oid"]
    kept = []
    for oid, values in table.scan():
        sset = db.manager.summary_set_for("t", oid)
        if retained is not None:
            sset = sset.project_to_columns(retained)
        row = QTuple(columns, values + [oid], {ALIAS: sset},
                     {ALIAS: ("t", oid)})
        if evaluate(predicate, row, eval_ctx):
            kept.append(row)
    out = []
    for row in kept:
        out_columns, values = [], []
        for item in items:
            if isinstance(item, Star):
                out_columns += row.columns
                values += row.values
            else:
                out_columns.append(str(item.expr))
                values.append(evaluate(item.expr, row, eval_ctx))
        out.append(QTuple(out_columns, values, row.summary_sets,
                          row.provenance))
    return out


def observe(run):
    """Rows with their order, values, provenance and summary sets — or
    the type of the error raised instead."""
    try:
        rows = run()
    except Exception as exc:  # noqa: BLE001 - the type is the observable
        return ("error", type(exc).__name__)
    return [
        (
            tuple(row.columns),
            tuple(repr(v) for v in row.values),
            tuple(sorted(row.provenance.items())),
            json.dumps(row.merged_summary_set().to_display(),
                       sort_keys=True, default=str),
        )
        for row in rows
    ]


# -- strategies ----------------------------------------------------------------

VALUES = {
    "i": st.one_of(st.none(), st.integers(-2, 3)),
    "f": st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 1.0, 2.5])),
    "s": st.one_of(st.none(), st.sampled_from(["", "a", "ab", "flu"])),
    "b": st.one_of(st.none(), st.booleans()),
    "x": st.one_of(st.none(), st.sampled_from([b"", b"\x00", b"ab"])),
}
annotation = st.tuples(
    st.sampled_from(TEXTS),
    st.sampled_from([(), (), ("s",), ("i", "x")]),  # row- or cell-level
    st.booleans(),  # padded long enough to earn a snippet
)
rows = st.lists(
    st.tuples(st.fixed_dictionaries(VALUES),
              st.lists(annotation, max_size=3)),
    min_size=1, max_size=8,
)
literals = st.sampled_from([None, 0, 1, 2, -1.5, 2.5, "a", b"ab", True])
# "z" names no summary set: a typed error on every row it is evaluated on
aliases = st.sampled_from([ALIAS, ALIAS, None, None, ALIAS, "z"])


def chain(alias, *calls):
    return SummaryExpr(alias, tuple(FuncCall(n, a) for n, a in calls))


label_value = st.builds(
    lambda alias, target: chain(
        alias, ("getSummaryObject", (target[0],)),
        ("getLabelValue", (target[1],)),
    ),
    aliases,
    st.sampled_from([
        ("C", "Disease"), ("C", "Anatomy"), ("C", "Behavior"), ("C", "Other"),
        ("Tree", "Health"), ("Tree", "Life"),  # rollups: no raw count
        ("Tree", "Disease"),
        ("Nope", "Disease"),  # a missing instance nullifies the chain
        ("C", "Health"),  # not a label of flat C: a typed error
    ]),
)
sizes = st.one_of(
    aliases.map(lambda a: chain(a, ("getSize", ()))),
    st.builds(
        lambda a, instance: chain(a, ("getSummaryObject", (instance,)),
                                  ("getSize", ())),
        aliases, st.sampled_from(["C", "S", "Nope"]),
    ),
)
keyword_search = st.builds(
    lambda alias, fn, kws: chain(
        alias, ("getSummaryObject", ("S",)), (fn, tuple(kws))
    ),
    aliases,
    st.sampled_from(["containsUnion", "containsSingle"]),
    st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=2),
)
data_ref = st.sampled_from(NAMES).map(lambda c: ColumnRef(ALIAS, c))
summary_value = st.one_of(label_value, sizes)


def comparison(left, right):
    return st.builds(
        lambda op, a, b, swap: Comparison(op, b, a) if swap
        else Comparison(op, a, b),
        st.sampled_from(OPS), left, right, st.booleans(),
    )


counts = st.sampled_from([0, 1, 2, 2.5, None, "a"]).map(Literal)
leaf = st.one_of(
    comparison(data_ref, literals.map(Literal)),
    comparison(label_value, counts),
    comparison(label_value, counts),  # twice: the raw fast path's shape
    comparison(sizes, counts),
    comparison(summary_value, st.one_of(data_ref, summary_value)),
    keyword_search,
    aliases.map(lambda a: SummaryExpr(a, ())),  # bare $: a non-empty set
    data_ref,  # bare column truthiness
)
predicate = st.one_of(leaf, st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda i: And(tuple(i))),
        st.lists(inner, min_size=2, max_size=3).map(lambda i: Or(tuple(i))),
        inner.map(Not),
    ),
    max_leaves=4,
))
select_items = st.lists(
    st.one_of(
        st.just(Star()),
        data_ref.map(SelectItem),
        st.one_of(summary_value, keyword_search).map(SelectItem),
    ),
    min_size=1, max_size=3,
)


def build(data) -> Database:
    db = Database()
    db.create_table("t", [Column(n, t) for n, t in zip(NAMES, TYPES)])
    db.create_classifier_instance("C", ["Disease", "Anatomy", "Behavior",
                                        "Other"], SEED)
    db.create_hierarchical_classifier_instance("Tree", TREE, SEED)
    db.create_snippet_instance("S", min_chars=60, max_chars=40)
    for name in ("C", "Tree", "S"):
        db.sql(f"Alter Table t Add {name}")
    for values, notes in data:
        oid = db.insert("t", values)
        for text, columns, long_form in notes:
            if long_form:
                text = f"{text} " + "padding words " * 5
            db.add_annotation(text, table="t", oid=oid, columns=columns)
    return db


# -- the properties ------------------------------------------------------------


@given(
    data=rows,
    where=predicate,
    items=select_items,
    summary_select=st.booleans(),
    retained=st.sampled_from([None, {"s"}, {"i", "f"}]),
)
def test_filter_project_equal_row_at_a_time_evaluation(
    data, where, items, summary_select, retained
):
    expected, got = both_ways(data, where, items, summary_select, retained)
    event("error" if expected and expected[0] == "error"
          else "rows" if expected else "empty")
    assert got == expected


def both_ways(data, where, items, summary_select=False, retained=None):
    """(row-at-a-time, Filter/Project) observations of one query."""
    db = build(data)
    ctx = db.planner.exec_context()
    select = SummarySelectOp if summary_select else FilterOp
    op = ProjectOp(ctx, select(ctx, SeqScan(ctx, "t", ALIAS,
                                            retained=retained), where),
                   items)
    expected = observe(lambda: per_row(db, where, items, retained))
    return expected, observe(lambda: list(op.rows()))


# The first row is unannotated, so "Health" (a rollup, not a label of flat
# C) only fails on the second; "$z" names no summary set and fails on both.
UNEVEN = [(dict.fromkeys(NAMES), []),
          (dict.fromkeys(NAMES), [(TEXTS[0], (), False)])]
NOT_A_LABEL = chain(ALIAS, ("getSummaryObject", ("C",)),
                    ("getLabelValue", ("Health",)))
NO_SET = chain("z", ("getSize", ()))


def test_predicate_fails_with_the_first_rows_error():
    """Column-at-a-time, the left operand's error (row 2) comes before the
    right's (row 1); row-at-a-time meets row 1's first."""
    expected, got = both_ways(UNEVEN, Comparison("=", NOT_A_LABEL, NO_SET),
                              [Star()])
    assert expected == ("error", "QueryError")
    assert got == expected


def test_select_list_fails_with_the_first_rows_error():
    expected, got = both_ways(UNEVEN, Literal(True),
                              [SelectItem(NOT_A_LABEL), SelectItem(NO_SET)])
    assert expected == ("error", "QueryError")
    assert got == expected


@given(
    data=rows,
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, 7), max_size=8),  # rows to take
            st.sampled_from([None] + NAMES),  # column to force first
            st.lists(st.integers(0, 7), max_size=3),  # rows to realize
        ),
        min_size=1, max_size=4,
    ),
)
def test_lazy_rows_equal_whole_record_decode_across_takes(data, steps):
    db = build([(values, []) for values, _ in data])
    table = db.catalog.table("t")
    codec = table._codec
    ctx = db.planner.exec_context()
    [batch] = SeqScan(ctx, "t", ALIAS, with_summaries=False).batches()
    records = list(batch.cols[0].block.records)
    for take, force, realize in steps:
        if force is not None:
            batch.column_values(f"{ALIAS}.{force}")
        for i in realize:
            if i < len(batch):
                assert batch.row(i).values[:-1] == codec.decode(records[i])
        take = [i for i in take if i < len(batch)]
        batch = batch.take(take)
        records = [records[i] for i in take]
        lazy = [c for c in batch.cols if isinstance(c, LazyColumn)]
        assert len({id(c.block) for c in lazy}) <= 1  # siblings share one
        for c in lazy:
            assert c.block.records == records
    for i, record in enumerate(records):
        assert batch.row(i).values[:-1] == codec.decode(record)
    for j, name in enumerate(NAMES):
        assert batch.column_values(f"{ALIAS}.{name}") == \
            [codec.decode(r)[j] for r in records]


# -- the decode guard ----------------------------------------------------------


FIG11 = two_predicate_query(3, 6, "wing")
FIG12 = "Select * From birds r Where r.aou_id < 10020"


@pytest.fixture(scope="module")
def birds():
    db = build_database(WorkloadConfig(
        num_birds=60, annotations_per_tuple=12, indexes="none",
        cell_fraction=0.0, seed=4,
    ))
    db.options.index_scheme = "none"
    for sql in (FIG11, FIG12):
        assert "SeqScan" in db.explain(sql).physical
        db.sql(sql)  # planner statistics settle outside the counted runs
    return db


@pytest.fixture()
def decodes(monkeypatch):
    """Counts of whole-record decodes and of ``decode_column`` calls by the
    number of records they walked."""
    counts = {"decode": 0, "column_records": []}
    decode, decode_column = RecordCodec.decode, RecordCodec.decode_column

    def counted_decode(self, data):
        counts["decode"] += 1
        return decode(self, data)

    def counted_decode_column(self, records, index):
        counts["column_records"].append(len(records))
        return decode_column(self, records, index)

    monkeypatch.setattr(RecordCodec, "decode", counted_decode)
    monkeypatch.setattr(RecordCodec, "decode_column", counted_decode_column)
    return counts


def test_summary_only_predicates_decode_no_record(birds, decodes):
    """Fig 11: both conjuncts read summaries only. No row, rejected or
    kept, is decoded whole; the projection decodes its one column over the
    survivors alone."""
    result = birds.sql(FIG11)
    assert len(result) >= 1
    assert decodes["decode"] == 0
    assert sum(decodes["column_records"]) == len(result)


def test_realized_row_costs_one_decode(birds, decodes):
    select_star = FIG11.replace("Select common_name", "Select *", 1)
    result = birds.sql(select_star)
    assert len(result) >= 1
    assert decodes["decode"] == len(result)
    assert decodes["column_records"] == []


def test_select_star_decodes_each_output_row_once(birds, decodes):
    """Fig 12's propagation query: one whole-record decode per output row,
    and ``decode_column`` only over whole scan chunks for the filter."""
    result = birds.sql(FIG12)
    assert len(result) == 20
    assert decodes["decode"] == len(result)
    assert sum(decodes["column_records"]) == len(birds.catalog.table("birds"))
    assert all(n > 1 for n in decodes["column_records"])
