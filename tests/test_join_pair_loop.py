"""The nested-loop join's pair loop (DESIGN.md §5f).

``NestedLoopJoin`` binds each outer row into one mask per inner batch
instead of evaluating its conditions on a pair view per (outer, inner)
pair. The exactness oracle is the per-pair loop itself, kept here and
only here: outer × inner order, ``evaluate`` of the condition and then
the summary predicate on ``_pair_view``, ``QTuple.join`` of the pairs
that pass. A Hypothesis property draws two small annotated tables and
conditions mixing every conjunct class the operator distinguishes —
bindable data and summary-label comparisons, outer-only and inner-only
conjuncts, bare column references, ``Or``, ``LIKE``, cross joins with
only a summary predicate — and requires the same rows, in the same order,
with the same summary sets, or the same error type.

Deterministic cases cover deadlines and cancellation on a join plan,
outer-side expressions evaluated only for pairs that reach them, inner
sides longer than one batch, and the identity of an inner row's summary
set across outer rows.

The two index joins run the same pair loop over inner batches probed per
outer row, or per distinct key of an outer batch for an equality probe
(counted: one probe and one batch read per distinct key and outer
batch). A second property checks each against per-pair evaluation over
the same pairs with the probed conjunct included: keys of every type the
probes restate (NULL, integral and non-integral floats, both zeros,
strings, bools, ints near 2**53), each outer row's rows (outer order preserved),
or the same error type. A counted guard pins the batch reads: no
``Table.read`` and at most one summary-cache pass per inner batch. A
tuple gone from behind either index raises ``RecordNotFoundError``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.catalog.keys import encode_int
from repro.catalog.table import Table, pack_rid
from repro.errors import (
    QueryCancelledError,
    QueryError,
    QueryTimeoutError,
    RecordNotFoundError,
)
from repro.query.ast import (
    And,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Or,
    SummaryExpr,
    UdfCall,
)
from repro.bench.queries import example4_query
from repro.query.eval import CompiledPredicate, evaluate
from repro.query.logical import conjoin
from repro.query.parser import parse_sql
from repro.query.physical import (
    IndexNestedLoopJoin,
    NestedLoopJoin,
    SeqScan,
    SortOp,
    SummaryIndexNestedLoopJoin,
)
from repro.query.physical import joins
from repro.query.physical.joins import _pair_view
from repro.query.tuples import QTuple
from repro.resilience import ExecutionContext
from repro.resilience.context import BATCH_ROWS
from repro.summaries.storage import SummaryStorage
from repro.workload import build_database

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.workloads import (  # noqa: E402
    JOIN_THRESHOLD,
    WORKLOADS,
    Scale,
)

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("survey checklist volunteer", "Other"),
]
TEXTS = ["flu virus infection", "survey checklist", "outbreak of flu",
         "volunteer survey count"]
OUTER, INNER = "x", "y"
OUTER_COLUMNS = ["i", "f", "t", "oid"]
INNER_COLUMNS = ["k", "g", "u", "oid"]
OPS = ["=", "<>", "<", "<=", ">", ">="]


# -- the reference -------------------------------------------------------------


def per_pair_join(op: NestedLoopJoin) -> list[QTuple]:
    """Row-at-a-time nested loop: the semantics the operator must keep."""
    eval_ctx = op.ctx.eval_ctx
    inner = list(op.right.rows())
    out = []
    for left_row in op.left.rows():
        for right_row in inner:
            pair = _pair_view(left_row, right_row)
            if op.condition is not None and not evaluate(
                op.condition, pair, eval_ctx
            ):
                continue
            if op.summary_predicate is not None and not evaluate(
                op.summary_predicate, pair, eval_ctx
            ):
                continue
            out.append(QTuple.join(left_row, right_row))
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
            len(row.distinct_summary_sets()),
            json.dumps(row.merged_summary_set().to_display(),
                       sort_keys=True, default=str),
        )
        for row in rows
    ]


# -- strategies ----------------------------------------------------------------

BIG = 2 ** 53
#: The type edges of ``=``: ints past float64's exact range and at the
#: int64 bounds, integral and non-integral floats, both zeros and NaN,
#: and a numeric-looking string.
ints = st.one_of(st.none(), st.sampled_from(
    [0, 1, 2, 3, 4, BIG, BIG + 1, (1 << 63) - 1, -(1 << 63)]))
floats = st.one_of(st.none(), st.sampled_from(
    [-1.0, 0.0, -0.0, 0.5, 1.0, 2.0, 3.5, float(BIG), float("nan")]))
texts = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "flu",
                                              "3"]))
annotations = st.lists(st.sampled_from(TEXTS), max_size=2)
rows = st.lists(st.tuples(ints, floats, texts, annotations), min_size=1,
                max_size=7)
literals = st.sampled_from([None, 0, 1, 2.5, -1.0, "a", "ab"])


def label(alias: str, name: str) -> SummaryExpr:
    return SummaryExpr(alias, (
        FuncCall("getSummaryObject", ("C",)),
        FuncCall("getLabelValue", (name,)),
    ))


def operand(alias: str, columns: list[str]):
    return st.one_of(
        st.sampled_from(columns).map(lambda c: ColumnRef(alias, c)),
        st.sampled_from(["Disease", "Other"]).map(
            lambda name: label(alias, name)
        ),
    )


def comparison(left, right):
    """``left op right`` with either operand first."""
    return st.builds(
        lambda op, a, b, swap: Comparison(op, b, a) if swap
        else Comparison(op, a, b),
        st.sampled_from(OPS), left, right, st.booleans(),
    )


# "nosuch" is a QueryError on every pair that reaches it: outer sides are
# evaluated only for pairs an earlier conjunct let through.
outer_side = operand(OUTER, OUTER_COLUMNS + ["nosuch"])
inner_side = operand(INNER, INNER_COLUMNS)
bound_conjunct = comparison(outer_side, inner_side)
summary_conjunct = comparison(
    st.sampled_from(["Disease", "Other"]).map(lambda n: label(OUTER, n)),
    st.sampled_from(["Disease", "Other"]).map(lambda n: label(INNER, n)),
)
one_side_conjunct = st.one_of(
    comparison(outer_side, literals.map(Literal)),
    comparison(inner_side, literals.map(Literal)),
)
bare_conjunct = comparison(
    # "i" is unique to the outer table and "k" to the inner one; "oid" is
    # on both sides, so a bare "oid" is an ambiguity error on every pair.
    st.sampled_from(["i", "k", "oid"]).map(lambda c: ColumnRef(None, c)),
    st.one_of(inner_side, outer_side, literals.map(Literal)),
)
like_conjunct = st.builds(
    lambda a, b: Comparison("LIKE", a, b),
    st.sampled_from([ColumnRef(OUTER, "t"), ColumnRef(INNER, "u")]),
    st.sampled_from([ColumnRef(INNER, "u"), ColumnRef(OUTER, "t"),
                     Literal("a%"), Literal("%b")]),
)
leaf_conjunct = st.one_of(bound_conjunct, summary_conjunct, one_side_conjunct,
                          bare_conjunct, like_conjunct)
conjunct = st.one_of(
    leaf_conjunct,
    st.lists(leaf_conjunct, min_size=2, max_size=2).map(
        lambda items: Or(tuple(items))
    ),
)
# A key conjunct: ``=`` between an outer expression and a bare inner data
# column, after outer-only conjuncts alone (the block join indexes the
# column), then anything.
key_conjunct = st.builds(
    lambda outer, column, swap: Comparison("=", ColumnRef(INNER, column),
                                           outer) if swap
    else Comparison("=", outer, ColumnRef(INNER, column)),
    outer_side, st.sampled_from(INNER_COLUMNS), st.booleans(),
)
keyed_condition = st.builds(
    lambda head, key, rest: head + [key] + rest,
    st.lists(comparison(outer_side, literals.map(Literal)), max_size=2),
    key_conjunct,
    st.lists(conjunct, max_size=2),
)


def build(outer_rows, inner_rows) -> Database:
    db = Database()
    db.create_table("a", [Column("i", ValueType.INT),
                          Column("f", ValueType.FLOAT),
                          Column("t", ValueType.TEXT)])
    db.create_table("b", [Column("k", ValueType.INT),
                          Column("g", ValueType.FLOAT),
                          Column("u", ValueType.TEXT)])
    db.create_classifier_instance("C", ["Disease", "Other"], SEEDS)
    db.sql("Alter Table a Add C")
    db.sql("Alter Table b Add C")
    for table, names, data in (("a", ("i", "f", "t"), outer_rows),
                               ("b", ("k", "g", "u"), inner_rows)):
        for *values, texts_ in data:
            oid = db.insert(table, dict(zip(names, values)))
            for text in texts_:
                db.add_annotation(text, table=table, oid=oid)
    return db


# -- the property --------------------------------------------------------------


@given(
    outer_rows=rows,
    inner_rows=rows,
    condition=st.one_of(st.lists(conjunct, max_size=3), keyed_condition),
    summary_predicate=st.lists(summary_conjunct, max_size=2),
    sorted_inner=st.booleans(),
)
def test_pair_loop_equals_per_pair_evaluation(
    outer_rows, inner_rows, condition, summary_predicate, sorted_inner
):
    db = build(outer_rows, inner_rows)
    ctx = db.planner.exec_context()
    inner = SeqScan(ctx, "b", INNER)
    if sorted_inner:
        # Row-backed inner batches (a pipeline breaker below the join).
        inner = SortOp(ctx, inner, [(ColumnRef(INNER, "oid"), "DESC")])
    op = NestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER), inner,
                        conjoin(condition), conjoin(summary_predicate))
    expected = observe(lambda: per_pair_join(op))
    event("error" if expected and expected[0] == "error"
          else "rows" if expected else "empty")
    assert observe(lambda: list(op.rows())) == expected


# -- deterministic cases -------------------------------------------------------


def joined_db() -> Database:
    return build(
        [(i, i / 2, "ab"[i % 2], TEXTS[: i % 3]) for i in range(5)],
        [(i % 3, float(i), "a", TEXTS[i % 4: i % 4 + 1]) for i in range(9)],
    )


JOIN_SQL = "Select x.t, y.u From a x, b y Where x.i = y.k"


def test_join_sql_is_planned_as_nested_loop():
    db = joined_db()
    physical, _logical, _cost = db.planner.plan(parse_sql(JOIN_SQL))
    assert "NestedLoopJoin" in physical.explain()
    assert len(db.sql(JOIN_SQL)) == 9


def test_zero_timeout_trips_on_the_join_plan():
    db = joined_db()
    with pytest.raises(QueryTimeoutError) as err:
        db.execute(JOIN_SQL, timeout=0)
    assert err.value.partial["checks"] >= 1


def test_pre_cancelled_context_stops_the_join_plan():
    db = joined_db()
    physical, _logical, _cost = db.planner.plan(parse_sql(JOIN_SQL))
    runtime = ExecutionContext()
    runtime.attach(physical)
    runtime.cancel()
    with pytest.raises(QueryCancelledError):
        list(physical.rows())


@pytest.mark.parametrize("alias, column, value, raises", [
    (OUTER, "i", 99, False),   # outer-only: no outer row passes
    (INNER, "k", 99, False),   # inner-only: every mask is empty
    (OUTER, "i", 0, True),
    (INNER, "k", 0, True),
])
def test_outer_side_is_evaluated_only_for_pairs_that_reach_it(
    alias, column, value, raises
):
    # ``x.nosuch`` raises on any row (the binder would reject it in SQL):
    # it may only be evaluated once some pair passed the first conjunct.
    db = joined_db()
    ctx = db.planner.exec_context()
    condition = And((
        Comparison(">=", ColumnRef(alias, column), Literal(value)),
        Comparison("=", ColumnRef(OUTER, "nosuch"), ColumnRef(INNER, "k")),
    ))
    op = NestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER),
                        SeqScan(ctx, "b", INNER), condition)
    if raises:
        with pytest.raises(QueryError):
            list(op.rows())
    else:
        assert list(op.rows()) == []


def test_multi_batch_inner_matches_per_pair_evaluation():
    db = build(
        [(i % 4, i / 4, "ab"[i % 2], TEXTS[: i % 3]) for i in range(6)],
        [(i % 5, (i % 7) / 2, "a" if i % 3 else None, TEXTS[i % 4: i % 5])
         for i in range(150)],
    )
    ctx = db.planner.exec_context()
    condition = And((
        Comparison("=", ColumnRef(OUTER, "i"), ColumnRef(INNER, "k")),
        Comparison("<=", label(INNER, "Other"), label(OUTER, "Disease")),
        Comparison("LIKE", ColumnRef(INNER, "u"), ColumnRef(OUTER, "t")),
    ))
    op = NestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER),
                        SeqScan(ctx, "b", INNER), condition)
    expected = observe(lambda: per_pair_join(op))
    assert len(expected) >= 5  # rows, not an error
    assert observe(lambda: list(op.rows())) == expected


def test_inner_summary_sets_are_shared_across_outer_rows():
    """Every outer row's pair view sees the *same* summary-set object for
    one inner row (memoized row views), as when one tuple object was
    joined against every outer row."""
    db = joined_db()
    ctx = db.planner.exec_context()
    seen: dict[int, list] = {}

    def record(right_set, oid):
        seen.setdefault(oid, []).append(right_set)
        return True

    ctx.eval_ctx.udfs["record"] = record
    op = NestedLoopJoin(
        ctx, SeqScan(ctx, "a", OUTER), SeqScan(ctx, "b", INNER),
        condition=Comparison(">=", ColumnRef(OUTER, "i"), Literal(0)),
        summary_predicate=UdfCall("record", (
            SummaryExpr(INNER, ()), ColumnRef(INNER, "oid"),
        )),
    )
    assert len(list(op.rows())) == 5 * 9
    assert len(seen) == 9
    for sets in seen.values():
        assert len(sets) == 5
        assert all(s is sets[0] for s in sets)


# -- the key index ------------------------------------------------------------

EDGE_INTS = [None, 0, 2, BIG, BIG + 1, (1 << 63) - 1, -(1 << 63)]
EDGE_FLOATS = [None, 0.0, -0.0, 2.0, 2.5, float(BIG), float("nan")]
EDGE_TEXTS = [None, "", "2", "a"]


def count_key_indexes(monkeypatch) -> list:
    built: list = []
    real = joins._key_index

    def key_index(inner, name):
        built.append(name)
        return real(inner, name)

    monkeypatch.setattr(joins, "_key_index", key_index)
    return built


@pytest.mark.parametrize("outer_column", ["i", "f", "t"])
@pytest.mark.parametrize("inner_column", ["k", "g", "u"])
@pytest.mark.parametrize("shape", ["first", "swapped", "after_outer",
                                   "residual"])
@pytest.mark.parametrize("inner_nulls", [False, True])
def test_key_index_equals_per_pair_at_the_type_edges(
    monkeypatch, outer_column, inner_column, shape, inner_nulls
):
    """Every pairing of an INT, FLOAT and TEXT outer column with an inner
    one over three inner batches holding each edge value: ints past 2**53
    and at the int64 bounds against integral floats, both zeros, NaN,
    NULLs and numeric-looking strings.  Without NULLs the numeric inner
    columns are int64 and float64 arrays.  The block join indexes the
    inner column once; rows and their order are per-pair evaluation's."""
    ints, floats = (EDGE_INTS, EDGE_FLOATS) if inner_nulls \
        else (EDGE_INTS[1:], EDGE_FLOATS[1:])
    db = build(
        [(i, f, EDGE_TEXTS[n % 4], TEXTS[:n % 2])
         for n, (i, f) in enumerate(zip(EDGE_INTS, EDGE_FLOATS))],
        [(ints[n % len(ints)], floats[n // 7 % len(floats)],
          EDGE_TEXTS[n % 4], TEXTS[n % 3:n % 3 + 1])
         for n in range(2 * BATCH_ROWS + 5)],
    )
    outer, inner = ColumnRef(OUTER, outer_column), ColumnRef(INNER,
                                                            inner_column)
    key = Comparison("=", outer, inner)
    condition = {
        "first": key,
        "swapped": Comparison("=", inner, outer),
        "after_outer": And((
            Comparison("<>", ColumnRef(OUTER, "t"), Literal("a")), key)),
        "residual": And((key, Comparison(
            ">=", label(INNER, "Other"), label(OUTER, "Other")))),
    }[shape]
    ctx = db.planner.exec_context()
    op = NestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER),
                        SeqScan(ctx, "b", INNER), condition)
    expected = observe(lambda: per_pair_join(op))
    built = count_key_indexes(monkeypatch)
    assert observe(lambda: list(op.rows())) == expected
    assert built == [f"{INNER}.{inner_column}"]
    if outer_column + inner_column in ("ik", "fg", "tu"):
        assert expected and expected[0] != "error"


def test_example4_indexes_the_inner_key_once_and_compares_nothing(
    monkeypatch
):
    """Example 4 at the served benchmark's scale: its block join builds
    one key index per run and asks the compare kernel for no mask at all
    (per-pair binding asked for 2 outer rows x 5 inner batches), reading
    the same pages."""
    db = build_database(WORKLOADS["read_indexed"].config(Scale()))
    sql = example4_query(JOIN_THRESHOLD)
    assert "NestedLoopJoin[NLoop]" in str(db.sql(f"Explain {sql}"))
    def answer():
        return [tuple(row.values) for row in db.sql(sql).tuples]

    expected = answer()
    masks: list = []
    real_mask = CompiledPredicate.mask

    def mask(self, batch, ctx=None, active=None):
        masks.append(str(self.expr))
        return real_mask(self, batch, ctx, active)

    monkeypatch.setattr(CompiledPredicate, "mask", mask)
    built = count_key_indexes(monkeypatch)
    pages = db.pool.hits + db.pool.misses
    for _run in range(3):
        assert answer() == expected
    assert len(expected) == 6
    assert built == ["s.bird_id"] * 3
    assert masks == []
    assert db.pool.hits + db.pool.misses - pages == 3 * 7


# -- the index joins -----------------------------------------------------------

KEYS = [None, 0, 1, 2, 2.0, 2.5, -1.0, -0.0, "a", "ab", True, False, BIG,
        BIG + 1, float(BIG)]
PROBE_OPS = ["=", "<", "<=", ">", ">="]
wide_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 2),
                  st.sampled_from([BIG, BIG + 1, -BIG - 1])),
        st.one_of(st.none(),
                  st.sampled_from([0.0, -0.0, 0.5, 2.0, float(BIG)])),
        st.one_of(st.none(), st.sampled_from(["a", "ab"])),
        annotations,
    ),
    min_size=2, max_size=7,
)
keys = st.one_of(
    st.sampled_from(["i", "f", "t"]).map(lambda c: ColumnRef(OUTER, c)),
    st.sampled_from(["Disease", "Other"]).map(lambda n: label(OUTER, n)),
    st.sampled_from(KEYS).map(Literal),
    st.sampled_from([True, False, 1.0, BIG + 1]).map(Literal),
)


def indexed(outer_rows, inner_rows) -> Database:
    db = build(outer_rows, inner_rows)
    for column in ("k", "g", "u"):
        db.create_index("b", column)
    db.create_summary_index("b", "C")
    return db


def per_pair_index_join(op, probed) -> list[QTuple]:
    """The index join's answer by per-pair evaluation over every inner
    row, the probed conjunct first."""
    eval_ctx = op.ctx.eval_ctx
    inner = list(SeqScan(op.ctx, "b", INNER).rows())
    out = []
    for left_row in op.left.rows():
        for right_row in inner:
            pair = _pair_view(left_row, right_row)
            if all(c is None or evaluate(c, pair, eval_ctx) for c in
                   (probed, op.condition, op.summary_predicate)):
                out.append(QTuple.join(left_row, right_row))
    return out


def per_outer_row(observed):
    """Each outer row's joined rows, as a multiset: an index join yields
    its hits in index order, so only the outer order is fixed."""
    if observed and observed[0] == "error":
        return observed
    blocks: list = []
    for row in observed:
        outer = row[1][OUTER_COLUMNS.index("oid")]
        if not blocks or blocks[-1][0] != outer:
            blocks.append((outer, []))
        blocks[-1][1].append(row)
    return [(outer, sorted(rows)) for outer, rows in blocks]


@given(
    outer_rows=wide_rows,
    inner_rows=wide_rows,
    key=keys,
    op=st.sampled_from(PROBE_OPS),
    condition=st.lists(conjunct, max_size=1),
    summary_predicate=st.lists(summary_conjunct, max_size=1),
)
def test_index_joins_equal_per_pair_evaluation(
    outer_rows, inner_rows, key, op, condition, summary_predicate
):
    """Every probe of one drawn key: the data index on each inner column,
    the Summary-BTree on each label."""
    db = indexed(outer_rows, inner_rows)
    ctx = db.planner.exec_context()
    residuals = dict(condition=conjoin(condition),
                     summary_predicate=conjoin(summary_predicate))
    joins = [
        (IndexNestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER), "b", INNER,
                             column, key, **residuals),
         Comparison("=", key, ColumnRef(INNER, column)))
        for column in ("k", "g", "u")
    ] + [
        (SummaryIndexNestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER), "b",
                                    INNER, "C", name, op, key, **residuals),
         Comparison(op, key, label(INNER, name)))
        for name in ("Disease", "Other")
    ]
    for join, probed in joins:
        expected = per_outer_row(observe(
            lambda: per_pair_index_join(join, probed)
        ))
        event("error" if expected and expected[0] == "error"
              else "rows" if expected else "empty")
        assert per_outer_row(observe(lambda: list(join.rows()))) \
            == expected, join.label()


def fanout_db() -> Database:
    """Five outer rows, each matching 30 of 150 inner rows on both
    indexes (``k`` and the Disease count agree)."""
    def notes(n):
        return ["survey checklist"] + ["flu virus infection"] * n

    db = build(
        [(i, float(i), "a", notes(i)) for i in range(5)],
        [(i % 5, 0.0, "a", notes(i % 5)) for i in range(150)],
    )
    db.create_index("b", "k")
    db.create_summary_index("b", "C")
    return db


@pytest.mark.parametrize("summary_join", [False, True])
def test_index_join_reads_each_inner_batch_at_once(monkeypatch, summary_join):
    """No ``Table.read`` per hit, and at most one summary-cache pass (one
    ``SummaryStorage.get_many``) per inner batch."""
    db = fanout_db()
    ctx = db.planner.exec_context()
    if summary_join:
        op = SummaryIndexNestedLoopJoin(
            ctx, SeqScan(ctx, "a", OUTER), "b", INNER, "C", "Disease", "=",
            label(OUTER, "Disease"),
            summary_predicate=Comparison(">=", label(INNER, "Other"),
                                         Literal(0)),
        )
        probed = Comparison("=", label(OUTER, "Disease"),
                            label(INNER, "Disease"))
    else:
        op = IndexNestedLoopJoin(
            ctx, SeqScan(ctx, "a", OUTER), "b", INNER, "k",
            ColumnRef(OUTER, "i"),
            condition=Comparison("LIKE", ColumnRef(INNER, "u"),
                                 ColumnRef(OUTER, "t")),
        )
        probed = Comparison("=", ColumnRef(OUTER, "i"),
                            ColumnRef(INNER, "k"))
    expected = per_outer_row(observe(lambda: per_pair_index_join(op,
                                                                 probed)))
    counts = {"read": 0, "passes": 0}
    real_read, real_get_many = Table.read, SummaryStorage.get_many

    def read(self, oid):
        counts["read"] += 1
        return real_read(self, oid)

    def get_many(self, oids):
        counts["passes"] += self.table_name == "b"
        return real_get_many(self, oids)

    monkeypatch.setattr(Table, "read", read)
    monkeypatch.setattr(SummaryStorage, "get_many", get_many)
    db.manager.cache.clear()
    rows = observe(lambda: list(op.rows()))
    assert per_outer_row(rows) == expected
    assert len(rows) == 5 * 30
    inner_batches = 5 * -(-30 // BATCH_ROWS)
    assert counts["read"] == 0
    assert counts["passes"] <= inner_batches


@pytest.mark.parametrize("summary_join", [False, True])
def test_dangling_index_hit_raises_record_not_found(summary_join):
    """A hit whose tuple is gone from the heap and the OID index (the
    data index and the Summary-BTree still name it) is an error, not a
    silently shorter answer."""
    db = fanout_db()
    table = db.catalog.table("b")
    rid = table.disk_tuple_loc(3)
    table.heap.delete(rid)
    table.oid_index.delete(encode_int(3), pack_rid(rid))
    ctx = db.planner.exec_context()
    if summary_join:
        op = SummaryIndexNestedLoopJoin(
            ctx, SeqScan(ctx, "a", OUTER), "b", INNER, "C", "Disease", "=",
            label(OUTER, "Disease"),
        )
    else:
        op = IndexNestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER), "b", INNER,
                                 "k", ColumnRef(OUTER, "i"))
    with pytest.raises(RecordNotFoundError):
        list(op.rows())


def repeated_keys_db(outer: int) -> Database:
    """``outer`` rows over two distinct keys; each key matches 30 of the
    60 inner rows on both indexes (``k`` and the Disease count agree)."""
    def notes(n):
        return ["survey checklist"] + ["flu virus infection"] * n

    return indexed(
        [(i % 2, float(i), "a", notes(i % 2)) for i in range(outer)],
        [(i % 2, 0.0, "a", notes(i % 2)) for i in range(60)],
    )


@pytest.mark.parametrize("summary_join, op, outer, probes", [
    (False, "=", 8, 2), (True, "=", 8, 2), (True, ">=", 8, 8),
    (False, "=", BATCH_ROWS + 6, 4), (True, "=", BATCH_ROWS + 6, 4),
])
def test_equality_index_join_probes_each_distinct_key_once(
    monkeypatch, summary_join, op, outer, probes
):
    """An equality probe runs once per distinct key of an outer batch,
    and its hits are read once; the memo ends with the batch, so two
    outer batches over the same two keys probe four times.  A range
    probe still runs once per outer row."""
    db = repeated_keys_db(outer)
    ctx = db.planner.exec_context()
    if summary_join:
        key = label(OUTER, "Disease")
        join = SummaryIndexNestedLoopJoin(
            ctx, SeqScan(ctx, "a", OUTER), "b", INNER, "C", "Disease", op,
            key)
        probed = Comparison(op, key, label(INNER, "Disease"))
    else:
        key = ColumnRef(OUTER, "i")
        join = IndexNestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER), "b",
                                   INNER, "k", key)
        probed = Comparison("=", key, ColumnRef(INNER, "k"))
    expected = per_outer_row(observe(lambda: per_pair_index_join(join,
                                                                 probed)))
    counts = {"lookups": 0, "reads": 0}
    real_lookup, real_read_many = Table.index_lookup, Table.read_many

    def index_lookup(self, column, value):
        counts["lookups"] += 1
        return real_lookup(self, column, value)

    def read_many(self, oids):
        counts["reads"] += 1
        return real_read_many(self, oids)

    monkeypatch.setattr(Table, "index_lookup", index_lookup)
    monkeypatch.setattr(Table, "read_many", read_many)
    summary_index = ctx.derived_index("summary", "b", "C")
    before = summary_index.probes
    rows = observe(lambda: list(join.rows()))
    assert per_outer_row(rows) == expected
    assert rows and rows[0] != "error"
    assert (summary_index.probes - before if summary_join
            else counts["lookups"]) == probes
    assert counts["reads"] == probes



def test_both_zeros_join_a_float_zero():
    """-0.0 == 0.0, though the FLOAT index keys them apart: each outer
    zero joins every inner zero of either sign, whichever comes first."""
    inner = [(0, z, "a", []) for z in (0.0, -0.0, 0.0, 0.5)]
    for outer in ([-0.0, 0.0], [0.0, -0.0]):
        db = indexed([(0, z, "a", []) for z in outer], inner)
        ctx = db.planner.exec_context()
        key = ColumnRef(OUTER, "f")
        join = IndexNestedLoopJoin(ctx, SeqScan(ctx, "a", OUTER), "b",
                                   INNER, "g", key)
        probed = Comparison("=", key, ColumnRef(INNER, "g"))
        rows = per_outer_row(observe(lambda: list(join.rows())))
        assert rows == per_outer_row(observe(
            lambda: per_pair_index_join(join, probed)))
        assert [len(hits) for _, hits in rows] == [3, 3]
