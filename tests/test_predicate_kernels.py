"""Compiled predicate masks equal row-at-a-time evaluation.

:class:`~repro.query.eval.CompiledPredicate` compiles a predicate once
per plan into kernels: ``And``/``Or``/``Not`` over comparisons of summary
chains, data columns and constants, with a direct read of
``getSummaryObject('I').getLabelValue('L')`` off a classifier object that
holds ``L`` and a per-batch memo of chain values.  The oracle here is
plain :func:`~repro.query.eval.evaluate` on each active row view of the
batch: the mask must equal it, and when a row fails, the error raised
(type and text) must be the first failing row's.  A Hypothesis property
draws tables with rows that carry no summary object, INT values near
2**53, NaN / ±inf / -0.0 floats and NULLs, and predicates over all six
operators with the constant on either side — int literals near 2**53,
floats, NaN, bools and NULL — on missing instances, unknown labels,
hierarchical inner nodes, positional ``getLabelValue(i)`` and a ``$``
that names no set.

The guard counts chain walks on the §5 scan queries: each scanned row's
``ClassBird1`` chain is walked once however many conjuncts read it, and
the survivors' row views carry the very summary sets the mask read.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.bench.queries import CLASS_EXPR, two_predicate_query
from repro.errors import SummaryError
from repro.query.ast import (
    And,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Not,
    Or,
    SummaryExpr,
)
from repro.query.eval import CompiledPredicate, evaluate
from repro.query.physical import SeqScan
from repro.summaries.functions import SummarySet
from repro.workload.generator import WorkloadConfig, build_database

TREE = {"Health": {"Disease": {}, "Anatomy": {}},
        "Life": {"Behavior": {}, "Other": {}}}
SEED = [
    ("infection avian flu disease symptoms", "Disease"),
    ("wing beak plumage anatomy", "Anatomy"),
    ("migration nesting behavior flock", "Behavior"),
    ("note comment misc", "Other"),
]
TEXTS = [text for text, _label in SEED]
ALIAS = "r"
OPS = ["=", "<>", "<", "<=", ">", ">="]
BIG = 1 << 53


def build(data) -> Database:
    """``t(i INT, f FLOAT, s TEXT)`` with a flat classifier ``C``, a
    hierarchical one ``Tree`` and a snippet instance ``S``; a row drawn
    without notes carries no summary object."""
    db = Database()
    db.create_table("t", [Column("i", ValueType.INT),
                          Column("f", ValueType.FLOAT),
                          Column("s", ValueType.TEXT)])
    db.create_classifier_instance("C", ["Disease", "Anatomy", "Behavior",
                                        "Other"], SEED)
    db.create_hierarchical_classifier_instance("Tree", TREE, SEED)
    db.create_snippet_instance("S", min_chars=60, max_chars=40)
    for name in ("C", "Tree", "S"):
        db.sql(f"Alter Table t Add {name}")
    for values, notes in data:
        oid = db.insert("t", values)
        for text in notes:
            db.add_annotation(text, table="t", oid=oid)
    return db


def scan_batch(db: Database):
    ctx = db.planner.exec_context()
    [batch] = SeqScan(ctx, "t", ALIAS).batches()
    return batch, ctx.eval_ctx


def observe(run):
    try:
        return ("mask", run())
    except Exception as exc:  # noqa: BLE001 - type and text are observed
        return ("error", type(exc).__name__, str(exc))


def chain(alias, *calls) -> SummaryExpr:
    return SummaryExpr(alias, tuple(FuncCall(n, a) for n, a in calls))


# -- strategies ----------------------------------------------------------------

ints = st.one_of(st.none(), st.integers(-2, 3),
                 st.sampled_from([BIG - 1, BIG, BIG + 1, -BIG - 1]))
floats = st.one_of(st.none(), st.sampled_from(
    [0.0, -0.0, 1.0, 2.5, float(BIG), math.nan, math.inf, -math.inf]))
rows = st.lists(
    st.tuples(
        st.fixed_dictionaries({
            "i": ints, "f": floats,
            "s": st.one_of(st.none(), st.sampled_from(["", "a", "flu"])),
        }),
        st.lists(st.sampled_from(TEXTS), max_size=3),  # [] = no objects
    ),
    min_size=1, max_size=8,
)
literals = st.sampled_from([
    None, 0, 1, 2, -1, BIG, BIG + 1, -BIG - 1, 2.5, -0.0, math.nan,
    math.inf, float(BIG), True, False, "a", "fl%",
]).map(Literal)
# "z" names no summary set: a QueryError on every row it is evaluated on
aliases = st.sampled_from([ALIAS] * 6 + [None, "z"])
label_chain = st.builds(
    lambda alias, target: chain(alias, ("getSummaryObject", (target[0],)),
                                ("getLabelValue", (target[1],))),
    aliases,
    st.sampled_from([
        ("C", "Disease"), ("C", "Anatomy"), ("C", "Other"),
        ("C", "Anatomy"), ("C", "Disease"),  # again: the direct read's shape
        ("C", "Nope"),  # an unknown label: SummaryError
        ("Tree", "Health"), ("Tree", "Life"),  # inner nodes: rollups
        ("Tree", "Behavior"),
        ("Nope", "Disease"),  # a missing instance nullifies the chain
        ("C", 0), ("C", 3), ("C", 7), ("C", True),  # positional
        ("S", "Disease"),  # not a classifier: QueryError
    ]),
)
data_ref = st.sampled_from(["i", "f", "s"]).map(lambda c: ColumnRef(ALIAS, c))


def comparison(left, right):
    return st.builds(
        lambda op, a, b, swap: Comparison(op, b, a) if swap
        else Comparison(op, a, b),
        st.sampled_from(OPS), left, right, st.booleans(),
    )


def leaves(pool):
    """One comparison or bare chain over the chains of ``pool``."""
    chains = st.sampled_from(pool)
    operand = st.one_of(chains, data_ref)
    return st.one_of(
        comparison(chains, literals),
        comparison(data_ref, literals),
        comparison(operand, operand),
        comparison(operand, operand),
        st.builds(Comparison, st.just("LIKE"), operand,
                  st.one_of(literals, data_ref)),
        chains,  # a bare chain's truthiness
    )


def predicates(pool):
    """``And``/``Or``/``Not`` over a few chains, so that conjuncts and
    disjuncts share them (the memo's case)."""
    return st.recursive(
        leaves(pool),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda i: And(tuple(i))),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda i: Or(tuple(i))),
            inner.map(Not),
        ),
        max_leaves=5,
    )


pools = st.lists(label_chain, min_size=1, max_size=2)
exprs = st.one_of(pools.flatmap(leaves), pools.flatmap(predicates))
#: one comparison, every operator equally likely
comparisons = pools.flatmap(lambda pool: st.builds(
    Comparison, st.sampled_from(OPS + ["LIKE"]),
    st.one_of(st.sampled_from(pool), data_ref, literals),
    st.one_of(st.sampled_from(pool), data_ref, literals),
))
actives = st.lists(st.booleans(), min_size=8, max_size=8)


# -- the oracle ----------------------------------------------------------------


def assert_mask_equals_row_at_a_time(data, expr, active):
    """The compiled mask over a fresh scan batch, run twice, against
    ``evaluate`` on each active row view: the same list, or the same
    error type and text."""
    db = build(data)
    active = np.array(active[:len(data)], dtype=bool)
    batch, eval_ctx = scan_batch(db)
    expected = observe(lambda: [
        bool(evaluate(expr, batch.row(i), eval_ctx)) if on else False
        for i, on in enumerate(active.tolist())
    ])
    compiled = CompiledPredicate(expr)
    for _run in range(2):  # the second run: no per-run state is kept
        batch, eval_ctx = scan_batch(db)  # a fresh batch: nothing memoized
        got = observe(lambda: compiled.mask(batch, eval_ctx,
                                            active.copy()).tolist())
        assert got == expected
    return expected[0]


@given(data=rows, expr=exprs, active=actives)
def test_compiled_mask_equals_row_at_a_time(data, expr, active):
    event(assert_mask_equals_row_at_a_time(data, expr, active))


@given(data=rows, expr=comparisons, active=actives)
def test_compiled_comparison_equals_row_at_a_time(data, expr, active):
    event(assert_mask_equals_row_at_a_time(data, expr, active))


def test_a_later_use_of_a_chain_walks_only_the_rows_it_adds(monkeypatch):
    """``(i = 1 AND Disease >= 1) OR Disease < 1``: the second use asks
    for rows the first never saw (``i <> 1``) and rows it did; each row's
    chain is walked once, and the mask is row-at-a-time's."""
    data = [({"i": i % 2, "f": None, "s": None}, TEXTS[:i % 3])
            for i in range(6)]
    disease = chain(ALIAS, ("getSummaryObject", ("C",)),
                    ("getLabelValue", ("Disease",)))
    expr = Or((And((Comparison("=", ColumnRef(ALIAS, "i"), Literal(1)),
                    Comparison(">=", disease, Literal(1)))),
               Comparison("<", disease, Literal(1))))
    assert_mask_equals_row_at_a_time(data, expr, [True] * 6)
    walked = []
    get = SummarySet.get_summary_object
    monkeypatch.setattr(SummarySet, "get_summary_object",
                        lambda s, key: walked.append(s) or get(s, key))
    batch, eval_ctx = scan_batch(build(data))
    CompiledPredicate(expr).mask(batch, eval_ctx)
    assert len(walked) == len({id(s) for s in walked}) == 6


def test_failing_batch_raises_the_first_rows_error():
    """Row 0 has no C object, so both chains are NULL; row 1's ``s`` is
    NULL, so it fails only on the unknown label; row 2 fails on ``<``
    between an int and a string.  Column-at-a-time meets row 2's error
    in the first disjunct; row-at-a-time meets row 1's in the second."""
    db = build([({"i": 1, "f": 1.0, "s": "a"}, []),
                ({"i": 1, "f": 1.0, "s": None}, TEXTS[:1]),
                ({"i": 1, "f": 1.0, "s": "a"}, TEXTS[:1])])
    unknown = chain(ALIAS, ("getSummaryObject", ("C",)),
                    ("getLabelValue", ("Nope",)))
    disease = chain(ALIAS, ("getSummaryObject", ("C",)),
                    ("getLabelValue", ("Disease",)))
    expr = Or((Comparison("<", disease, ColumnRef(ALIAS, "s")),
               Comparison(">", unknown, Literal(0))))
    batch, eval_ctx = scan_batch(db)
    with pytest.raises(SummaryError) as expected:
        for i in range(len(batch)):
            evaluate(expr, batch.row(i), eval_ctx)
    batch, eval_ctx = scan_batch(db)
    with pytest.raises(SummaryError) as got:
        CompiledPredicate(expr).mask(batch, eval_ctx)
    assert str(got.value) == str(expected.value)


# -- the walk guard ------------------------------------------------------------


RANGE = f"Select common_name From birds r Where r.{CLASS_EXPR}('Anatomy') " \
        "in [2, 4]"
TWO_PRED = two_predicate_query(2, 4, "wing")


@pytest.fixture(scope="module")
def birds():
    db = build_database(WorkloadConfig(
        num_birds=150, annotations_per_tuple=12, indexes="none",
        cell_fraction=0.0, seed=4,
    ))
    db.options.index_scheme = "none"
    for sql in (RANGE, TWO_PRED):
        assert "SeqScan" in db.explain(sql).physical
        db.sql(sql)  # planner statistics settle outside the counted runs
    return db


@pytest.fixture()
def walks(monkeypatch):
    """The summary sets whose ``ClassBird1`` object was asked for, in
    call order: one per chain walk."""
    seen: list[SummarySet] = []
    get = SummarySet.get_summary_object

    def counted(self, key):
        if key == "ClassBird1":
            seen.append(self)
        return get(self, key)

    monkeypatch.setattr(SummarySet, "get_summary_object", counted)
    return seen


@pytest.mark.parametrize("sql", [RANGE, TWO_PRED])
def test_each_row_walks_its_chain_once(birds, walks, sql):
    result = birds.sql(sql)
    assert 0 < len(result) < len(birds.catalog.table("birds"))
    assert len(walks) == len(birds.catalog.table("birds"))
    assert len({id(s) for s in walks}) == len(walks)


def test_survivors_share_the_sets_the_mask_read(birds, walks):
    """``Anatomy in [2, 4]`` over each scan batch: the second conjunct
    walks no chain, and a survivor's row view carries the set its walk
    read, by identity."""
    label = chain(ALIAS, ("getSummaryObject", ("ClassBird1",)),
                  ("getLabelValue", ("Anatomy",)))
    expr = And((Comparison(">=", label, Literal(2)),
                Comparison("<=", label, Literal(4))))
    ctx = birds.planner.exec_context()
    compiled = CompiledPredicate(expr)
    survivors = 0
    for batch in SeqScan(ctx, "birds", ALIAS).batches():
        del walks[:]
        mask = compiled.mask(batch, ctx.eval_ctx)
        assert len(walks) == len(batch)  # one walk per row, both conjuncts
        for i in mask.nonzero()[0].tolist():
            assert batch.row(i).summary_sets[ALIAS] is walks[i]
            survivors += 1
    assert survivors > 0


def test_an_image_holds_no_compiled_predicate(birds):
    """Compiled kernels are closures, which do not pickle: after cached
    plans ran, the image still saves (the plan cache is not in it)."""
    join = (f"Select r.common_name From birds r, birds s Where "
            f"r.{CLASS_EXPR}('Anatomy') > s.{CLASS_EXPR}('Disease') "
            f"And s.aou_id < 10005")
    for sql in (RANGE, TWO_PRED, join, RANGE):
        birds.sql(sql)
    assert len(birds._plan_cache) > 0
    assert pickle.loads(pickle.dumps(birds)).sql(RANGE).rows == \
        birds.sql(RANGE).rows
