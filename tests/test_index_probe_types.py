"""Data-index probes answer what the heap path answers, whatever the key's
type.

The heap path compares with Python semantics (``QueryError`` when Python
cannot order the two values). A data B-Tree is keyed in its column's own
encoding, so ``IndexScan`` and ``IndexNestedLoopJoin`` restate a foreign
key first: an integral float probes as its int, a non-integral float
tightens a range to the integers inside it (and never equals an int),
a key Python never finds equal to a column value matches nothing, and an
order comparison Python cannot make raises the heap path's ``QueryError``.
NULL never matches, and an open lower bound never reaches NULL keys.
"""

from __future__ import annotations

import math

import pytest

from repro import Column, Database, ValueType
from repro.errors import QueryError
from repro.optimizer.cost import match_indexable_data_pred
from repro.query.ast import ColumnRef, Comparison, Literal
from repro.query.eval import CompiledPredicate, evaluate
from repro.query.physical import FilterOp, IndexScan, SeqScan

OPS = ["=", "<", "<=", ">", ">="]
KEYS = ["3", "3.0", "3.5", "'3'", "197.5", "NULL"]
COLUMNS = ["k", "g", "u", "b"]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table("t", [
        Column("k", ValueType.INT), Column("g", ValueType.FLOAT),
        Column("u", ValueType.TEXT), Column("b", ValueType.BOOL),
        Column("name", ValueType.TEXT),
    ])
    for i in range(200):
        database.insert("t", {"k": i, "g": i * 0.75, "u": str(i % 12),
                              "b": i % 2 == 0, "name": f"n{i}"})
    database.insert("t", {"name": "null"})
    for column in COLUMNS:
        database.create_index("t", column)
    database.analyze("t")
    return database


def outcome(db, sql, path):
    db.options.enable_data_indexes = path == "index"
    db.options.force_access = "index" if path == "index" else None
    try:
        plan = db.explain(sql).physical
        try:
            return plan, sorted(db.sql(sql).column("name"))
        except QueryError:
            return plan, QueryError
    finally:
        db.options.enable_data_indexes = True
        db.options.force_access = None


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("column", COLUMNS)
def test_index_scan_matches_seq_scan(db, column, op, key):
    sql = f"Select name From t r Where r.{column} {op} {key}"
    heap_plan, expected = outcome(db, sql, "heap")
    index_plan, got = outcome(db, sql, "index")
    assert "IndexScan" not in heap_plan
    # A NULL constant matches no row and is never an index bound.
    assert ("IndexScan" in index_plan) == (key != "NULL"), index_plan
    assert got == expected


def test_examples_from_the_heap_path(db):
    """The cases that raised untyped errors on the index path."""
    assert outcome(db, "Select name From t r Where r.k = 3.0",
                   "index")[1] == ["n3"]
    assert outcome(db, "Select name From t r Where r.k > 197.5",
                   "index")[1] == ["n198", "n199"]
    assert outcome(db, "Select name From t r Where r.k = 3.5",
                   "index")[1] == []
    assert outcome(db, "Select name From t r Where r.k = '3'",
                   "index")[1] == []
    assert outcome(db, "Select name From t r Where r.k < '3'",
                   "index")[1] is QueryError
    # NULL keys sit below every value in the B-Tree: `<` must not reach them.
    assert "null" not in outcome(
        db, "Select name From t r Where r.k < 2", "index"
    )[1]


# -- the int/float precision boundary ------------------------------------------
#
# Python compares an int with a float exactly; float64 does not hold every
# int past 2**53. The Filter's numpy fast path and the FLOAT index bound
# must both keep Python's answer.

BIG = 2 ** 53
PRECISION_ROWS = [
    (BIG + 1, float(BIG)), (1, 1.5), (3, 3.0), (BIG, float(BIG + 2)),
    (BIG - 1, float(BIG - 1)), (2 ** 63 - 1, 1e300), (-(2 ** 63), -math.inf),
    (0, math.inf), (-7, -2.5),
]
SCALARS = [3, 3.0, BIG - 1, BIG + 1, float(BIG - 1), float(BIG + 1), 2 ** 63,
           -(2 ** 63) - 1, 1e300, math.inf]


@pytest.fixture(scope="module")
def precision_db():
    database = Database()
    database.create_table("p", [Column("k", ValueType.INT),
                                Column("f", ValueType.FLOAT),
                                Column("name", ValueType.TEXT)])
    for n, (k, f) in enumerate(PRECISION_ROWS):
        database.insert("p", {"k": k, "f": f, "name": f"p{n}"})
    database.create_index("p", "k")
    database.create_index("p", "f")
    return database


def _names(op) -> list[str]:
    return sorted(row.get("name") for row in op.rows())


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("scalar", SCALARS, ids=repr)
@pytest.mark.parametrize("op", ["=", "<>"] + OPS[1:])
@pytest.mark.parametrize("column", ["k", "f"])
def test_precision_boundary_parity(precision_db, column, op, scalar, swap):
    ctx = precision_db.planner.exec_context()
    col, lit = ColumnRef("r", column), Literal(scalar)
    expr = Comparison(op, lit, col) if swap else Comparison(op, col, lit)
    [batch] = SeqScan(ctx, "p", "r").batches()
    mask = CompiledPredicate(expr).mask(batch, ctx.eval_ctx)
    expected = [bool(evaluate(expr, batch.row(i), ctx.eval_ctx))
                for i in range(len(batch))]
    assert mask.tolist() == expected
    if op == "<>":
        return  # no index probe answers <>
    heap = _names(FilterOp(ctx, SeqScan(ctx, "p", "r"), expr))
    bounds = match_indexable_data_pred(expr).bounds()
    index = _names(IndexScan(ctx, "p", "r", column, *bounds))
    assert index == heap


def test_precision_boundary_examples(precision_db):
    """The disagreements the numpy fast path used to have."""
    def names(where):
        return sorted(precision_db.sql(
            f"Select name From p r Where {where}"
        ).column("name"))

    precision_db.options.enable_data_indexes = False
    try:
        assert names(f"r.f = {BIG + 1}") == []
        assert "p0" in names(f"r.f < {BIG + 1}")
        assert names(f"r.k = {BIG}.0") == ["p3"]
    finally:
        precision_db.options.enable_data_indexes = True


@pytest.fixture(scope="module")
def join_db():
    database = Database()
    database.create_table("a", [
        Column("i", ValueType.INT), Column("f", ValueType.FLOAT),
        Column("s", ValueType.TEXT), Column("name", ValueType.TEXT),
    ])
    database.create_table("bt", [Column("k", ValueType.INT),
                                 Column("name", ValueType.TEXT)])
    outer = [(1, 1.0, "1"), (2, 2.5, "x"), (None, None, None),
             (3, 3.0, "3"), (4, 4.5, "4.5")]
    for n, (i, f, s) in enumerate(outer):
        database.insert("a", {"i": i, "f": f, "s": s, "name": f"a{n}"})
    for k in (0, 1, 1, 2, 3, 3, 4, None):
        database.insert("bt", {"k": k, "name": f"b{k}"})
    database.create_index("bt", "k")
    database.analyze("a")
    database.analyze("bt")
    return database


@pytest.mark.parametrize("outer_column", ["i", "f", "s"])
def test_index_join_matches_nested_loop(join_db, outer_column):
    sql = (f"Select x.name, y.name From a x, bt y "
           f"Where x.{outer_column} = y.k")
    results = {}
    for join in ("index", "nloop"):
        join_db.options.force_join = join
        try:
            plan = join_db.explain(sql).physical
            assert ("IndexNestedLoopJoin" in plan) == (join == "index"), plan
            results[join] = sorted(
                tuple(t.values) for t in join_db.sql(sql).tuples
            )
        finally:
            join_db.options.force_join = None
    assert results["index"] == results["nloop"]
    if outer_column != "s":
        assert results["nloop"]  # the numeric keys do match


# -- signed zeros --------------------------------------------------------------
#
# -0.0 == 0.0 in Python, but a FLOAT key encodes the sign bit, so the index
# orders -0.0 before 0.0. A zero bound must reach both zeros wherever the
# heap path's comparison puts them.


@pytest.fixture(scope="module")
def zeros_db():
    database = Database()
    database.create_table("z", [Column("g", ValueType.FLOAT),
                                Column("name", ValueType.TEXT)])
    for n, g in enumerate([-0.0, 0.0, 0.5, -0.5, -0.0]):
        database.insert("z", {"g": g, "name": f"z{n}"})
    database.create_index("z", "g")
    return database


@pytest.mark.parametrize("key", ["0.0", "-0.0", "0"])
@pytest.mark.parametrize("op", OPS)
def test_a_zero_bound_reaches_both_zeros(zeros_db, op, key):
    sql = f"Select name From z r Where r.g {op} {key}"
    heap_plan, expected = outcome(zeros_db, sql, "heap")
    index_plan, got = outcome(zeros_db, sql, "index")
    assert "IndexScan" in index_plan and "IndexScan" not in heap_plan
    assert got == expected
