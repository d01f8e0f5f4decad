"""The index-based implementation of the summary join J (§5.2).

The paper names exactly two implementation choices for J — block
nested-loop and index-based.  These tests pin the index-based variant:
plan selection, result equivalence with the nested-loop J across all
comparison operators, residual predicate handling, and the elimination
side condition.
"""

import pytest

from repro import Column, Database, ValueType
from repro.errors import QueryError

EXPR = "$.getSummaryObject('C').getLabelValue('X')"


def make_db(rows: int = 5, cell_annotations: bool = False) -> Database:
    db = Database()
    for t in ("a", "b"):
        db.create_table(t, [Column("name", ValueType.TEXT),
                            Column("k", ValueType.INT)])
    db.create_classifier_instance(
        "C", ["X", "Y"],
        [("xray xenon xylophone", "X"), ("yellow yak yarn", "Y")],
    )
    db.manager.link("a", "C")
    db.manager.link("b", "C")
    for i in range(rows):
        oa = db.insert("a", {"name": f"a{i}", "k": i})
        ob = db.insert("b", {"name": f"b{i}", "k": i})
        columns = ("k",) if cell_annotations else ()
        for _ in range(i):
            db.add_annotation("xray xenon xylophone note", table="a",
                              oid=oa, columns=columns)
            db.add_annotation("xray xenon xylophone note", table="b",
                              oid=ob, columns=columns)
    db.create_summary_index("b", "C")
    db.analyze("a")
    db.analyze("b")
    return db


def pairs(result):
    return sorted((t.get("r.name"), t.get("s.name")) for t in result.tuples)


def run_both(db, query):
    db.options.force_join = "index"
    via_index = pairs(db.sql(query))
    db.options.force_join = "nloop"
    via_nloop = pairs(db.sql(query))
    db.options.force_join = None
    return via_index, via_nloop


class TestPlanSelection:
    def test_index_variant_available(self):
        db = make_db()
        db.options.force_join = "index"
        report = db.explain(
            f"Select r.name, s.name From a r, b s Where r.{EXPR} = s.{EXPR}"
        )
        db.options.force_join = None
        assert "SummaryIndexNLJoin" in report.physical

    def test_requires_inner_summary_index(self):
        db = make_db()
        # the index is on b; making b the OUTER side leaves no usable index
        db.options.force_join = "index"
        report = db.explain(
            f"Select s.name From b s, a r Where s.{EXPR} = r.{EXPR}"
        )
        db.options.force_join = None
        assert "SummaryIndexNLJoin" not in report.physical

    def test_elimination_side_condition_blocks_index_j(self):
        db = make_db(cell_annotations=True)
        report_star = None
        db.options.force_join = "index"
        # Projecting a column subset with cell-level annotations on the
        # inner table disables the index variant (DESIGN.md §6)...
        narrow = db.explain(
            f"Select r.name From a r, b s Where r.{EXPR} = s.{EXPR}"
        )
        # ...while SELECT * keeps it legal.
        star = db.explain(
            f"Select * From a r, b s Where r.{EXPR} = s.{EXPR}"
        )
        db.options.force_join = None
        assert "SummaryIndexNLJoin" not in narrow.physical
        assert "SummaryIndexNLJoin" in star.physical

    def test_disabled_with_summary_indexes_off(self):
        db = make_db()
        db.options.index_scheme = "none"
        db.options.force_join = "index"
        report = db.explain(
            f"Select r.name, s.name From a r, b s Where r.{EXPR} = s.{EXPR}"
        )
        db.options.index_scheme = "summary_btree"
        db.options.force_join = None
        assert "SummaryIndexNLJoin" not in report.physical


class TestEquivalenceAcrossOperators:
    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">="])
    def test_same_pairs_as_nested_loop(self, op):
        db = make_db()
        query = (
            f"Select r.name, s.name From a r, b s "
            f"Where r.{EXPR} {op} s.{EXPR}"
        )
        via_index, via_nloop = run_both(db, query)
        assert via_index == via_nloop
        assert via_index  # non-empty for every operator at this data shape

    @pytest.mark.parametrize("outer", ["float", "text"])
    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">="])
    def test_non_integer_outer_keys(self, op, outer):
        """An outer key the label counts are compared with in Python: a
        FLOAT probes the integer counts it orders against, a TEXT key
        equals none and cannot be ordered against one."""
        db = make_db()
        vtype, values = {
            "float": (ValueType.FLOAT, [2.0, 2.5, 0.5, float("nan")]),
            "text": (ValueType.TEXT, ["abc", "2"]),
        }[outer]
        db.create_table("f", [Column("name", ValueType.TEXT),
                              Column("x", vtype)])
        for i, value in enumerate(values):
            db.insert("f", {"name": f"f{i}", "x": value})
        db.analyze("f")
        query = (
            f"Select r.name, s.name From f r, b s Where r.x {op} s.{EXPR}"
        )
        outcomes = []
        for force in ("index", "nloop"):
            db.options.force_join = force
            try:
                outcomes.append(pairs(db.sql(query)))
            except QueryError:
                outcomes.append(QueryError)
            finally:
                db.options.force_join = None
        assert outcomes[0] == outcomes[1]
        if outer == "float":
            assert outcomes[0]  # non-empty for every operator
        else:
            assert outcomes[0] == ([] if op == "=" else QueryError)

    def test_with_residual_data_condition(self):
        db = make_db()
        query = (
            f"Select r.name, s.name From a r, b s "
            f"Where r.{EXPR} = s.{EXPR} And r.k = s.k"
        )
        via_index, via_nloop = run_both(db, query)
        assert via_index == via_nloop

    def test_with_residual_summary_conjunct(self):
        db = make_db()
        y = "$.getSummaryObject('C').getLabelValue('Y')"
        query = (
            f"Select r.name, s.name From a r, b s "
            f"Where r.{EXPR} = s.{EXPR} And r.{y} = s.{y}"
        )
        via_index, via_nloop = run_both(db, query)
        assert via_index == via_nloop

    def test_merged_summaries_identical(self):
        db = make_db()
        query = (
            f"Select r.name, s.name From a r, b s Where r.{EXPR} = s.{EXPR}"
        )
        db.options.force_join = "index"
        a = db.sql(query)
        db.options.force_join = "nloop"
        b = db.sql(query)
        db.options.force_join = None
        by_key_a = {
            (t.get("r.name"), t.get("s.name")): a.summaries(i)
            for i, t in enumerate(a.tuples)
        }
        by_key_b = {
            (t.get("r.name"), t.get("s.name")): b.summaries(i)
            for i, t in enumerate(b.tuples)
        }
        assert by_key_a == by_key_b


class TestMaintenanceInteraction:
    def test_join_sees_incremental_updates(self):
        db = make_db(rows=3)
        query = (
            f"Select r.name, s.name From a r, b s Where r.{EXPR} = s.{EXPR}"
        )
        db.options.force_join = "index"
        before = pairs(db.sql(query))
        # bump b2's X count from 2 to 3 -> now matches a3 wait... a? rows=3
        ob = 3  # b2's oid (OIDs start at 1)
        db.add_annotation("xray xenon xylophone extra", table="b", oid=ob)
        after = pairs(db.sql(query))
        db.options.force_join = None
        assert before != after
        assert ("a2", "b2") in before and ("a2", "b2") not in after
