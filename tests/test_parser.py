"""Parser unit tests for the SQL subset."""

import pytest

from repro.errors import ParseError
from repro.query.ast import (
    AggCall,
    AlterTableSummary,
    And,
    ColumnRef,
    Comparison,
    CreateTableStmt,
    InsertStmt,
    Literal,
    Not,
    ObjectFunc,
    Or,
    SelectItem,
    Star,
    SummaryExpr,
    ZoomIn,
)
from repro.query.parser import parse_sql


class TestSelect:
    def test_star(self):
        stmt = parse_sql("Select * From birds")
        assert isinstance(stmt.items[0], Star)
        assert stmt.tables[0].name == "birds"
        assert stmt.tables[0].alias == "birds"

    def test_alias_star(self):
        stmt = parse_sql("Select r.* From birds r")
        assert stmt.items[0] == Star("r")

    def test_columns_and_aliases(self):
        stmt = parse_sql("Select r.a, r.b As x, c From birds r")
        assert stmt.items[0].expr == ColumnRef("r", "a")
        assert stmt.items[1].alias == "x"
        assert stmt.items[2].expr == ColumnRef(None, "c")

    def test_where_conjunction(self):
        stmt = parse_sql(
            "Select r.a, r.b, s.z From R r, S s Where r.a = s.x And r.b = 2"
        )
        assert isinstance(stmt.where, And)
        assert stmt.where.items[0] == Comparison(
            "=", ColumnRef("r", "a"), ColumnRef("s", "x")
        )
        assert stmt.where.items[1] == Comparison(
            "=", ColumnRef("r", "b"), Literal(2)
        )

    def test_join_on_syntax(self):
        stmt = parse_sql("Select * From R r Join S s On r.a = s.x Where r.b = 1")
        assert len(stmt.tables) == 2
        assert isinstance(stmt.where, And)

    def test_or_not_precedence(self):
        stmt = parse_sql("Select * From t Where a = 1 Or Not b = 2 And c = 3")
        assert isinstance(stmt.where, Or)
        right = stmt.where.items[1]
        assert isinstance(right, And)
        assert isinstance(right.items[0], Not)

    def test_like(self):
        stmt = parse_sql("Select * From birds Where name Like 'Swan%'")
        assert stmt.where.op == "LIKE"

    def test_in_range_sugar(self):
        # Figure 11: getLabelValue('Anatomy') in [x, y]
        stmt = parse_sql("Select * From t Where a in [2, 7]")
        assert isinstance(stmt.where, And)
        assert stmt.where.items[0].op == ">="
        assert stmt.where.items[1].op == "<="

    def test_order_and_limit(self):
        stmt = parse_sql("Select * From t Order By a Desc, b Limit 10")
        assert stmt.order_by[0][1] == "DESC"
        assert stmt.order_by[1][1] == "ASC"
        assert stmt.limit == 10

    def test_group_by_with_aggregates(self):
        stmt = parse_sql(
            "Select family, count(*) c, sum(weight) From birds Group By family"
        )
        assert stmt.group_by == (ColumnRef(None, "family"),)
        assert stmt.items[1].expr == AggCall("COUNT", None)
        assert stmt.items[2].expr == AggCall("SUM", ColumnRef(None, "weight"))

    def test_distinct(self):
        assert parse_sql("Select Distinct a From t").distinct

    def test_string_escaping(self):
        stmt = parse_sql("Select * From t Where a = 'it''s'")
        assert stmt.where.right == Literal("it's")


class TestSummaryExpressions:
    def test_paper_selection_predicate(self):
        stmt = parse_sql(
            "Select * From R r Where r.$.getSummaryObject('ClassBird2')."
            "getLabelValue('Question') > 5"
        )
        expr = stmt.where.left
        assert isinstance(expr, SummaryExpr)
        assert expr.alias == "r"
        assert expr.instance_name == "ClassBird2"
        assert expr.label == "Question"

    def test_contains_predicate(self):
        stmt = parse_sql(
            "Select * From R r Where r.$.getSummaryObject('TextSummary1')."
            "containsSingle('Wikipedia', 'hormone')"
        )
        expr = stmt.where
        assert expr.chain[1].name == "containsSingle"
        assert expr.chain[1].args == ("Wikipedia", "hormone")

    def test_unqualified_dollar(self):
        stmt = parse_sql("Select * From R Where $.getSize() > 2")
        assert stmt.where.left.alias is None

    def test_revision_join_expression(self):
        stmt = parse_sql(
            "Select * From birds v1, birds v2 Where v1.id = v2.id And "
            "v1.$.getSummaryObject('ClassBird1').getLabelValue('Provenance') <> "
            "v2.$.getSummaryObject('ClassBird1').getLabelValue('Provenance')"
        )
        data_pred, summary_pred = stmt.where.items
        assert isinstance(summary_pred.left, SummaryExpr)
        assert isinstance(summary_pred.right, SummaryExpr)
        assert summary_pred.op == "<>"

    def test_bare_dollar_parses_as_empty_chain(self):
        # A bare ``r.$`` is syntactically valid (it is a UDF argument);
        # misuse outside a UDF call is a bind-time error, tested in
        # test_udfs.py.
        stmt = parse_sql("Select * From t Where r.$ = 2")
        assert stmt.where is not None

    def test_non_literal_args_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("Select * From t r Where r.$.getSummaryObject(a) = 1")


class TestFilterSummaries:
    def test_structural_filter(self):
        stmt = parse_sql(
            "Select * From R FILTER SUMMARIES getSummaryType() = 'Classifier'"
        )
        assert isinstance(stmt.summary_filter.left, ObjectFunc)
        assert stmt.summary_filter.left.name == "getSummaryType"

    def test_filter_with_where(self):
        stmt = parse_sql(
            "Select * From R Where a = 1 "
            "FILTER SUMMARIES getSummaryName() = 'SimCluster'"
        )
        assert stmt.where is not None
        assert stmt.summary_filter is not None


class TestCommands:
    def test_alter_add_indexable(self):
        assert parse_sql("Alter Table birds Add Indexable ClassBird1") == \
            AlterTableSummary("birds", "add", "ClassBird1", True)

    def test_alter_add_plain(self):
        assert parse_sql("Alter Table birds Add TextSummary1") == \
            AlterTableSummary("birds", "add", "TextSummary1", False)

    def test_alter_drop(self):
        assert parse_sql("Alter Table birds Drop ClassBird1") == \
            AlterTableSummary("birds", "drop", "ClassBird1")

    def test_zoom_in(self):
        assert parse_sql("Zoom In birds 7 ClassBird1 'Disease'") == \
            ZoomIn("birds", 7, "ClassBird1", "Disease")

    def test_zoom_in_positional(self):
        assert parse_sql("Zoom In birds 7 SimCluster 0") == \
            ZoomIn("birds", 7, "SimCluster", 0)

    def test_create_table(self):
        stmt = parse_sql("Create Table t (a int, b text, c float, d bool)")
        assert stmt == CreateTableStmt(
            "t", (("a", "int"), ("b", "text"), ("c", "float"), ("d", "bool"))
        )

    def test_insert(self):
        stmt = parse_sql(
            "Insert Into t (a, b) Values (1, 'x'), (2, null)"
        )
        assert stmt == InsertStmt("t", ("a", "b"), ((1, "x"), (2, None)))

    def test_trailing_semicolon_ok(self):
        parse_sql("Select * From t;")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("Select * From t extra garbage here ,")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_sql("Vacuum t")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_sql("Select # From t")
