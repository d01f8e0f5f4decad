"""Parser/lexer edge cases beyond test_parser.py's happy paths: the new
clauses (HAVING, UDF calls), error positions, string literals, and
statement-level validation."""

import pytest

from repro.errors import ParseError
from repro.query.ast import Comparison, SummaryExpr, UdfCall
from repro.query.lexer import tokenize as tokenize_sql
from repro.query.parser import parse_sql


class TestLexer:
    def test_string_with_spaces(self):
        tokens = tokenize_sql("Select 'hello world'")
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].value == "hello world"

    def test_keywords_case_insensitive(self):
        kinds = {t.value for t in tokenize_sql("SELECT select SeLeCt")
                 if t.kind == "keyword"}
        assert kinds == {"select"}

    def test_numbers_int_and_float(self):
        tokens = [t for t in tokenize_sql("1 2.5 -3 -0.5") if t.kind == "number"]
        assert [t.value for t in tokens] == [1, 2.5, -3, -0.5]

    def test_negative_operands_and_values(self):
        assert parse_sql("Select * From t Where a=-3").where.right.value == -3
        stmt = parse_sql("Select * From t Where b in [-2.5, -1]")
        assert [c.right.value for c in stmt.where.items] == [-2.5, -1]
        insert = parse_sql("Insert Into t Values (-1, 'a', -0.25)")
        assert insert.rows == ((-1, "a", -0.25),)
        with pytest.raises(ParseError):
            parse_sql("Select * From t Limit -1")

    def test_dollar_token(self):
        assert any(t.kind == "dollar" for t in tokenize_sql("r.$"))

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize_sql("Select 'oops")


class TestHavingParse:
    def test_having_after_group_by(self):
        stmt = parse_sql(
            "Select g, count(*) From t Group By g Having count(*) > 1"
        )
        assert stmt.having is not None

    def test_having_without_group_by(self):
        stmt = parse_sql("Select count(*) From t Having count(*) > 1")
        assert stmt.having is not None
        assert stmt.group_by == ()

    def test_having_with_boolean_logic(self):
        stmt = parse_sql(
            "Select g From t Group By g "
            "Having count(*) > 1 And sum(v) < 10"
        )
        from repro.query.ast import And

        assert isinstance(stmt.having, And)

    def test_no_having_is_none(self):
        assert parse_sql("Select g From t Group By g").having is None


class TestUdfParse:
    def test_udf_with_dollar_arg(self):
        stmt = parse_sql("Select a From t r Where heavy(r.$)")
        assert isinstance(stmt.where, UdfCall)
        assert stmt.where.name == "heavy"
        [arg] = stmt.where.args
        assert isinstance(arg, SummaryExpr)
        assert arg.chain == ()

    def test_udf_with_mixed_args(self):
        stmt = parse_sql("Select a From t r Where atLeast(r.$, 3)")
        assert len(stmt.where.args) == 2

    def test_literal_only_call_is_object_func(self):
        from repro.query.ast import ObjectFunc

        stmt = parse_sql(
            "Select a From t FILTER SUMMARIES getSize() = 2"
        )
        assert isinstance(stmt.summary_filter, Comparison)
        assert isinstance(stmt.summary_filter.left, ObjectFunc)


class TestErrorMessages:
    @pytest.mark.parametrize("bad", [
        "Select",                       # missing select list
        "Select * From",                # missing table
        "Select * From t Where",        # missing predicate
        "Select * From t Order",        # missing BY
        "Select * From t Group",        # missing BY
        "Select * From t Limit x",      # non-numeric limit
        "Zoom In",                      # incomplete zoom
        "Alter Table t",                # missing action
        "Insert Into t",                # missing VALUES
        "Select * From t Where a In [1", # unterminated range
    ])
    def test_malformed_statements_raise(self, bad):
        with pytest.raises(ParseError):
            parse_sql(bad)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("Select a From t extra tokens here")

    def test_empty_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("")


class TestMiscShapes:
    def test_join_on_syntax(self):
        stmt = parse_sql(
            "Select * From a x Join b y On x.k = y.k Where x.v > 1"
        )
        assert len(stmt.tables) == 2
        assert stmt.where is not None  # ON merged into WHERE conjuncts

    def test_multi_order_keys(self):
        stmt = parse_sql("Select * From t Order By a Desc, b Asc, c")
        directions = [d for _e, d in stmt.order_by]
        assert directions == ["DESC", "ASC", "ASC"]

    def test_in_range_sugar(self):
        stmt = parse_sql("Select * From t Where v In [2, 7]")
        from repro.query.ast import And

        assert isinstance(stmt.where, And)
        ops = sorted(c.op for c in stmt.where.items)
        assert ops == ["<=", ">="]

    def test_zoom_with_label_selector(self):
        stmt = parse_sql("Zoom In birds 4 ClassBird1 'Disease'")
        assert stmt.selector == "Disease"

    def test_zoom_with_position_selector(self):
        stmt = parse_sql("Zoom In birds 4 SimCluster 1")
        assert stmt.selector == 1

    def test_alter_indexable_flag(self):
        stmt = parse_sql("Alter Table t Add Indexable X")
        assert stmt.indexable is True
        stmt2 = parse_sql("Alter Table t Add X")
        assert stmt2.indexable is False
