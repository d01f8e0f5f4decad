"""Recursive-descent parser for the SQL subset.

Grammar sketch::

    statement   := select | explain | alter | zoom | create | insert
    explain     := EXPLAIN [ANALYZE] select
    select      := SELECT [DISTINCT] items FROM tables [WHERE expr]
                   [GROUP BY exprs] [ORDER BY expr [ASC|DESC], ...]
                   [LIMIT n]
    items       := item (',' item)*          item := '*' | expr [AS ident]
    tables      := tableref (',' tableref)* | tableref (JOIN tableref ON expr)*
    expr        := or_expr
    primary     := literal | columnref | summary_expr | agg | '(' expr ')'
    summary_expr:= [alias '.'] '$' ('.' ident '(' args ')')+

    alter       := ALTER TABLE ident (ADD [INDEXABLE] | DROP) ident
    zoom        := ZOOM IN ident number ident [string | number]
    annotate    := ANNOTATE ident number ['(' ident (',' ident)* ')'] string
    txn         := BEGIN [TRANSACTION] | COMMIT | ABORT | ROLLBACK
"""

from __future__ import annotations

import functools

from repro.errors import ParseError
from repro.query.ast import (
    AbortStmt,
    AnnotateStmt,
    BeginStmt,
    CommitStmt,
    DeleteStmt,
    UpdateStmt,
    UdfCall,
    AggCall,
    ObjectFunc,
    AlterTableSummary,
    And,
    ColumnRef,
    Comparison,
    CreateTableStmt,
    ExplainStmt,
    Expr,
    FuncCall,
    InsertStmt,
    Literal,
    Not,
    Or,
    SelectItem,
    SelectStmt,
    Star,
    SummaryExpr,
    TableRef,
    ZoomIn,
)
from repro.query.lexer import Token, tokenize

_AGG_FUNCS = {"count", "sum", "avg", "min", "max"}


class Parser:
    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers -----------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.peek()
        self.pos += 1
        return token

    def accept(self, kind: str, value: object = None) -> Token | None:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            got = self.peek()
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, got {got.value!r} at {got.pos}")
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in words

    # -- entry point ----------------------------------------------------------------

    def parse(self):
        token = self.peek()
        if token.kind != "keyword":
            raise ParseError(f"unexpected {token.value!r} at {token.pos}")
        stmt = {
            "select": self.parse_select,
            "alter": self.parse_alter,
            "zoom": self.parse_zoom,
            "create": self.parse_create,
            "insert": self.parse_insert,
            "delete": self.parse_delete,
            "update": self.parse_update,
            "explain": self.parse_explain,
            "annotate": self.parse_annotate,
            "begin": self.parse_begin,
            "commit": self.parse_commit,
            "abort": self.parse_abort,
            "rollback": self.parse_abort,
        }.get(token.value)
        if stmt is None:
            raise ParseError(f"unsupported statement {token.value!r}")
        result = stmt()
        self.accept("punct", ";")
        self.expect("eof")
        return result

    # -- EXPLAIN [ANALYZE] -------------------------------------------------------------

    def parse_explain(self) -> ExplainStmt:
        self.expect("keyword", "explain")
        analyze = self.accept("keyword", "analyze") is not None
        if not self.at_keyword("select"):
            got = self.peek()
            raise ParseError(
                f"EXPLAIN supports SELECT statements only, got {got.value!r}"
            )
        return ExplainStmt(self.parse_select(), analyze=analyze)

    # -- SELECT -----------------------------------------------------------------------

    def parse_select(self) -> SelectStmt:
        self.expect("keyword", "select")
        distinct = self.accept("keyword", "distinct") is not None
        items = self.parse_select_items()
        self.expect("keyword", "from")
        tables = [self.parse_table_ref()]
        where_parts: list[Expr] = []
        while True:
            if self.accept("punct", ","):
                tables.append(self.parse_table_ref())
            elif self.at_keyword("join"):
                self.next()
                tables.append(self.parse_table_ref())
                self.expect("keyword", "on")
                where_parts.append(self.parse_expr())
            else:
                break
        if self.accept("keyword", "where"):
            where_parts.append(self.parse_expr())
        where: Expr | None = None
        if len(where_parts) == 1:
            where = where_parts[0]
        elif where_parts:
            where = And(tuple(where_parts))
        summary_filter = None
        if self.at_keyword("filter"):
            self.next()
            self.expect("keyword", "summaries")
            summary_filter = self.parse_expr()
        group_by: list[Expr] = []
        if self.at_keyword("group"):
            self.next()
            self.expect("keyword", "by")
            group_by.append(self.parse_expr())
            while self.accept("punct", ","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept("keyword", "having"):
            having = self.parse_expr()
        order_by: list[tuple[Expr, str]] = []
        if self.at_keyword("order"):
            self.next()
            self.expect("keyword", "by")
            order_by.append(self.parse_order_item())
            while self.accept("punct", ","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept("keyword", "limit"):
            limit = int(self.expect("number").value)
            if limit < 0:
                raise ParseError(f"LIMIT takes a count, got {limit}")
        return SelectStmt(
            items, tuple(tables), where, tuple(group_by), having=having,
            order_by=tuple(order_by), limit=limit,
            summary_filter=summary_filter, distinct=distinct,
        )

    def parse_select_items(self) -> tuple:
        items: list = [self.parse_select_item()]
        while self.accept("punct", ","):
            items.append(self.parse_select_item())
        return tuple(items)

    def parse_select_item(self):
        if self.accept("punct", "*"):
            return Star(None)
        # alias.* form
        if (
            self.peek().kind == "ident"
            and self.peek(1).kind == "punct" and self.peek(1).value == "."
            and self.peek(2).kind == "punct" and self.peek(2).value == "*"
        ):
            alias = self.next().value
            self.next()
            self.next()
            return Star(str(alias))
        expr = self.parse_expr()
        alias = None
        if self.accept("keyword", "as"):
            alias = str(self.expect("ident").value)
        elif self.peek().kind == "ident":
            alias = str(self.next().value)
        return SelectItem(expr, alias)

    def parse_delete(self) -> DeleteStmt:
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        ref = self.parse_table_ref()
        where = None
        if self.accept("keyword", "where"):
            where = self.parse_expr()
        alias = ref.alias if ref.alias != ref.name else None
        return DeleteStmt(ref.name, alias=alias, where=where)

    def parse_update(self) -> UpdateStmt:
        self.expect("keyword", "update")
        ref = self.parse_table_ref()
        self.expect("keyword", "set")
        assignments = [self.parse_assignment()]
        while self.accept("punct", ","):
            assignments.append(self.parse_assignment())
        where = None
        if self.accept("keyword", "where"):
            where = self.parse_expr()
        alias = ref.alias if ref.alias != ref.name else None
        return UpdateStmt(ref.name, tuple(assignments), alias=alias,
                          where=where)

    def parse_assignment(self) -> tuple[str, Expr]:
        column = str(self.expect("ident").value)
        token = self.next()
        if not (token.kind == "op" and token.value == "="):
            raise ParseError(f"expected '=' in SET, got {token.value!r}")
        return column, self.parse_expr()

    def parse_table_ref(self) -> TableRef:
        name = str(self.expect("ident").value)
        alias = name
        if self.accept("keyword", "as"):
            alias = str(self.expect("ident").value)
        elif self.peek().kind == "ident":
            alias = str(self.next().value)
        return TableRef(name, alias)

    def parse_order_item(self) -> tuple[Expr, str]:
        expr = self.parse_expr()
        direction = "ASC"
        if self.accept("keyword", "desc"):
            direction = "DESC"
        elif self.accept("keyword", "asc"):
            direction = "ASC"
        return expr, direction

    # -- expressions ---------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        items = [self.parse_and()]
        while self.accept("keyword", "or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> Expr:
        items = [self.parse_not()]
        while self.accept("keyword", "and"):
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_not(self) -> Expr:
        if self.accept("keyword", "not"):
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_primary()
        token = self.peek()
        if token.kind == "op":
            op = str(self.next().value)
            right = self.parse_primary()
            return Comparison(op, left, right)
        if token.kind == "keyword" and token.value == "like":
            self.next()
            right = self.parse_primary()
            return Comparison("LIKE", left, right)
        if token.kind == "keyword" and token.value == "in":
            self.next()
            self.expect("punct", "[")
            lo = self.parse_primary()
            self.expect("punct", ",")
            hi = self.parse_primary()
            self.expect("punct", "]")
            # "expr IN [x, y]" sugar for a closed range (Figure 11's query).
            return And((Comparison(">=", left, lo), Comparison("<=", left, hi)))
        return left

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            return Literal(self.next().value)
        if token.kind == "string":
            return Literal(self.next().value)
        if token.kind == "keyword" and token.value in ("true", "false"):
            self.next()
            return Literal(token.value == "true")
        if token.kind == "keyword" and token.value == "null":
            self.next()
            return Literal(None)
        if token.kind == "punct" and token.value == "(":
            self.next()
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        if token.kind == "keyword" and token.value in _AGG_FUNCS:
            return self.parse_agg()
        if token.kind == "dollar":
            return self.parse_summary_chain(None)
        if token.kind == "ident":
            name = str(self.next().value)
            if self.peek().kind == "punct" and self.peek().value == "(":
                return self._parse_call(name)
            if self.peek().kind == "punct" and self.peek().value == ".":
                if self.peek(1).kind == "dollar":
                    self.next()  # '.'
                    return self.parse_summary_chain(name)
                self.next()  # '.'
                column = str(self.expect("ident").value)
                return ColumnRef(name, column)
            return ColumnRef(None, name)
        raise ParseError(f"unexpected {token.value!r} at {token.pos}")

    def parse_agg(self) -> AggCall:
        func = str(self.next().value).upper()
        self.expect("punct", "(")
        if self.accept("punct", "*"):
            self.expect("punct", ")")
            return AggCall(func, None)
        arg = self.parse_expr()
        self.expect("punct", ")")
        return AggCall(func, arg)

    def parse_summary_chain(self, alias: str | None) -> SummaryExpr:
        self.expect("dollar")
        chain: list[FuncCall] = []
        while self.peek().kind == "punct" and self.peek().value == ".":
            self.next()
            name_token = self.next()
            if name_token.kind not in ("ident", "keyword"):
                raise ParseError(
                    f"expected function name after '.', got {name_token.value!r}"
                )
            name = str(name_token.value)
            self.expect("punct", "(")
            args: list[object] = []
            if not (self.peek().kind == "punct" and self.peek().value == ")"):
                args.append(self.parse_call_arg())
                while self.accept("punct", ","):
                    args.append(self.parse_call_arg())
            self.expect("punct", ")")
            chain.append(FuncCall(name, tuple(args)))
        # An empty chain is the bare summary-set reference ``alias.$`` —
        # only meaningful as a UDF argument (validated by the binder).
        return SummaryExpr(alias, tuple(chain))

    def _parse_call(self, name: str) -> Expr:
        """``name(...)`` — an ObjectFunc when every argument is a bare
        literal (the FILTER SUMMARIES form), a UdfCall when any argument
        is an expression such as ``r.$`` (§3.2 black-box UDFs)."""
        self.expect("punct", "(")
        exprs: list[Expr] = []
        literal_only = True
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            while True:
                arg = self.parse_expr()
                exprs.append(arg)
                if not isinstance(arg, Literal):
                    literal_only = False
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        if literal_only:
            return ObjectFunc(name, tuple(e.value for e in exprs))
        return UdfCall(name, tuple(exprs))

    def parse_call_arg(self) -> object:
        token = self.next()
        if token.kind in ("number", "string"):
            return token.value
        raise ParseError(
            f"summary-function arguments must be literals, got {token.value!r}"
        )

    # -- DDL / commands --------------------------------------------------------------------

    def parse_alter(self) -> AlterTableSummary:
        self.expect("keyword", "alter")
        self.expect("keyword", "table")
        table = str(self.expect("ident").value)
        if self.accept("keyword", "add"):
            indexable = self.accept("keyword", "indexable") is not None
            instance = str(self.expect("ident").value)
            return AlterTableSummary(table, "add", instance, indexable)
        self.expect("keyword", "drop")
        instance = str(self.expect("ident").value)
        return AlterTableSummary(table, "drop", instance)

    def parse_zoom(self) -> ZoomIn:
        self.expect("keyword", "zoom")
        self.expect("keyword", "in")
        table = str(self.expect("ident").value)
        oid = int(self.expect("number").value)
        instance = str(self.expect("ident").value)
        selector: str | int | None = None
        token = self.peek()
        if token.kind == "string":
            selector = str(self.next().value)
        elif token.kind == "number":
            selector = int(self.next().value)
        elif token.kind == "ident":
            selector = str(self.next().value)
        return ZoomIn(table, oid, instance, selector)

    def parse_create(self) -> CreateTableStmt:
        self.expect("keyword", "create")
        self.expect("keyword", "table")
        name = str(self.expect("ident").value)
        self.expect("punct", "(")
        columns: list[tuple[str, str]] = []
        while True:
            col = str(self.expect("ident").value)
            type_token = self.next()
            if type_token.kind != "keyword" or type_token.value not in (
                "int", "float", "text", "bool",
            ):
                raise ParseError(f"unknown column type {type_token.value!r}")
            columns.append((col, str(type_token.value)))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return CreateTableStmt(name, tuple(columns))

    def parse_insert(self) -> InsertStmt:
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        table = str(self.expect("ident").value)
        columns = None
        if self.accept("punct", "("):
            names = [str(self.expect("ident").value)]
            while self.accept("punct", ","):
                names.append(str(self.expect("ident").value))
            self.expect("punct", ")")
            columns = tuple(names)
        self.expect("keyword", "values")
        rows: list[tuple[object, ...]] = []
        while True:
            self.expect("punct", "(")
            row: list[object] = [self.parse_value()]
            while self.accept("punct", ","):
                row.append(self.parse_value())
            self.expect("punct", ")")
            rows.append(tuple(row))
            if not self.accept("punct", ","):
                break
        return InsertStmt(table, columns, tuple(rows))

    def parse_annotate(self) -> AnnotateStmt:
        self.expect("keyword", "annotate")
        table = str(self.expect("ident").value)
        oid = int(self.expect("number").value)
        columns: list[str] = []
        if self.accept("punct", "("):
            columns.append(str(self.expect("ident").value))
            while self.accept("punct", ","):
                columns.append(str(self.expect("ident").value))
            self.expect("punct", ")")
        text = str(self.expect("string").value)
        return AnnotateStmt(table, oid, text, tuple(columns))

    # -- transactions ----------------------------------------------------------------------

    def parse_begin(self) -> BeginStmt:
        self.expect("keyword", "begin")
        self.accept("keyword", "transaction")
        return BeginStmt()

    def parse_commit(self) -> CommitStmt:
        self.expect("keyword", "commit")
        self.accept("keyword", "transaction")
        return CommitStmt()

    def parse_abort(self) -> AbortStmt:
        self.next()  # ABORT or ROLLBACK
        self.accept("keyword", "transaction")
        return AbortStmt()

    def parse_value(self) -> object:
        token = self.next()
        if token.kind in ("number", "string"):
            return token.value
        if token.kind == "keyword" and token.value in ("true", "false"):
            return token.value == "true"
        if token.kind == "keyword" and token.value == "null":
            return None
        raise ParseError(f"expected a literal, got {token.value!r}")


#: Distinct statement texts whose ASTs the parse memo keeps.
PARSE_MEMO_ENTRIES = 256


@functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def _parse_memo(sql: str):
    return Parser(sql).parse()


def parse_sql(sql: str):
    """Parse one SQL statement into its AST.

    Memoized per exact text (errors are not): every run of a text shares
    one AST, which is safe because statement nodes are frozen."""
    return _parse_memo(sql)


def parse_memo_counts() -> tuple[int, int]:
    """``(hits, misses)`` of the parse memo since the process started; it
    is shared by every database in the process."""
    info = _parse_memo.cache_info()
    return info.hits, info.misses
