"""Abstract syntax tree for the SQL subset.

Expressions cover standard comparisons/boolean logic plus *summary
expressions* — chained calls rooted at an alias's ``$`` variable, e.g.::

    r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5
"""

from __future__ import annotations

from dataclasses import dataclass


def _typed(values: tuple) -> tuple:
    """``values`` with each element's type beside it, so ``1``, ``1.0`` and
    ``True`` (equal and equal-hashing in Python) stay distinct as literals:
    statements are cache keys, and those three do not mean the same."""
    return tuple((type(v), v) for v in values)


class Expr:
    """Base class of all expressions."""

    def walk(self):
        """Yield self and every sub-expression (pre-order)."""
        yield self


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def __eq__(self, other) -> bool:
        return type(other) is Literal \
            and _typed((self.value,)) == _typed((other.value,))

    def __hash__(self) -> int:
        return hash(_typed((self.value,)))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """``alias.column`` or bare ``column``."""

    alias: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}" if self.alias else self.column


@dataclass(frozen=True)
class FuncCall:
    """One link of a summary-expression chain."""

    name: str
    args: tuple[object, ...] = ()

    def __eq__(self, other) -> bool:
        return type(other) is FuncCall and self.name == other.name \
            and _typed(self.args) == _typed(other.args)

    def __hash__(self) -> int:
        return hash((self.name, _typed(self.args)))

    def __str__(self) -> str:
        rendered = ", ".join(
            f"'{a}'" if isinstance(a, str) else str(a) for a in self.args
        )
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class SummaryExpr(Expr):
    """A chain of calls on ``alias.$`` (the tuple's summary set)."""

    alias: str | None
    chain: tuple[FuncCall, ...]

    def __str__(self) -> str:
        root = f"{self.alias}.$" if self.alias else "$"
        return ".".join([root] + [str(c) for c in self.chain])

    @property
    def instance_name(self) -> str | None:
        """The summary instance this chain addresses, when statically known
        (a leading getSummaryObject('name') call)."""
        if self.chain and self.chain[0].name == "getSummaryObject":
            args = self.chain[0].args
            if args and isinstance(args[0], str):
                return args[0]
        return None

    @property
    def label(self) -> str | None:
        """The classifier label addressed, for getLabelValue('L') chains."""
        for call in self.chain:
            if call.name == "getLabelValue" and call.args \
                    and isinstance(call.args[0], str):
                return call.args[0]
        return None


@dataclass(frozen=True)
class Comparison(Expr):
    """``left <op> right`` with op in {=, <>, <, <=, >, >=, LIKE}."""

    op: str
    left: Expr
    right: Expr

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Expr):
    items: tuple[Expr, ...]

    def walk(self):
        yield self
        for item in self.items:
            yield from item.walk()

    def __str__(self) -> str:
        return " AND ".join(f"({i})" for i in self.items)


@dataclass(frozen=True)
class Or(Expr):
    items: tuple[Expr, ...]

    def walk(self):
        yield self
        for item in self.items:
            yield from item.walk()

    def __str__(self) -> str:
        return " OR ".join(f"({i})" for i in self.items)


@dataclass(frozen=True)
class Not(Expr):
    item: Expr

    def walk(self):
        yield self
        yield from self.item.walk()

    def __str__(self) -> str:
        return f"NOT ({self.item})"


@dataclass(frozen=True)
class UdfCall(Expr):
    """A registered user-defined function over summary sets (§3.2):
    ``diseaseHeavy(r.$)``.  Arguments are expressions; a bare ``alias.$``
    parses as a :class:`SummaryExpr` with an empty chain and evaluates to
    the tuple's :class:`SummarySet` itself."""

    name: str
    args: tuple[Expr, ...] = ()

    def walk(self):
        yield self
        for arg in self.args:
            yield from arg.walk()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class ObjectFunc(Expr):
    """A bare summary-object function call, e.g. ``getSummaryType()``.

    Only valid inside a ``FILTER SUMMARIES`` predicate, where it is
    evaluated once per summary object of each tuple (the F operator's
    per-object semantics, §3.2).
    """

    name: str
    args: tuple[object, ...] = ()

    def __eq__(self, other) -> bool:
        return type(other) is ObjectFunc and self.name == other.name \
            and _typed(self.args) == _typed(other.args)

    def __hash__(self) -> int:
        return hash((self.name, _typed(self.args)))

    def __str__(self) -> str:
        rendered = ", ".join(
            f"'{a}'" if isinstance(a, str) else str(a) for a in self.args
        )
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class AggCall(Expr):
    """Aggregate in a SELECT list: COUNT/SUM/AVG/MIN/MAX."""

    func: str
    arg: Expr | None  # None for COUNT(*)

    def walk(self):
        yield self
        if self.arg is not None:
            yield from self.arg.walk()

    def __str__(self) -> str:
        return f"{self.func}({self.arg if self.arg is not None else '*'})"


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a projection list."""

    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str


@dataclass(frozen=True)
class SelectStmt:
    """A SELECT.  Frozen, with tuples for every sequence: a parsed
    statement is shared by every run of its text (the parse memo) and is
    the plan cache's key, so it must neither change nor stop hashing."""

    items: tuple  # SelectItem | Star
    tables: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    #: HAVING predicate over the group output (aggregates allowed).
    having: Expr | None = None
    order_by: tuple[tuple[Expr, str], ...] = ()  # (expr, ASC|DESC)
    limit: int | None = None
    #: FILTER SUMMARIES predicate (per summary object) — the F operator.
    summary_filter: Expr | None = None
    distinct: bool = False


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN [ANALYZE] <select>``.

    Plain EXPLAIN plans without executing; ANALYZE additionally runs the
    query under a :class:`~repro.obs.profile.PlanProfiler` and reports the
    per-operator counters (rows, next() calls, wall time, page accesses,
    disk I/O) alongside the estimated plan.
    """

    query: SelectStmt
    analyze: bool = False


@dataclass(frozen=True)
class AlterTableSummary:
    """``ALTER TABLE t ADD [INDEXABLE] inst`` / ``ALTER TABLE t DROP inst``
    — the extended DDL of §4."""

    table: str
    action: str  # "add" | "drop"
    instance: str
    indexable: bool = False


@dataclass(frozen=True)
class ZoomIn:
    """``ZOOM IN <table> <oid> <instance> [<label> | <position>]`` (§2)."""

    table: str
    oid: int
    instance: str
    selector: str | int | None = None


@dataclass(frozen=True)
class CreateTableStmt:
    name: str
    columns: tuple[tuple[str, str], ...]  # (name, type keyword)


@dataclass(frozen=True)
class DeleteStmt:
    """``DELETE FROM t [alias] [WHERE pred]`` — predicates may be data- or
    summary-based (first-class summaries extend to DML)."""

    table: str
    alias: str | None = None
    where: object | None = None


@dataclass(frozen=True)
class UpdateStmt:
    """``UPDATE t [alias] SET col = expr, ... [WHERE pred]``."""

    table: str
    assignments: tuple[tuple[str, object], ...] = ()
    alias: str | None = None
    where: object | None = None


@dataclass(frozen=True)
class InsertStmt:
    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[object, ...], ...]


@dataclass(frozen=True)
class AnnotateStmt:
    """``ANNOTATE <table> <oid> [(col, ...)] '<text>'`` — attach a raw
    annotation through SQL, so server clients (and transactions) can
    annotate without the programmatic :meth:`Database.add_annotation`."""

    table: str
    oid: int
    text: str
    columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class BeginStmt:
    """``BEGIN [TRANSACTION]`` — open an explicit transaction on the
    session (see ``repro.txn``)."""


@dataclass(frozen=True)
class CommitStmt:
    """``COMMIT`` — apply + durably log the session's open transaction."""


@dataclass(frozen=True)
class AbortStmt:
    """``ABORT`` / ``ROLLBACK`` — discard the open transaction."""
