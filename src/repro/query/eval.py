"""Expression evaluation over runtime tuples.

Summary expressions are evaluated by walking their call chain starting at
the tuple's ``$`` summary set; each link dispatches on the receiver type
(SummarySet / Classifier / Snippet / Cluster object) to the §3.1
manipulation functions. Keyword-search functions search the snippets and,
unless ``search_raw`` is off, the raw annotations the :class:`EvalContext`
resolves when the snippets miss — the accuracy/performance tradeoff
studied in [16].  An object decoded from storage builds its lowered
search texts once (:meth:`SnippetObject.search_texts`), and a batch reads
the raw texts its objects still lack with one call
(:func:`evaluate_summary_exprs`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.errors import QueryError, SummaryError
from repro.query.ast import (
    UdfCall,
    AggCall,
    And,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Not,
    ObjectFunc,
    Or,
    SummaryExpr,
)
from repro.query.tuples import QTuple, resolve_summary_set
from repro.summaries.functions import SummarySet
from repro.summaries.objects import (
    ClassifierObject,
    ClusterObject,
    SearchTexts,
    SnippetObject,
    SummaryObject,
)


@dataclass
class EvalContext:
    """Execution-wide services the evaluator may need.

    ``manager`` resolves raw annotation texts for keyword-search fallback;
    ``search_raw`` can be disabled to search snippets only (faster, possibly
    less complete — the [16] tradeoff).
    """

    manager: object | None = None  # SummaryManager, typed loosely to avoid cycles
    search_raw: bool = True
    #: registered black-box UDFs over summary sets (§3.2): name -> callable
    udfs: dict = field(default_factory=dict)
    #: memoized raw annotation texts, FIFO-bounded so keyword-fallback-heavy
    #: workloads can't grow the context without limit.
    raw_cache_max: int = 4096
    _raw_cache: dict[int, str] = field(default_factory=dict)

    def raw_texts(self, ann_ids: list[int]) -> list[str]:
        if self.manager is None:
            return []
        missing = [a for a in ann_ids if a not in self._raw_cache]
        if missing:
            for ann_id, text in zip(
                missing, self.manager.annotations.texts(missing)
            ):
                self._raw_cache[ann_id] = text
        out = [self._raw_cache[a] for a in ann_ids]
        while len(self._raw_cache) > self.raw_cache_max:
            del self._raw_cache[next(iter(self._raw_cache))]
        return out


@lru_cache(maxsize=256)
def compile_like(pattern: str) -> "re.Pattern":
    """Compiled SQL LIKE matcher with ``%`` and ``_`` wildcards (also
    accepts ``*`` as a convenience alias for ``%``, matching the paper's
    "Swan*" example).

    DOTALL because SQL's % and _ match any character, including newlines —
    annotations are multi-line text.  Memoized: a row-wise LIKE asks for
    the same pattern on every row.
    """
    regex = "".join(
        ".*" if ch in "%*" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.compile(regex, re.IGNORECASE | re.DOTALL)


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE; see :func:`compile_like` for the wildcard rules."""
    return compile_like(pattern).fullmatch(value) is not None


def evaluate(expr: Expr, row: QTuple, ctx: EvalContext | None = None) -> object:
    """Evaluate ``expr`` against one tuple. Comparison with NULL is False."""
    ctx = ctx or EvalContext()
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        name = f"{expr.alias}.{expr.column}" if expr.alias else expr.column
        return row.get(name)
    if isinstance(expr, SummaryExpr):
        return evaluate_summary_expr(expr, row.summary_sets, ctx)
    if isinstance(expr, Comparison):
        return _compare(expr.op, evaluate(expr.left, row, ctx),
                        evaluate(expr.right, row, ctx))
    if isinstance(expr, And):
        return all(bool(evaluate(i, row, ctx)) for i in expr.items)
    if isinstance(expr, Or):
        return any(bool(evaluate(i, row, ctx)) for i in expr.items)
    if isinstance(expr, Not):
        return not bool(evaluate(expr.item, row, ctx))
    if isinstance(expr, UdfCall):
        fn = ctx.udfs.get(expr.name)
        if fn is None:
            raise QueryError(f"unknown UDF {expr.name!r}")
        return fn(*[evaluate(a, row, ctx) for a in expr.args])
    if isinstance(expr, AggCall):
        raise QueryError(
            f"aggregate {expr.func} outside GROUP BY evaluation"
        )
    raise QueryError(f"cannot evaluate expression {expr!r}")


def _compare(op: str, left: object, right: object) -> bool:
    """``left op right`` under SQL's rules here: NULL on either side is
    False, and an unorderable pair is a QueryError."""
    if left is None or right is None:
        return False
    if op == "LIKE":
        return like_match(str(left), str(right))
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise QueryError(f"cannot compare {left!r} {op} {right!r}") from exc
    raise QueryError(f"unknown operator {op!r}")


def evaluate_object_predicate(
    expr: Expr, obj: SummaryObject, ctx: EvalContext | None = None
) -> bool:
    """Evaluate a FILTER SUMMARIES predicate against one summary object.

    :class:`~repro.query.ast.ObjectFunc` leaves dispatch on ``obj``; the
    boolean structure and the comparison rule (:func:`_compare`)
    are row evaluation's.
    """
    ctx = ctx or EvalContext()

    def ev(e: Expr) -> object:
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, ObjectFunc):
            return _dispatch_object(obj, e.name, e.args, ctx)
        if isinstance(e, Comparison):
            return _compare(e.op, ev(e.left), ev(e.right))
        if isinstance(e, And):
            return all(bool(ev(i)) for i in e.items)
        if isinstance(e, Or):
            return any(bool(ev(i)) for i in e.items)
        if isinstance(e, Not):
            return not bool(ev(e.item))
        raise QueryError(f"invalid FILTER SUMMARIES expression {e!r}")

    return bool(ev(expr))


def is_structural_predicate(expr: Expr) -> bool:
    """True when a FILTER SUMMARIES predicate touches only the InstanceID /
    SummaryType of the objects — the paper's *structural* predicates, which
    Rule 8 may push to both join sides."""
    structural_funcs = {"getSummaryType", "getSummaryName"}
    for node in expr.walk():
        if isinstance(node, ObjectFunc) and node.name not in structural_funcs:
            return False
    return True


def _rollup_value(
    obj: ClassifierObject, node: str, ctx: EvalContext
) -> int | None:
    """Resolve an inner hierarchy node by summing its subtree's leaves
    (multi-level summarization); None when the instance is flat or the
    node is unknown — the caller then raises the flat-label error."""
    if ctx.manager is None:
        return None
    from repro.summaries.hierarchy import HierarchicalClassifierInstance

    try:
        instance = ctx.manager.instance(obj.instance_name)
    except Exception:
        return None
    if isinstance(instance, HierarchicalClassifierInstance) \
            and node in instance.tree:
        return instance.resolve_value(obj, node)
    return None


# -- summary-expression dispatch ----------------------------------------------------


def evaluate_summary_expr(
    expr: SummaryExpr, summary_sets: dict, ctx: EvalContext
) -> object:
    """Walk ``expr``'s chain from the ``$`` it names in a per-alias
    summary-set dict — a tuple's ``summary_sets`` or a batch's summary
    slot; no data value is read."""
    return _walk(resolve_summary_set(summary_sets, expr.alias), expr.chain,
                 ctx)


def evaluate_summary_exprs(
    expr: SummaryExpr, summary_sets: list[dict], ctx: EvalContext
) -> list:
    """:func:`evaluate_summary_expr` on each of several rows' summary-set
    dicts.  A chain ending in a raw-text keyword search walks every row to
    its searched object first; the objects whose snippets miss and whose
    full search texts are not built yet then read their raw texts with
    one ``ctx.raw_texts`` call for them all, not one per row."""
    if not (expr.chain and expr.chain[-1].name in _KEYWORD_FUNCS
            and _searches_raw(ctx)):
        return [evaluate_summary_expr(expr, sets, ctx)
                for sets in summary_sets]
    *head, last = expr.chain
    receivers = [
        _walk(resolve_summary_set(sets, expr.alias), head, ctx)
        for sets in summary_sets
    ]
    cold = sorted({
        ann_id for obj in receivers
        if isinstance(obj, SnippetObject) and not obj.has_search_texts()
        and not _keyword_search(obj, last.name, last.args, None)
        for ann_id in obj.ann_targets
    })
    fetched = dict(zip(cold, ctx.raw_texts(cold))) if cold else {}

    def raw_texts(ann_ids: list[int]) -> list[str]:
        return [fetched[a] for a in ann_ids]

    return [
        _keyword_search(obj, last.name, last.args, raw_texts)
        if isinstance(obj, SnippetObject) else _walk(obj, (last,), ctx)
        for obj in receivers
    ]


def _walk(receiver: object, chain, ctx: EvalContext) -> object:
    for call in chain:
        if receiver is None:
            return None  # a missing summary object nullifies the chain
        receiver = _dispatch(receiver, call.name, call.args, ctx)
    return receiver


_KEYWORD_FUNCS = ("containsSingle", "containsUnion")


def _searches_raw(ctx: EvalContext) -> bool:
    """Whether keyword search reaches the raw annotations, not only the
    snippets (the [16] tradeoff)."""
    return ctx.search_raw and ctx.manager is not None


def _keyword_search(
    obj: SnippetObject, name: str, args: tuple, raw_texts
) -> bool:
    """containsSingle/containsUnion: the snippets, then — on a miss, when
    ``raw_texts`` resolves annotation ids — the snippets plus the raw
    texts.  Once the object holds that whole universe, one check over it
    answers the same: a snippet is one of its texts, and the joined
    snippets are a prefix of its join."""
    keywords = [str(a) for a in args]
    check = (SearchTexts.contains_single if name == "containsSingle"
             else SearchTexts.contains_union)
    if raw_texts is None or not obj.has_search_texts():
        if check(obj.search_texts(), keywords):
            return True
        if raw_texts is None:
            return False
    return check(obj.search_texts(raw_texts), keywords)


def _dispatch(receiver: object, name: str, args: tuple, ctx: EvalContext) -> object:
    if isinstance(receiver, SummarySet):
        return _dispatch_set(receiver, name, args)
    if isinstance(receiver, SummaryObject):
        return _dispatch_object(receiver, name, args, ctx)
    raise QueryError(f"cannot call {name}() on {type(receiver).__name__}")


def _dispatch_set(s: SummarySet, name: str, args: tuple) -> object:
    if name == "getSize":
        return s.get_size()
    if name == "getSummaryObject":
        if len(args) != 1:
            raise QueryError("getSummaryObject takes exactly one argument")
        return s.get_summary_object(args[0])
    raise QueryError(f"unknown summary-set function {name!r}")


def _dispatch_object(
    obj: SummaryObject, name: str, args: tuple, ctx: EvalContext
) -> object:
    # Functions common to all summary types (§3.1).
    if name == "getSummaryType":
        return obj.get_summary_type()
    if name == "getSummaryName":
        return obj.get_summary_name()
    if name == "getSize":
        return obj.get_size()

    if isinstance(obj, ClassifierObject):
        if name == "getLabelName":
            return obj.get_label_name(int(args[0]))
        if name == "getLabelValue":
            arg = args[0]
            if isinstance(arg, str) and arg not in obj.label_elements:
                rolled = _rollup_value(obj, arg, ctx)
                if rolled is not None:
                    return rolled
            return obj.get_label_value(arg)
    if isinstance(obj, SnippetObject):
        if name == "getSnippet":
            return obj.get_snippet(int(args[0]))
        if name in _KEYWORD_FUNCS:
            return _keyword_search(
                obj, name, args, ctx.raw_texts if _searches_raw(ctx) else None
            )
    if isinstance(obj, ClusterObject):
        if name == "getGroupSize":
            return obj.get_group_size(int(args[0]))
        if name == "getRepresentative":
            return obj.get_representative(int(args[0]))
    raise QueryError(
        f"unknown function {name!r} for {obj.get_summary_type()} objects"
    )


# -- compiled predicates ------------------------------------------------------------
#
# A predicate mask is built column-at-a-time where the expression shape
# allows it (comparisons between data columns, summary chains and
# constants; a summary chain as a predicate) and row-at-a-time — plain
# :func:`evaluate` on a row view — everywhere else, so a mask can never
# answer differently from per-row evaluation.  :class:`CompiledPredicate`
# settles the shape once per physical plan into kernels that hold no
# per-run state, so the runs of a cached plan share them.  AND evaluates
# its conjuncts left-to-right over the surviving rows, mirroring
# :func:`evaluate`'s short-circuit; OR evaluates later disjuncts only on
# rows still undecided.  Column-at-a-time order can meet a later row's
# error before an earlier row's, so a batch whose compiled evaluation
# fails is replayed row by row: the statement fails with the error
# per-row evaluation meets first.


class CompiledPredicate:
    """``expr`` compiled into a mask kernel, once per physical plan."""

    __slots__ = ("expr", "_kernel")

    def __init__(self, expr: Expr):
        self.expr = expr
        self._kernel = _compile(expr)

    def mask(self, batch, ctx: EvalContext | None = None, active=None):
        """Boolean numpy mask of the rows of ``batch`` satisfying ``expr``.

        ``active`` restricts evaluation to the rows it marks (every row
        when None); the other rows are False and ``expr`` is never
        evaluated on them — a conjunct later in an ``And`` sees only
        earlier survivors.
        """
        ctx = ctx or EvalContext()
        if active is None:
            active = np.ones(len(batch), dtype=bool)
        try:
            return self._kernel(batch, ctx, active)
        except (QueryError, SummaryError):
            return _rowwise_mask(self.expr, batch, ctx, active)


def _compile(expr: Expr):
    """``kernel(batch, ctx, active) -> mask`` for ``expr``."""
    if isinstance(expr, (And, Or)):
        items = [_compile(item) for item in expr.items]
        return partial(_all if isinstance(expr, And) else _any, items)
    if isinstance(expr, Not):
        item = _compile(expr.item)
        return lambda batch, ctx, active: active & ~item(batch, ctx, active)
    if isinstance(expr, Comparison):
        return _compile_comparison(expr)
    if isinstance(expr, SummaryExpr):
        return _kernel(lambda values: [bool(v) for v in values],
                       _operand(expr))
    return partial(_rowwise_mask, expr)


def _all(items, batch, ctx, active):
    for item in items:
        if not active.any():
            break
        active = item(batch, ctx, active)
    return active


def _any(items, batch, ctx, active):
    result = np.zeros(len(active), dtype=bool)
    undecided = active.copy()
    for item in items:
        if not undecided.any():
            break
        hit = item(batch, ctx, undecided)
        result |= hit
        undecided &= ~hit
    return result


def _rowwise_mask(expr, batch, ctx, active):
    """Fallback for the shapes that read a whole row (UDFs, bare column
    truthiness, ...): plain per-row evaluation on the active rows."""
    out = np.zeros(len(active), dtype=bool)
    for i in np.flatnonzero(active).tolist():
        out[i] = bool(evaluate(expr, batch.row(i), ctx))
    return out


def _kernel(test, *operands):
    """The kernel setting the active rows to ``test`` of the operands'
    values on them: one comprehension, no per-row dispatch."""
    def kernel(batch, ctx, active):
        rows = np.flatnonzero(active).tolist()
        values = [operand(batch, ctx, rows) for operand in operands]
        out = np.zeros(len(active), dtype=bool)
        try:
            out[rows] = test(*values)
        except TypeError as exc:
            raise QueryError(f"cannot compare: {exc}") from exc
        return out
    return kernel


def _operand(expr: Expr):
    """``values(batch, ctx, rows) -> list`` for an operand a batch answers
    column-at-a-time, None for one only a whole row can."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch, ctx, rows: [value] * len(rows)
    if isinstance(expr, ColumnRef):
        name = str(expr)

        def column(batch, ctx, rows):
            values = batch.column_values(name)
            return [values[i] for i in rows]
        return column
    if isinstance(expr, SummaryExpr):
        calls = expr.chain
        label = None
        if [c.name for c in calls] == ["getSummaryObject", "getLabelValue"] \
                and all(len(c.args) == 1 and isinstance(c.args[0], str)
                        for c in calls):
            label = (calls[0].args[0], calls[1].args[0])
        walk = partial(_chain_values, expr, label)
        # the memo key: equal chains share it; a tuple hashes in C
        key = (expr.alias, tuple((c.name, tuple((type(a), a) for a in c.args))
                                 for c in calls))
        return lambda batch, ctx, rows: batch.summary_values(key, rows, walk,
                                                             ctx)
    return None


def _chain_values(expr: SummaryExpr, label, summary_sets, ctx) -> list:
    """:func:`evaluate_summary_exprs`, except that a
    ``getSummaryObject('I').getLabelValue('L')`` chain (``label`` is
    ``(I, L)``) reads a plain ClassifierObject holding ``L`` directly;
    on every other row the chain's walk goes on from the object."""
    if label is None:
        return evaluate_summary_exprs(expr, summary_sets, ctx)
    alias, (instance, name), rest = expr.alias, label, expr.chain[1:]
    out = []
    for sets in summary_sets:
        s = sets[alias] if alias in sets else resolve_summary_set(sets, alias)
        obj = s.get_summary_object(instance)
        members = obj.label_elements.get(name) \
            if type(obj) is ClassifierObject else None
        out.append(_walk(obj, rest, ctx) if members is None
                   else len(members))
    return out


_OPS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: ``a op b`` ⇔ ``b FLIPPED[op] a``
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _compile_comparison(expr: Comparison):
    """:func:`_compare`'s rules over the active rows: a None side gives
    False, an unorderable pair a QueryError."""
    op = expr.op
    left, right = _operand(expr.left), _operand(expr.right)
    if left is None or right is None or (op not in _OPS and op != "LIKE"):
        return partial(_rowwise_mask, expr)
    if isinstance(expr.right, Literal):
        return _against(op, left, expr.left, expr.right.value)
    if isinstance(expr.left, Literal) and op != "LIKE":
        return _against(_FLIPPED[op], right, expr.right, expr.left.value)
    fn = _OPS.get(op) or (lambda x, y: like_match(str(x), str(y)))
    return _kernel(lambda a, b: [
        x is not None and y is not None and fn(x, y) for x, y in zip(a, b)
    ], left, right)


def _against(op, values, side: Expr, const):
    """``side op const``, with ``values`` the compiled ``side``; a LIKE
    pattern is compiled here, once."""
    if const is None:
        return _kernel(lambda a: [False] * len(a), values)
    if op == "LIKE":
        match = compile_like(str(const)).fullmatch
        return _kernel(lambda a: [
            x is not None and match(str(x)) is not None for x in a
        ], values)
    fn = _OPS[op]
    kernel = _kernel(lambda a: [x is not None and fn(x, const) for x in a],
                     values)
    if isinstance(side, ColumnRef) and isinstance(const, (int, float)) \
            and not isinstance(const, bool):
        return partial(_numpy_compare, str(side), fn, const, kernel)
    return kernel


def _numpy_compare(name, fn, const, kernel, batch, ctx, active):
    """Numeric data column <op> numeric constant: one numpy comparison
    when the column is cleanly numeric (no Nones, no objects) and the
    pairing is exact (:func:`_numpy_exact`); ``kernel`` otherwise."""
    values = batch.column_values(name)
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        return kernel(batch, ctx, active)
    if not _numpy_exact(values, arr, const):
        return kernel(batch, ctx, active)
    return active & fn(arr, const)


def _numpy_exact(values, arr, scalar) -> bool:
    """Whether numpy compares ``arr`` (built from ``values``) with
    ``scalar`` exactly as Python compares each value: an int64 column
    against an int within int64, or an all-float column against a float.
    Any other pairing converts one side to float64, which rounds ints past
    2**53 (``9007199254740992.0 == 9007199254740993`` is False in Python,
    True in float64)."""
    kind = arr.dtype.kind
    if isinstance(scalar, int):
        return kind == "i" and -(1 << 63) <= scalar < (1 << 63)
    return kind == "f" and all(isinstance(v, float) for v in values)
