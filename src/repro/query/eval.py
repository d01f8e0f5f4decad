"""Expression evaluation over runtime tuples.

Summary expressions are evaluated by walking their call chain starting at
the tuple's ``$`` summary set; each link dispatches on the receiver type
(SummarySet / Classifier / Snippet / Cluster object) to the §3.1
manipulation functions. Keyword-search functions consult the snippets first
and fall back to the raw annotations through the
:class:`EvalContext` — the accuracy/performance tradeoff studied in [16].
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import QueryError
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
from repro.query.tuples import QTuple
from repro.summaries.functions import SummarySet
from repro.summaries.objects import (
    ClassifierObject,
    ClusterObject,
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


def compile_like(pattern: str) -> "re.Pattern":
    """Compiled SQL LIKE matcher with ``%`` and ``_`` wildcards (also
    accepts ``*`` as a convenience alias for ``%``, matching the paper's
    "Swan*" example).

    DOTALL because SQL's % and _ match any character, including newlines —
    annotations are multi-line text.
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
        return evaluate_summary_expr(expr, row, ctx)
    if isinstance(expr, Comparison):
        return _compare(expr, row, ctx)
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


def _compare(expr: Comparison, row: QTuple, ctx: EvalContext) -> bool:
    left = evaluate(expr.left, row, ctx)
    right = evaluate(expr.right, row, ctx)
    if left is None or right is None:
        return False
    if expr.op == "LIKE":
        return like_match(str(left), str(right))
    if expr.op == "=":
        return left == right
    if expr.op == "<>":
        return left != right
    try:
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        if expr.op == ">=":
            return left >= right
    except TypeError as exc:
        raise QueryError(f"cannot compare {left!r} {expr.op} {right!r}") from exc
    raise QueryError(f"unknown operator {expr.op!r}")


def evaluate_object_predicate(
    expr: Expr, obj: SummaryObject, ctx: EvalContext | None = None
) -> bool:
    """Evaluate a FILTER SUMMARIES predicate against one summary object.

    :class:`~repro.query.ast.ObjectFunc` leaves dispatch on ``obj``; the
    boolean/comparison structure is shared with row evaluation.
    """
    ctx = ctx or EvalContext()

    def ev(e: Expr) -> object:
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, ObjectFunc):
            return _dispatch_object(obj, e.name, e.args, ctx)
        if isinstance(e, Comparison):
            left, right = ev(e.left), ev(e.right)
            if left is None or right is None:
                return False
            if e.op == "LIKE":
                return like_match(str(left), str(right))
            return {
                "=": left == right,
                "<>": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[e.op]
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
    expr: SummaryExpr, row: QTuple, ctx: EvalContext
) -> object:
    receiver: object = row.summary_set(expr.alias)
    for call in expr.chain:
        if receiver is None:
            return None  # a missing summary object nullifies the chain
        receiver = _dispatch(receiver, call.name, call.args, ctx)
    return receiver


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
        if name in ("containsSingle", "containsUnion"):
            keywords = [str(a) for a in args]
            method = (
                obj.contains_single if name == "containsSingle"
                else obj.contains_union
            )
            if method(keywords):
                return True
            if ctx.search_raw and ctx.manager is not None:
                raws = ctx.raw_texts(sorted(obj.all_annotation_ids()))
                return method(keywords, raw_texts=raws)
            return False
    if isinstance(obj, ClusterObject):
        if name == "getGroupSize":
            return obj.get_group_size(int(args[0]))
        if name == "getRepresentative":
            return obj.get_representative(int(args[0]))
    raise QueryError(
        f"unknown function {name!r} for {obj.get_summary_type()} objects"
    )


# -- vectorized predicate evaluation ------------------------------------------------
#
# A predicate mask is built column-at-a-time where the expression shape
# allows it (comparisons over data columns, LIKE against a constant
# pattern, two-link classifier summary chains) and row-at-a-time —
# plain :func:`evaluate` on a row view — everywhere else, so a mask can
# never answer differently from per-row evaluation. AND evaluates its
# conjuncts left-to-right over the surviving row set, mirroring
# :func:`evaluate`'s short-circuit; OR only evaluates later disjuncts on
# rows still undecided.


def batch_predicate_mask(expr: Expr, batch, ctx: EvalContext | None = None):
    """Boolean numpy mask of the rows of ``batch`` satisfying ``expr``."""
    import numpy as np

    ctx = ctx or EvalContext()
    active = np.ones(len(batch), dtype=bool)
    return _batch_mask(expr, batch, ctx, active)


def _batch_mask(expr, batch, ctx, active):
    import numpy as np

    if isinstance(expr, And):
        mask = active
        for item in expr.items:
            if not mask.any():
                return mask
            mask = _batch_mask(item, batch, ctx, mask)
        return mask
    if isinstance(expr, Or):
        result = np.zeros(len(active), dtype=bool)
        undecided = active.copy()
        for item in expr.items:
            if not undecided.any():
                break
            hit = _batch_mask(item, batch, ctx, undecided)
            result |= hit
            undecided &= ~hit
        return result
    if isinstance(expr, Not):
        return active & ~_batch_mask(expr.item, batch, ctx, active)
    if isinstance(expr, Comparison):
        return _batch_compare(expr, batch, ctx, active)
    return _rowwise_mask(expr, batch, ctx, active)


def _rowwise_mask(expr, batch, ctx, active):
    """Fallback: plain per-row evaluation on the active rows."""
    import numpy as np

    out = np.zeros(len(active), dtype=bool)
    for i in np.flatnonzero(active):
        i = int(i)
        out[i] = bool(evaluate(expr, batch.row(i), ctx))
    return out


def _batch_operand(expr, batch, ctx, active):
    """``("scalar", v)`` / ``("col", values)`` for a vectorizable operand,
    None when only whole-row evaluation can produce it."""
    import numpy as np

    if isinstance(expr, Literal):
        return ("scalar", expr.value)
    if isinstance(expr, ColumnRef):
        name = f"{expr.alias}.{expr.column}" if expr.alias else expr.column
        return ("col", batch.column_values(name))
    if isinstance(expr, SummaryExpr):
        values = batch.label_values(
            expr, ctx, [int(i) for i in np.flatnonzero(active)]
        )
        if values is None:
            return None
        return ("col", values)
    return None


_ORDER_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _batch_compare(expr, batch, ctx, active):
    import numpy as np

    left = _batch_operand(expr.left, batch, ctx, active)
    right = _batch_operand(expr.right, batch, ctx, active)
    if left is None or right is None:
        return _rowwise_mask(expr, batch, ctx, active)
    op = expr.op
    n = len(active)
    out = np.zeros(n, dtype=bool)

    def at(operand, i):
        kind, payload = operand
        return payload if kind == "scalar" else payload[i]

    if op == "LIKE":
        if right[0] == "scalar":
            if right[1] is None:
                return out
            matcher = compile_like(str(right[1])).fullmatch
            for i in np.flatnonzero(active):
                i = int(i)
                value = at(left, i)
                out[i] = value is not None and \
                    matcher(str(value)) is not None
        else:
            for i in np.flatnonzero(active):
                i = int(i)
                value, pattern = at(left, i), at(right, i)
                out[i] = value is not None and pattern is not None and \
                    like_match(str(value), str(pattern))
        return out

    # Numeric column <op> numeric constant: one numpy comparison when the
    # column is cleanly numeric (no Nones, no objects) — otherwise the
    # elementwise loop below reproduces _compare exactly.
    if (op in _ORDER_OPS or op in ("=", "<>")) and left[0] == "col" \
            and right[0] == "scalar" \
            and isinstance(right[1], (int, float)) \
            and not isinstance(right[1], bool):
        try:
            arr = np.asarray(left[1])
        except (ValueError, TypeError):
            arr = None
        if arr is not None and arr.dtype.kind in "iuf":
            if op == "=":
                cmp = arr == right[1]
            elif op == "<>":
                cmp = arr != right[1]
            else:
                cmp = _ORDER_OPS[op](arr, right[1])
            return active & cmp

    if op == "=":
        for i in np.flatnonzero(active):
            i = int(i)
            a, b = at(left, i), at(right, i)
            out[i] = a is not None and b is not None and a == b
        return out
    if op == "<>":
        for i in np.flatnonzero(active):
            i = int(i)
            a, b = at(left, i), at(right, i)
            out[i] = a is not None and b is not None and a != b
        return out
    fn = _ORDER_OPS.get(op)
    if fn is None:
        raise QueryError(f"unknown operator {op!r}")
    for i in np.flatnonzero(active):
        i = int(i)
        a, b = at(left, i), at(right, i)
        if a is None or b is None:
            continue
        try:
            out[i] = fn(a, b)
        except TypeError as exc:
            raise QueryError(f"cannot compare {a!r} {op} {b!r}") from exc
    return out
