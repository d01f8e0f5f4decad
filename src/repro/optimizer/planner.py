"""Plan enumeration, access-path selection, and physical lowering (§5).

For each SELECT the planner:

1. binds the statement to an initial logical plan (binder),
2. explores the §5.1 rule space into a pool of equivalent logical plans,
3. lowers every candidate to a physical plan — choosing between sequential
   scan / data B-Tree / Summary-BTree (or baseline) access paths, block
   nested-loop / index nested-loop joins, and memory / disk sorts — while
   tracking *interesting orders* produced by Summary-BTree scans (Rules
   3–6: a sort on an indexed label riding an order-preserving pipeline is
   eliminated), and
4. executes the cheapest plan under the §5.2 cost model.

``PlannerOptions`` exposes the ablation knobs the paper's experiments flip:
rules on/off (Figures 14–15), index scheme (Figures 10–12), propagation
on/off and pointer style (Figure 13), and forced join/sort algorithms
(Figure 14's four configurations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError
from repro.query.ast import (
    ExplainStmt,
    Expr,
    FuncCall,
    Literal,
    SelectStmt,
    SummaryExpr,
)
from repro.query.binder import Binder, BindInfo
from repro.query.eval import EvalContext
from repro.query.logical import (
    LogicalDistinct,
    LogicalGroup,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSelect,
    LogicalSort,
    LogicalSummaryFilter,
    LogicalSummaryJoin,
    LogicalSummarySelect,
    aliases_in,
    conjoin,
    split_conjuncts,
    summary_exprs_in,
)
from repro.query.ast import ColumnRef, Comparison, ObjectFunc
from repro.query.physical import (
    BaselineIndexScan,
    DistinctOp,
    ExecContext,
    FilterOp,
    GroupOp,
    IndexNestedLoopJoin,
    IndexScan,
    KeywordIndexScan,
    SummaryIndexNestedLoopJoin,
    LimitOp,
    NestedLoopJoin,
    PhysicalOperator,
    ProjectOp,
    SeqScan,
    SortOp,
    SummaryFilterOp,
    SummaryIndexScan,
    SummarySelectOp,
)
from repro.optimizer.cost import (
    CPU_EVAL,
    CPU_ROW,
    INDEX_DESCENT,
    IO_COST,
    RAW_SEARCH_ROW,
    CPU_MERGE_BYTE,
    Estimator,
    match_indexable_data_pred,
    match_indexable_summary_pred,
    match_keyword_pred,
    match_summary_join_pred,
    summary_read_discount,
)
from repro.optimizer.rules import apply_rules
from repro.optimizer.statistics import ColumnStats, StatisticsCatalog


@dataclass
class PlannerOptions:
    """Optimizer ablation knobs (see module docstring)."""

    enable_rules: bool = True
    enable_summary_indexes: bool = True
    enable_data_indexes: bool = True
    force_join: str | None = None  # "nloop" | "index"
    force_sort: str | None = None  # "mem" | "disk"
    index_scheme: str = "summary_btree"  # "summary_btree" | "baseline" | "none"
    #: "index" pins access-path choice to an index whenever one matches the
    #: predicates (the paper's Figures 10-13 compare access paths directly).
    force_access: str | None = None
    normalized_propagation: bool = False  # Figure 12 baseline-propagation mode
    propagate: bool = True
    search_raw: bool = True
    mem_sort_threshold: int = 50_000


def _access_root(op: PhysicalOperator) -> PhysicalOperator:
    """The access path at the bottom of a residual-wrapped operator stack."""
    while op.children:
        op = op.children[0]
    return op


@dataclass(frozen=True)
class Order:
    """An interesting order w.r.t. a classifier instance (§5.1 notation R^L)."""

    alias: str
    instance: str
    label: str
    direction: str  # ASC | DESC


@dataclass
class Lowered:
    """A lowered subtree: operator + cost/cardinality/order bookkeeping.

    ``width`` is the estimated summary payload (bytes) carried per tuple
    (Figure 6's AvgObjectSize summed over surviving instances); joins and
    groups charge merge work proportional to it, which is what makes the
    Rule 7/8 filter pushdowns win plans."""

    op: PhysicalOperator
    cost: float
    rows: float
    order: Order | None = None
    width: float = 0.0


def sort_key_order(expr: Expr, direction: str) -> Order | None:
    """The Order a sort key demands, when it is an indexable label chain."""
    if not isinstance(expr, SummaryExpr):
        return None
    chain = expr.chain
    if (
        len(chain) == 2
        and chain[0].name == "getSummaryObject"
        and chain[1].name == "getLabelValue"
        and chain[0].args and isinstance(chain[0].args[0], str)
        and chain[1].args and isinstance(chain[1].args[0], str)
    ):
        return Order(expr.alias or "", chain[0].args[0], chain[1].args[0],
                     direction)
    return None


class Planner:
    """Binds, rewrites, lowers, and costs queries for one database."""

    def __init__(
        self,
        catalog,
        manager,
        stats: StatisticsCatalog,
        summary_indexes: dict,
        baseline_indexes: dict,
        options: PlannerOptions | None = None,
        normalized_replicas: dict | None = None,
        keyword_indexes: dict | None = None,
        health=None,
    ):
        self.catalog = catalog
        self.manager = manager
        self.stats = stats
        self.summary_indexes = summary_indexes
        self.baseline_indexes = baseline_indexes
        self.normalized_replicas = normalized_replicas or {}
        self.keyword_indexes = keyword_indexes or {}
        self.options = options or PlannerOptions()
        self.binder = Binder(catalog, manager)
        #: :class:`~repro.resilience.health.AccessPathHealth`; None = every
        #: derived access path is assumed healthy.
        self.health = health
        #: quarantined paths the last :meth:`plan` call skipped, as
        #: ``(kind, table, instance)`` — what EXPLAIN reports as "degraded".
        self.excluded: set[tuple[str, str, str]] = set()

    # -- public API -------------------------------------------------------------

    def plan(
        self, stmt: SelectStmt | ExplainStmt
    ) -> tuple[PhysicalOperator, LogicalPlan, float]:
        """(physical plan, chosen logical plan, estimated cost).

        ``ExplainStmt`` plans its inner query — whether the plan is then
        executed (ANALYZE) or only rendered is the executor's call.
        """
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.query
        self.excluded = set()
        logical, info = self.binder.bind(stmt)
        candidates = [logical]
        if self.options.enable_rules:
            candidates = apply_rules(logical, self.manager, info)
        best: tuple[PhysicalOperator, LogicalPlan, float] | None = None
        for candidate in candidates:
            lowered = self._lower_plan(candidate, info)
            if best is None or lowered.cost < best[2]:
                best = (lowered.op, candidate, lowered.cost)
        assert best is not None
        return best

    def _path_ok(self, kind: str, table: str, instance: str) -> bool:
        """Degraded-mode gate: False when ``(kind, table, instance)`` is
        quarantined in the health registry, recording the exclusion so
        callers (EXPLAIN, QueryReport) can surface why the plan fell back
        to a heap scan."""
        if self.health is None or self.health.is_healthy(kind, table, instance):
            return True
        self.excluded.add((kind, table.lower(), instance))
        return False

    def exec_context(self) -> ExecContext:
        return ExecContext(
            catalog=self.catalog,
            manager=self.manager,
            propagate=self.options.propagate,
            summary_indexes=self.summary_indexes,
            baseline_indexes=self.baseline_indexes,
            normalized_replicas=self.normalized_replicas,
            keyword_indexes=self.keyword_indexes,
            eval_ctx=EvalContext(
                manager=self.manager, search_raw=self.options.search_raw,
                udfs=self.manager.udfs,
            ),
        )

    # -- lowering ------------------------------------------------------------------

    def _lower_plan(self, plan: LogicalPlan, info: BindInfo) -> Lowered:
        ctx = self.exec_context()
        estimator = Estimator(self.stats, info.alias_tables)
        # Which aliases need their summaries materialized anywhere above the
        # access path (residual predicates, sort keys, output propagation)?
        summary_uses: dict[str, int] = {}
        for node in plan.walk_plan():
            for expr in _node_exprs(node):
                for sexpr in summary_exprs_in(expr):
                    alias = sexpr.alias or next(iter(info.alias_tables))
                    summary_uses[alias] = summary_uses.get(alias, 0) + 1
        desired = self._desired_order(plan)
        state = _LowerState(self, ctx, info, estimator, summary_uses, desired)
        return state.lower(plan)

    @staticmethod
    def _desired_order(plan: LogicalPlan) -> Order | None:
        for node in plan.walk_plan():
            if isinstance(node, LogicalSort) and len(node.keys) == 1:
                return sort_key_order(*node.keys[0])
        return None


def _node_exprs(node: LogicalPlan):
    if isinstance(node, (LogicalSelect, LogicalSummarySelect)):
        yield node.predicate
    elif isinstance(node, LogicalJoin):
        if node.condition is not None:
            yield node.condition
    elif isinstance(node, LogicalSummaryJoin):
        yield node.predicate
        if node.data_condition is not None:
            yield node.data_condition
    elif isinstance(node, LogicalSort):
        for expr, _ in node.keys:
            yield expr
    elif isinstance(node, LogicalGroup):
        yield from node.keys
        for agg, _ in node.aggregates:
            if agg.arg is not None:
                yield agg.arg
    elif isinstance(node, LogicalProject):
        from repro.query.ast import SelectItem

        for item in node.items:
            if isinstance(item, SelectItem):
                yield item.expr


class _LowerState:
    """One lowering pass over one logical candidate."""

    def __init__(self, planner: Planner, ctx: ExecContext, info: BindInfo,
                 estimator: Estimator, summary_uses: dict[str, int],
                 desired_order: Order | None):
        self.planner = planner
        self.ctx = ctx
        self.info = info
        self.est = estimator
        self.summary_uses = summary_uses
        self.desired_order = desired_order
        self.options = planner.options

    # -- dispatch -------------------------------------------------------------------

    def lower(self, node: LogicalPlan) -> Lowered:
        if isinstance(node, (LogicalScan, LogicalSelect, LogicalSummarySelect)) \
                and self._is_scan_stack(node):
            return self._lower_scan_stack(node)
        if isinstance(node, LogicalSelect):
            return self._lower_filter(node, data=True)
        if isinstance(node, LogicalSummarySelect):
            return self._lower_filter(node, data=False)
        if isinstance(node, LogicalSummaryFilter):
            child = self.lower(node.child)
            op = SummaryFilterOp(self.ctx, child.op, node.predicate)
            return Lowered(op, child.cost + child.rows * CPU_EVAL, child.rows,
                           child.order,
                           width=self._filtered_width(child.width, node))
        if isinstance(node, LogicalJoin):
            return self._lower_join(node, summary_predicate=None,
                                    condition=node.condition)
        if isinstance(node, LogicalSummaryJoin):
            return self._lower_join(node, summary_predicate=node.predicate,
                                    condition=node.data_condition)
        if isinstance(node, LogicalSort):
            return self._lower_sort(node)
        if isinstance(node, LogicalGroup):
            child = self.lower(node.child)
            op = GroupOp(self.ctx, child.op, node.keys, node.aggregates)
            groups = max(child.rows * 0.1, 1.0)
            return Lowered(op, child.cost + child.rows * CPU_ROW, groups, None)
        if isinstance(node, LogicalDistinct):
            child = self.lower(node.child)
            return Lowered(DistinctOp(self.ctx, child.op),
                           child.cost + child.rows * CPU_ROW,
                           max(child.rows * 0.9, 1.0), None)
        if isinstance(node, LogicalLimit):
            child = self.lower(node.child)
            return Lowered(LimitOp(self.ctx, child.op, node.limit),
                           child.cost, min(child.rows, node.limit), child.order)
        if isinstance(node, LogicalProject):
            child = self.lower(node.child)
            op = ProjectOp(self.ctx, child.op, node.items)
            return Lowered(op, child.cost + child.rows * CPU_ROW, child.rows,
                           child.order)
        raise PlanError(f"cannot lower {node!r}")

    # -- scan stacks & access paths ------------------------------------------------------

    def _is_scan_stack(self, node: LogicalPlan) -> bool:
        while isinstance(node, (LogicalSelect, LogicalSummarySelect)):
            node = node.child
        return isinstance(node, LogicalScan)

    def _lower_scan_stack(self, node: LogicalPlan) -> Lowered:
        data_preds: list[Expr] = []
        summary_preds: list[Expr] = []
        while isinstance(node, (LogicalSelect, LogicalSummarySelect)):
            bucket = data_preds if isinstance(node, LogicalSelect) else summary_preds
            bucket.extend(split_conjuncts(node.predicate))
            node = node.child
        assert isinstance(node, LogicalScan)
        return self._choose_access_path(node, data_preds, summary_preds)

    def _needs_summaries(self, alias: str, consumed: int = 0) -> bool:
        if self.options.propagate:
            return True
        return self.summary_uses.get(alias, 0) - consumed > 0

    def _summary_io_factor(self) -> float:
        """Discount on summary-storage read charges when a warm
        :class:`~repro.cache.SummaryCache` makes repeat probes cheap.
        Applies only to reads that go through the cache (SummaryStorage
        reads via the manager) — direct heap reads keep full price."""
        return summary_read_discount(self.planner.manager.cache)

    def _retained(self, alias: str) -> set[str] | None:
        return self.info.retained_summary_columns.get(alias)

    def _is_indexed_leaf_label(self, instance_name: str, label: str) -> bool:
        """The Summary-BTree stores *leaf* label keys only: predicates on
        inner hierarchy nodes (whose value is a subtree sum) or unknown
        labels must fall back to scan plans."""
        manager = self.planner.manager
        if not manager.has_instance(instance_name):
            return False
        labels = getattr(manager.instance(instance_name), "labels", None)
        return labels is not None and label in labels

    def _elimination_active(self, alias: str) -> bool:
        """True when projection-time annotation elimination can change
        classifier counts for ``alias``: some columns are projected out AND
        the table carries cell-level annotations.  Summary-index probes see
        the *stored* counts, so they are valid access paths only when this
        is False (scan plans evaluate predicates on the eliminated sets —
        [22] Theorems 1-2 put elimination below every other operator)."""
        if self._retained(alias) is None:
            return False
        table = self.info.table_of(alias)
        return self.planner.manager.has_cell_annotations(table)

    def _table_stats(self, table: str):
        return self.planner.stats.table_stats(table)

    def _summary_width(self, table: str, with_summaries: bool) -> float:
        if not with_summaries:
            return 0.0
        stats = self._table_stats(table)
        return sum(i.avg_object_size for i in stats.instances.values())

    def _filtered_width(self, width: float, node) -> float:
        """Estimated summary payload surviving an F operator: a
        name-equality structural predicate keeps one instance, a
        type-equality keeps roughly half, anything else is unchanged."""
        pred = node.predicate
        if isinstance(pred, Comparison) and isinstance(pred.left, ObjectFunc):
            if pred.left.name == "getSummaryName":
                tables = {
                    self.info.table_of(a) for a in node.child.aliases()
                }
                instances = sum(
                    len(self.planner.manager.instances_for(t)) for t in tables
                )
                return width / max(instances, 1)
            if pred.left.name == "getSummaryType":
                return width / 2.0
        return width

    def _choose_access_path(
        self,
        scan: LogicalScan,
        data_preds: list[Expr],
        summary_preds: list[Expr],
    ) -> Lowered:
        table, alias = scan.table, scan.alias
        stats = self._table_stats(table)
        candidates: list[Lowered] = [
            self._seq_scan_path(scan, data_preds, summary_preds, stats)
        ]
        summary_index_ok = (
            self.options.enable_summary_indexes
            and self.options.index_scheme != "none"
            and not self._elimination_active(alias)
        )
        if summary_index_ok:
            for i, pred in enumerate(summary_preds):
                matched = match_indexable_summary_pred(pred)
                if matched is None:
                    continue
                if (matched.alias or alias) != alias:
                    continue
                path = self._summary_index_path(
                    scan, matched, data_preds,
                    summary_preds[:i] + summary_preds[i + 1:], stats,
                )
                if path is not None:
                    candidates.append(path)
        if not self.options.search_raw and not self._elimination_active(alias):
            for i, pred in enumerate(summary_preds):
                kw = match_keyword_pred(pred)
                if kw is None or (kw.alias or alias) != alias:
                    continue
                if any(len(k) < 3 for k in kw.keywords):
                    continue  # below trigram length: index unusable
                index = self.planner.keyword_indexes.get(
                    (table.lower(), kw.instance)
                )
                if index is None:
                    continue
                if not self.planner._path_ok("keyword", table, kw.instance):
                    continue
                path = self._keyword_index_path(scan, kw, data_preds,
                                                summary_preds, stats)
                if path is not None:
                    candidates.append(path)
        if (
            summary_index_ok
            and self.options.index_scheme == "summary_btree"
            and self.desired_order is not None
            and self.desired_order.alias == alias
        ):
            # Pure ordering query (the paper's Q3): a full-range ordered
            # index scan can feed the sort's interesting order directly.
            path = self._ordered_full_scan_path(
                scan, data_preds, summary_preds, stats
            )
            if path is not None:
                candidates.append(path)
        if self.options.enable_data_indexes:
            table_obj = self.ctx.catalog.table(table)
            for i, pred in enumerate(data_preds):
                matched = match_indexable_data_pred(pred)
                if matched is None or (matched.alias or alias) != alias:
                    continue
                if not table_obj.has_index(matched.column):
                    continue
                candidates.append(
                    self._data_index_path(
                        scan, matched, data_preds[:i] + data_preds[i + 1:],
                        summary_preds, stats,
                    )
                )
        if self.options.force_access == "index" and len(candidates) > 1:
            forced = [
                c for c in candidates
                if not isinstance(_access_root(c.op), SeqScan)
            ]
            if forced:
                return min(forced, key=lambda c: c.cost)
        return min(candidates, key=lambda c: c.cost)

    def _wrap_residuals(
        self,
        base: Lowered,
        data_preds: list[Expr],
        summary_preds: list[Expr],
    ) -> Lowered:
        op, cost, rows, order = base.op, base.cost, base.rows, base.order
        width = base.width
        data_pred = conjoin(data_preds)
        if data_pred is not None:
            op = FilterOp(self.ctx, op, data_pred)
            cost += rows * CPU_EVAL
            rows = max(rows * self.est.selectivity(data_pred), 0.1)
        summary_pred = conjoin(summary_preds)
        if summary_pred is not None:
            op = SummarySelectOp(self.ctx, op, summary_pred)
            per_row = CPU_EVAL
            if self.est.needs_raw_search(summary_pred):
                per_row += RAW_SEARCH_ROW
            cost += rows * per_row
            rows = max(rows * self.est.selectivity(summary_pred), 0.1)
        return Lowered(op, cost, rows, order, width=width)

    def _seq_scan_path(self, scan, data_preds, summary_preds, stats) -> Lowered:
        with_summaries = self._needs_summaries(scan.alias) or bool(summary_preds)
        io = stats.heap_pages * IO_COST
        if with_summaries:
            io += stats.summary_pages * IO_COST * self._summary_io_factor()
        base = Lowered(
            SeqScan(self.ctx, scan.table, scan.alias, with_summaries,
                    self._retained(scan.alias)),
            io + stats.row_count * CPU_ROW,
            max(float(stats.row_count), 1.0),
            None,
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, data_preds, summary_preds)

    def _summary_index_path(
        self, scan, matched, data_preds, residual_summary, stats
    ) -> Lowered | None:
        if not self._is_indexed_leaf_label(matched.instance, matched.label):
            return None
        scheme = self.options.index_scheme
        key = (scan.table.lower(), matched.instance)
        if scheme == "summary_btree":
            index = self.planner.summary_indexes.get(key)
            if not self.planner._path_ok("summary", scan.table,
                                         matched.instance):
                return None
        else:
            index = self.planner.baseline_indexes.get(key)
            if not self.planner._path_ok("baseline", scan.table,
                                         matched.instance):
                return None
            if self.options.normalized_propagation and not \
                    self.planner._path_ok("replica", scan.table,
                                          matched.instance):
                return None
        if index is None:
            return None
        lo, hi, lo_inc, hi_inc = matched.bounds()
        selectivity = self.est.selectivity(
            Comparison(
                matched.op,
                SummaryExpr(scan.alias, (
                    FuncCall("getSummaryObject", (matched.instance,)),
                    FuncCall("getLabelValue", (matched.label,)),
                )),
                Literal(matched.constant),
            )
        )
        matches = max(stats.row_count * selectivity, 1.0)
        with_summaries = self._needs_summaries(scan.alias, consumed=1) \
            or bool(residual_summary)
        direction = "ASC"
        order = None
        if (
            self.desired_order is not None
            and self.desired_order.alias == scan.alias
            and self.desired_order.instance == matched.instance
            and self.desired_order.label == matched.label
        ):
            direction = self.desired_order.direction
            order = self.desired_order
        else:
            order = Order(scan.alias, matched.instance, matched.label, "ASC")
        if scheme == "summary_btree":
            # Backward pointers: leaf -> data heap directly; conventional
            # pointers pay the storage row plus the OID-index join with R.
            per_match = IO_COST  # data page
            if not index.backward_pointers:
                per_match += IO_COST + INDEX_DESCENT  # storage row + OID probe
            if with_summaries and index.backward_pointers:
                # summary storage row (read through the summary cache)
                per_match += IO_COST * self._summary_io_factor()
            op: PhysicalOperator = SummaryIndexScan(
                self.ctx, scan.table, scan.alias, matched.instance,
                matched.label, lo, hi, lo_inc, hi_inc, with_summaries,
                self._retained(scan.alias), direction,
            )
        else:
            # Baseline: derived index -> normalized row -> OID index -> heap.
            per_match = IO_COST + INDEX_DESCENT + IO_COST
            if with_summaries:
                per_match += IO_COST * self._summary_io_factor()
                if self.options.normalized_propagation:
                    per_match += 4 * IO_COST  # re-assemble from primitives
            op = BaselineIndexScan(
                self.ctx, scan.table, scan.alias, matched.instance,
                matched.label, lo, hi, lo_inc, hi_inc, with_summaries,
                self._retained(scan.alias), direction,
                self.options.normalized_propagation,
            )
        base = Lowered(
            op, INDEX_DESCENT + matches * per_match, matches, order,
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, data_preds, residual_summary)

    def _keyword_index_path(
        self, scan, kw, data_preds, summary_preds, stats
    ) -> Lowered:
        """Trigram candidates + full residual re-check: the original
        keyword conjunct stays in the residual because trigram matching
        over-approximates substring containment."""
        with_summaries = self._needs_summaries(scan.alias) \
            or bool(summary_preds)
        matches = max(stats.row_count * 0.15, 1.0)
        op = KeywordIndexScan(
            self.ctx, scan.table, scan.alias, kw.instance, kw.keywords,
            with_summaries, self._retained(scan.alias),
        )
        per_match = INDEX_DESCENT / 3.0 + IO_COST + (
            IO_COST * self._summary_io_factor() if with_summaries else 0.0
        )
        base = Lowered(
            op,
            INDEX_DESCENT * len(kw.keywords) + matches * per_match,
            matches,
            None,
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, data_preds, summary_preds)

    def _ordered_full_scan_path(
        self, scan, data_preds, summary_preds, stats
    ) -> Lowered | None:
        order = self.desired_order
        assert order is not None
        index = self.planner.summary_indexes.get((scan.table.lower(),
                                                  order.instance))
        if index is None:
            return None
        if not self.planner._path_ok("summary", scan.table, order.instance):
            return None
        # Only equivalent when every tuple has an indexed summary object —
        # un-annotated tuples have no index entries and would vanish.
        annotated = len(self.planner.manager.storage_for(scan.table))
        if annotated < stats.row_count:
            return None
        with_summaries = self._needs_summaries(scan.alias) or bool(summary_preds)
        per_match = IO_COST + (
            IO_COST * self._summary_io_factor() if with_summaries else 0.0
        )
        if not index.backward_pointers:
            per_match += IO_COST + INDEX_DESCENT
        op = SummaryIndexScan(
            self.ctx, scan.table, scan.alias, order.instance, order.label,
            None, None, True, True, with_summaries,
            self._retained(scan.alias), order.direction,
        )
        base = Lowered(
            op,
            INDEX_DESCENT + stats.row_count * per_match,
            max(float(stats.row_count), 1.0),
            order,
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, data_preds, summary_preds)

    def _data_index_path(
        self, scan, matched, residual_data, summary_preds, stats
    ) -> Lowered:
        lo, hi, lo_inc, hi_inc = matched.bounds()
        col_stats = stats.columns.get(matched.column)
        if matched.op == "=" and col_stats and col_stats.ndistinct:
            selectivity = 1.0 / col_stats.ndistinct
        else:
            selectivity = 0.2
        matches = max(stats.row_count * selectivity, 1.0)
        with_summaries = self._needs_summaries(scan.alias) or bool(summary_preds)
        per_match = IO_COST + (
            IO_COST * self._summary_io_factor() if with_summaries else 0.0
        )
        op = IndexScan(
            self.ctx, scan.table, scan.alias, matched.column, lo, hi,
            lo_inc, hi_inc, with_summaries, self._retained(scan.alias),
        )
        base = Lowered(
            op, INDEX_DESCENT + matches * per_match, matches, None,
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, residual_data, summary_preds)

    # -- filters above non-scans -------------------------------------------------------

    def _lower_filter(self, node, data: bool) -> Lowered:
        child = self.lower(node.child)
        if data:
            op: PhysicalOperator = FilterOp(self.ctx, child.op, node.predicate)
            per_row = CPU_EVAL
        else:
            op = SummarySelectOp(self.ctx, child.op, node.predicate)
            per_row = CPU_EVAL
            if self.est.needs_raw_search(node.predicate):
                per_row += RAW_SEARCH_ROW
        rows = max(child.rows * self.est.selectivity(node.predicate), 0.1)
        return Lowered(op, child.cost + child.rows * per_row, rows,
                       child.order, width=child.width)

    # -- joins -------------------------------------------------------------------------

    def _order_survives_join(self, order: Order | None,
                             other: LogicalPlan) -> Order | None:
        """Rules 5/6: the outer's interesting order survives iff the inner
        side has no link to the order's instance (else the merge would
        change the label counts)."""
        if order is None:
            return None
        for alias in other.aliases():
            table = self.info.table_of(alias)
            if self.planner.manager.is_linked(table, order.instance):
                return None
        return order

    def _lower_join(self, node, summary_predicate: Expr | None,
                    condition: Expr | None) -> Lowered:
        left = self.lower(node.left)
        candidates: list[Lowered] = []
        force = self.options.force_join

        # Index nested-loop: inner must be a scan stack with an index on the
        # inner column of an equality condition.
        inl = self._try_index_nl(node, left, summary_predicate, condition)
        if inl is not None and force != "nloop":
            candidates.append(inl)

        # Index-based J (§5.2): probe the inner's Summary-BTree per outer
        # row when one summary-join conjunct addresses an indexed label.
        sinl = self._try_summary_index_nl(
            node, left, summary_predicate, condition
        )
        if sinl is not None and force != "nloop":
            candidates.append(sinl)

        if force != "index" or not candidates:
            right = self.lower(node.right)
            op = NestedLoopJoin(self.ctx, left.op, right.op, condition,
                                summary_predicate)
            pairs = left.rows * right.rows
            selectivity = self.est.join_selectivity(condition, left.rows,
                                                    right.rows)
            if summary_predicate is not None:
                selectivity *= self.est.join_selectivity(
                    summary_predicate, left.rows, right.rows
                )
            per_pair = CPU_EVAL
            if summary_predicate is not None and self.est.needs_raw_search(
                summary_predicate
            ):
                per_pair += RAW_SEARCH_ROW
            cost = left.cost + right.cost + pairs * per_pair
            rows = max(pairs * selectivity, 1.0)
            width = left.width + right.width
            cost += rows * width * CPU_MERGE_BYTE
            order = self._order_survives_join(left.order, node.right)
            candidates.append(Lowered(op, cost, rows, order, width=width))
        return min(candidates, key=lambda c: c.cost)

    def _try_summary_index_nl(
        self, node, left: Lowered, summary_predicate: Expr | None,
        condition: Expr | None,
    ) -> Lowered | None:
        if summary_predicate is None:
            return None
        if not self.options.enable_summary_indexes:
            return None
        if self.options.index_scheme != "summary_btree":
            return None
        right = node.right
        right_preds: list[Expr] = []
        while isinstance(right, (LogicalSelect, LogicalSummarySelect)):
            right_preds.extend(split_conjuncts(right.predicate))
            right = right.child
        if not isinstance(right, LogicalScan):
            return None
        if self._elimination_active(right.alias):
            return None  # index sees stored counts; see DESIGN.md §6
        conjuncts = split_conjuncts(summary_predicate)
        for i, conj in enumerate(conjuncts):
            matched = match_summary_join_pred(conj, right.alias)
            if matched is None:
                continue
            index = self.planner.summary_indexes.get(
                (right.table.lower(), matched.instance)
            )
            if index is None:
                continue
            if not self.planner._path_ok("summary", right.table,
                                         matched.instance):
                continue
            if not self._is_indexed_leaf_label(matched.instance,
                                               matched.label):
                continue
            residual_summary = conjoin(conjuncts[:i] + conjuncts[i + 1:])
            residual_data = conjoin(
                (split_conjuncts(condition) if condition is not None else [])
                + right_preds
            )
            with_summaries = self._needs_summaries(right.alias)
            stats = self._table_stats(right.table)
            label_stats = None
            inst = stats.instances.get(matched.instance)
            if inst is not None:
                label_stats = inst.labels.get(matched.label)
            ndistinct = label_stats.ndistinct if label_stats else 1
            if matched.op == "=":
                matches_per_row = max(stats.row_count / max(ndistinct, 1), 1.0)
            else:
                matches_per_row = max(stats.row_count / 3.0, 1.0)
            op = SummaryIndexNestedLoopJoin(
                self.ctx, left.op, right.table, right.alias,
                matched.instance, matched.label, matched.op,
                matched.outer_expr,
                condition=residual_data,
                summary_predicate=residual_summary,
                with_summaries=with_summaries,
                retained=self._retained(right.alias),
            )
            per_probe = INDEX_DESCENT + matches_per_row * (
                IO_COST + (IO_COST if with_summaries else 0.0)
            )
            cost = left.cost + left.rows * per_probe
            rows = max(
                left.rows * matches_per_row
                * self.est.selectivity(residual_data)
                * self.est.selectivity(residual_summary),
                1.0,
            )
            width = left.width + self._summary_width(
                right.table, with_summaries
            )
            cost += rows * width * CPU_MERGE_BYTE
            order = self._order_survives_join(left.order, node.right)
            return Lowered(op, cost, rows, order, width=width)
        return None

    def _try_index_nl(self, node, left: Lowered,
                      summary_predicate: Expr | None,
                      condition: Expr | None) -> Lowered | None:
        right = node.right
        right_preds: list[Expr] = []
        while isinstance(right, (LogicalSelect, LogicalSummarySelect)):
            right_preds.extend(split_conjuncts(right.predicate))
            right = right.child
        if not isinstance(right, LogicalScan):
            return None
        table_obj = self.ctx.catalog.table(right.table)
        conjuncts = split_conjuncts(condition) if condition is not None else []
        for i, conj in enumerate(conjuncts):
            if not isinstance(conj, Comparison) or conj.op != "=":
                continue
            for probe_side, key_side in (
                (conj.right, conj.left), (conj.left, conj.right)
            ):
                if not isinstance(probe_side, ColumnRef):
                    continue
                if probe_side.alias != right.alias:
                    continue
                if right.alias in aliases_in(key_side):
                    continue
                if not table_obj.has_index(probe_side.column):
                    continue
                residual = conjuncts[:i] + conjuncts[i + 1:] + right_preds
                with_summaries = self._needs_summaries(right.alias)
                stats = self._table_stats(right.table)
                col_stats = stats.columns.get(probe_side.column, ColumnStats(1))
                matches_per_row = max(
                    stats.row_count / max(col_stats.ndistinct, 1), 1.0
                )
                op = IndexNestedLoopJoin(
                    self.ctx, left.op, right.table, right.alias,
                    probe_side.column, key_side,
                    condition=conjoin(residual),
                    summary_predicate=summary_predicate,
                    with_summaries=with_summaries,
                    retained=self._retained(right.alias),
                )
                per_probe = INDEX_DESCENT + matches_per_row * (
                    IO_COST + (IO_COST if with_summaries else 0.0)
                )
                if summary_predicate is not None and self.est.needs_raw_search(
                    summary_predicate
                ):
                    per_probe += matches_per_row * RAW_SEARCH_ROW
                cost = left.cost + left.rows * per_probe
                rows = max(left.rows * matches_per_row
                           * self.est.selectivity(conjoin(residual))
                           * (self.est.join_selectivity(summary_predicate,
                                                        left.rows, 1.0)
                              if summary_predicate is not None else 1.0), 1.0)
                width = left.width + self._summary_width(
                    right.table, with_summaries
                )
                cost += rows * width * CPU_MERGE_BYTE
                order = self._order_survives_join(left.order, node.right)
                return Lowered(op, cost, rows, order, width=width)
        return None

    # -- sorts ------------------------------------------------------------------------------

    def _lower_sort(self, node: LogicalSort) -> Lowered:
        child = self.lower(node.child)
        if len(node.keys) == 1:
            wanted = sort_key_order(*node.keys[0])
            if wanted is not None and child.order == wanted:
                # Rules 3-6: the pipeline already delivers this order.
                return child
        method = self.options.force_sort or (
            "mem" if child.rows <= self.options.mem_sort_threshold else "disk"
        )
        op = SortOp(self.ctx, child.op, node.keys, method=method)
        import math

        n = max(child.rows, 2.0)
        cpu = n * math.log2(n) * CPU_ROW
        io = 0.0
        if method == "disk":
            # Spill + re-read every run (tuples with summaries are wide).
            io = 2.0 * n * 0.25 * IO_COST
        raw = any(
            self.est.needs_raw_search(expr) for expr, _ in node.keys
        )
        if raw:
            cpu += n * RAW_SEARCH_ROW
        new_order = None
        if len(node.keys) == 1:
            new_order = sort_key_order(*node.keys[0])
        return Lowered(op, child.cost + cpu + io, child.rows, new_order)
