"""Plan enumeration, access-path selection, and physical lowering (§5).

For each SELECT the planner:

1. binds the statement to an initial logical plan (binder),
2. explores the §5.1 rule space into a pool of equivalent logical plans,
3. lowers every candidate to a physical plan — choosing between sequential
   scan / data B-Tree / derived-structure access paths, block nested-loop
   / index nested-loop joins, and memory / disk sorts — while tracking
   *interesting orders* produced by Summary-BTree scans (Rules 3–6: a sort
   on an indexed label riding an order-preserving pipeline is
   eliminated), and
4. executes the cheapest plan under the §5.2 cost model.

Derived structures (the Summary-BTree, the baseline, the keyword index,
any registered kind) are one access path: each structure on the scanned
table is asked for a :class:`~repro.index.derived.Probe` per summary
conjunct and for the desired order, and every probe is priced by one
formula (:meth:`_LowerState._probe_path`) and run by one operator.
``index_scheme`` only filters which classifier kind may answer.

The chosen plan is kept in the database's :class:`PlanCache` and reused,
as a fresh copy per run, while no planner input has moved (DESIGN.md §5n).

``PlannerOptions`` exposes the ablation knobs the paper's experiments flip:
rules on/off (Figures 14–15), index scheme (Figures 10–12), propagation
on/off and pointer style (Figure 13), and forced join/sort algorithms
(Figure 14's four configurations).
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import PlanError
from repro.index.derived import is_leaf_label, label_chain
from repro.query.ast import ExplainStmt, Expr, SelectStmt
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
    DerivedIndexScan,
    DistinctOp,
    ExecContext,
    FilterOp,
    GroupOp,
    IndexNestedLoopJoin,
    IndexScan,
    SummaryIndexNestedLoopJoin,
    LimitOp,
    NestedLoopJoin,
    PhysicalOperator,
    ProjectOp,
    SeqScan,
    SortOp,
    SummaryFilterOp,
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
    match_summary_join_pred,
)
from repro.optimizer.rules import apply_rules
from repro.optimizer.statistics import (
    ColumnStats,
    PublishedStats,
    StatisticsCatalog,
    TableStats,
)


@dataclass
class PlannerOptions:
    """Optimizer ablation knobs (see module docstring)."""

    enable_rules: bool = True
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


#: The classifier kind each ``index_scheme`` admits (Figures 10–12);
#: "none" admits neither.
SCHEME_KINDS = {"summary_btree": "summary", "baseline": "baseline"}

#: Plans a :class:`PlanCache` keeps before evicting the least recently used.
PLAN_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class CachedPlan:
    """One statement's planning outcome, valid while ``stamp`` holds.
    ``template`` is never run: each run gets a copy (see :func:`instantiate`)."""

    stamp: tuple
    template: PhysicalOperator
    logical: LogicalPlan
    cost: float
    excluded: frozenset


class PlanCache:
    """The plan level of the statement cache (DESIGN.md §5n): a bounded LRU
    of :class:`CachedPlan` keyed on the statement value.

    ``epoch`` is the database-wide stamp input: DDL, UDF registration and
    repair move it.  The cache is process state — the owning database
    drops it when pickled, lookup counts included (an invalidation is a
    miss that found the statement's entry under an older stamp)."""

    def __init__(self, capacity: int = PLAN_CACHE_ENTRIES):
        self.capacity = capacity
        self.epoch = 0
        self.hits = self.misses = self.invalidations = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def bump(self) -> None:
        with self._lock:
            self.epoch += 1

    def lookup(self, key, stamp: tuple) -> CachedPlan | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.stamp == stamp:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            if entry is not None:
                self.invalidations += 1
            return None

    def store(self, key, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


def instantiate(template: PhysicalOperator, ctx: ExecContext) -> PhysicalOperator:
    """A runnable copy of a cached plan: every operator shallow-copied onto
    ``ctx``.  Operators keep no per-run state beyond ``profiler``,
    ``runtime`` and ``materialize_output``, which land on the copy, so
    concurrent runs of one plan never share an operator."""
    op = object.__new__(type(template))  # copy.copy, minus its dispatch
    fields = op.__dict__
    fields.update(template.__dict__)
    fields["ctx"] = ctx
    for attr in ("child", "left", "right"):
        sub = fields.get(attr)
        if isinstance(sub, PhysicalOperator):
            fields[attr] = instantiate(sub, ctx)
    return op


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
    chain = label_chain(expr)
    if chain is None:
        return None
    return Order(expr.alias or "", *chain, direction)


class Planner:
    """Binds, rewrites, lowers, and costs queries for one database."""

    def __init__(
        self,
        catalog,
        manager,
        stats: StatisticsCatalog,
        derived: dict,
        options: PlannerOptions | None = None,
        health=None,
        cache: PlanCache | None = None,
    ):
        self.catalog = catalog
        self.manager = manager
        self.stats = stats
        #: ``(kind, table, instance)`` -> derived structure (the registry).
        self.derived = derived
        self.options = options or PlannerOptions()
        self.binder = Binder(catalog, manager)
        #: :class:`~repro.resilience.health.AccessPathHealth`; None = every
        #: derived access path is assumed healthy.
        self.health = health
        #: quarantined paths the last :meth:`plan` call skipped, as
        #: ``(kind, table, instance)`` — what EXPLAIN reports as "degraded".
        self.excluded: set[tuple[str, str, str]] = set()
        #: the statement cache's plan level (the database's; a planner
        #: built without one caches for itself).
        self.cache = cache if cache is not None else PlanCache()
        #: whether the last :meth:`plan` call was served from the cache.
        self.cached = False
        #: per table (lower-case), the published statistics the last
        #: :meth:`plan` call priced with — read once, with the stamp.
        self.priced: dict[str, PublishedStats] = {}

    # -- public API -------------------------------------------------------------

    def plan(
        self, stmt: SelectStmt | ExplainStmt
    ) -> tuple[PhysicalOperator, LogicalPlan, float]:
        """(physical plan, chosen logical plan, estimated cost).

        ``ExplainStmt`` plans its inner query — whether the plan is then
        executed (ANALYZE) or only rendered is the executor's call.

        A statement whose plan is cached under the current stamp skips
        bind, rewrite and costing; either way the caller gets a fresh copy
        of the plan, never one another run holds.
        """
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.query
        # The stamp is read before planning, and planning prices with the
        # snapshots the stamp read: a republish that lands while this
        # statement plans leaves an entry the next lookup finds stale.
        stamp = self._stamp(stmt)
        entry = self.cache.lookup(stmt, stamp) if stamp is not None else None
        self.cached = entry is not None
        if entry is None:
            physical, logical, cost = self._plan_uncached(stmt)
            entry = CachedPlan(stamp, physical, logical, cost,
                               frozenset(self.excluded))
            if stamp is not None:
                self.cache.store(stmt, entry)
        self.excluded = set(entry.excluded)
        return (instantiate(entry.template, self.exec_context()),
                entry.logical, entry.cost)

    def _stamp(self, stmt: SelectStmt) -> tuple | None:
        """Every planner input that can change without DDL, as one value.
        None (do not cache) when a table is missing: binding will raise.

        Per table: the publish version of the statistics the plan prices
        with (pricing may lag the data), and — read live, because they
        decide whether a plan is *correct* — whether every row has a
        summary row and whether any annotation targets cells."""
        catalog, manager = self.catalog, self.manager
        self.priced = {}
        tables = []
        for ref in stmt.tables:
            if not catalog.has_table(ref.name):
                return None
            tables.append((
                self.snapshot(ref.name).version,
                self._all_annotated(ref.name),
                manager.has_cell_annotations(ref.name),
            ))
        return (
            self.cache.epoch,
            # The quarantined set itself: usually empty, and exactly
            # what _path_ok reads.
            tuple(self.health.unhealthy()) if self.health is not None else (),
            # Figure benches flip option fields in place: compare values.
            tuple(vars(self.options).values()),
            tuple(tables),
        )

    def snapshot(self, table: str) -> PublishedStats:
        """``table``'s published statistics, read once per :meth:`plan`."""
        key = table.lower()
        snapshot = self.priced.get(key)
        if snapshot is None:
            snapshot = self.priced[key] = self.stats.published(table)
        return snapshot

    def table_stats(self, table: str) -> TableStats:
        return self.snapshot(table).stats

    def _all_annotated(self, table: str) -> bool:
        """Whether every row of ``table`` has a summary row now — the side
        condition of a full-range ordered Summary-BTree scan."""
        return (len(self.manager.storage_for(table))
                >= len(self.catalog.table(table)))

    def _plan_uncached(
        self, stmt: SelectStmt | ExplainStmt
    ) -> tuple[PhysicalOperator, LogicalPlan, float]:
        """Bind, rewrite and cost ``stmt`` — the statement cache's miss
        path, and the oracle tests compare cached plans against.  Prices
        with the snapshots :meth:`plan` read for its stamp (called on its
        own, with the tables' current snapshots)."""
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

    def _path(self, kind: str, table: str, instance: str):
        """The registered ``kind`` structure over ``(table, instance)``;
        None when there is none or it is quarantined."""
        index = self.derived.get((kind, table.lower(), instance))
        if index is None or not self._path_ok(kind, table, instance):
            return None
        return index

    def exec_context(self) -> ExecContext:
        return ExecContext(
            catalog=self.catalog,
            manager=self.manager,
            propagate=self.options.propagate,
            derived=self.derived,
            eval_ctx=EvalContext(
                manager=self.manager, search_raw=self.options.search_raw,
                udfs=self.manager.udfs,
            ),
        )

    # -- lowering ------------------------------------------------------------------

    def _lower_plan(self, plan: LogicalPlan, info: BindInfo) -> Lowered:
        ctx = self.exec_context()
        estimator = Estimator(self.table_stats, info.alias_tables)
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

    def _summary_io_factor(self, table: str) -> float:
        """Discount on summary-storage read charges when a warm
        :class:`~repro.cache.SummaryCache` makes repeat probes cheap.
        Applies only to reads that go through the cache (SummaryStorage
        reads via the manager) — direct heap reads keep full price.  The
        value ``table``'s statistics were published with, so a plan and
        its stamp agree on it."""
        return self.planner.snapshot(table).discount

    def _retained(self, alias: str) -> set[str] | None:
        return self.info.retained_summary_columns.get(alias)

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

    def _summary_width(self, table: str, with_summaries: bool) -> float:
        if not with_summaries:
            return 0.0
        stats = self.planner.table_stats(table)
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
        stats = self.planner.table_stats(table)
        candidates: list[Lowered] = [
            self._seq_scan_path(scan, data_preds, summary_preds, stats)
        ]
        # Derived structures see the *stored* summaries: they serve no
        # scan whose sets annotation elimination changes.
        if not self._elimination_active(alias):
            order = self.desired_order
            if order is not None and order.alias != alias:
                order = None
            for (kind, name, _), index in self.planner.derived.items():
                if name != table.lower() or not self._admits(kind):
                    continue
                for conjunct in [*summary_preds, None]:
                    probe = index.probe(
                        conjunct, order, alias=alias,
                        manager=self.planner.manager, options=self.options,
                    )
                    path = None if probe is None else self._probe_path(
                        scan, probe, data_preds, summary_preds, stats)
                    if path is not None:
                        candidates.append(path)
        if self.options.enable_data_indexes:
            table_obj = self.ctx.catalog.table(table)
            for i, pred in enumerate(data_preds):
                matched = match_indexable_data_pred(pred)
                if matched is None or (matched.alias or alias) != alias:
                    continue
                if matched.constant is None:
                    # Matches no row; as an index bound it would read as
                    # "unbounded".
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
            io += (stats.summary_pages * IO_COST
                   * self._summary_io_factor(scan.table))
        base = Lowered(
            SeqScan(self.ctx, scan.table, scan.alias, with_summaries,
                    self._retained(scan.alias)),
            io + stats.row_count * CPU_ROW,
            max(float(stats.row_count), 1.0),
            None,
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, data_preds, summary_preds)

    def _admits(self, kind: str) -> bool:
        """The ``index_scheme`` filter: one classifier scheme at a time
        ("none" admits neither); other kinds always."""
        if kind not in SCHEME_KINDS.values():
            return True
        return SCHEME_KINDS.get(self.options.index_scheme) == kind

    def _probe_path(self, scan, probe, data_preds, summary_preds,
                    stats) -> Lowered | None:
        """One derived-structure probe, priced from its page charges; None
        when a structure the scan reads is quarantined."""
        residual = list(summary_preds)
        if probe.exact and probe.conjunct is not None:
            residual.remove(probe.conjunct)
        consumed = len(summary_preds) - len(residual)
        with_summaries = self._needs_summaries(scan.alias, consumed) \
            or bool(residual)
        op = DerivedIndexScan(self.ctx, scan.table, scan.alias, probe,
                              with_summaries, self._retained(scan.alias))
        if not all(self.planner._path_ok(*key) for key in op.derived_keys):
            return None
        if probe.conjunct is None and not self.planner._all_annotated(
                scan.table):
            # A full-range scan drops un-annotated tuples: they have no
            # entries.  A correctness condition, so read live (and
            # stamped), never from the published row count.
            return None
        selectivity = probe.selectivity
        if selectivity is None:
            selectivity = self.est.selectivity(probe.conjunct, scan.alias)
        matches = stats.row_count * selectivity
        rows = max(matches, 1.0)
        per_match = probe.pages * IO_COST + probe.hop_descents * INDEX_DESCENT
        if with_summaries:
            if not probe.summaries_with_hit:
                # the summary storage row, read through the summary cache
                per_match += IO_COST * self._summary_io_factor(scan.table)
            per_match += probe.reconstruct_pages * IO_COST
        # A predicate probe is charged at least one hit; a full-range
        # scan of an empty table, none.
        charged = rows if probe.conjunct is not None else matches
        base = Lowered(
            op, probe.descents * INDEX_DESCENT + charged * per_match, rows,
            None if probe.order is None else Order(scan.alias, *probe.order),
            width=self._summary_width(scan.table, with_summaries),
        )
        return self._wrap_residuals(base, data_preds, residual)

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
            IO_COST * self._summary_io_factor(scan.table)
            if with_summaries else 0.0
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

    def _inner_scan(self, right: LogicalPlan):
        """``(scan, its filter conjuncts)`` when a join's inner side is a
        scan stack an index probe can replace, else None."""
        preds: list[Expr] = []
        while isinstance(right, (LogicalSelect, LogicalSummarySelect)):
            preds.extend(split_conjuncts(right.predicate))
            right = right.child
        return (right, preds) if isinstance(right, LogicalScan) else None

    def _index_nl(self, node, left: Lowered, scan: LogicalScan, make_op,
                  matches_per_row: float, selectivities: tuple,
                  raw_search: bool = False) -> Lowered:
        """Price an index nested-loop join over ``scan``: per outer row one
        descent, then per match a heap read (and a summary read when the
        inner side carries summaries)."""
        with_summaries = self._needs_summaries(scan.alias)
        op = make_op(with_summaries=with_summaries,
                     retained=self._retained(scan.alias))
        per_probe = INDEX_DESCENT + matches_per_row * (
            IO_COST + (IO_COST if with_summaries else 0.0)
        )
        if raw_search:
            per_probe += matches_per_row * RAW_SEARCH_ROW
        cost = left.cost + left.rows * per_probe
        rows = left.rows * matches_per_row
        for selectivity in selectivities:
            rows *= selectivity
        rows = max(rows, 1.0)
        width = left.width + self._summary_width(scan.table, with_summaries)
        cost += rows * width * CPU_MERGE_BYTE
        order = self._order_survives_join(left.order, node.right)
        return Lowered(op, cost, rows, order, width=width)

    def _try_summary_index_nl(
        self, node, left: Lowered, summary_predicate: Expr | None,
        condition: Expr | None,
    ) -> Lowered | None:
        inner = self._inner_scan(node.right)
        if (summary_predicate is None or not self._admits("summary")
                or inner is None):
            return None
        right, right_preds = inner
        if self._elimination_active(right.alias):
            return None  # index sees stored counts; see DESIGN.md §6
        conjuncts = split_conjuncts(summary_predicate)
        for i, conj in enumerate(conjuncts):
            matched = match_summary_join_pred(conj, right.alias)
            if (matched is None
                    or self.planner._path("summary", right.table,
                                          matched.instance) is None
                    or not is_leaf_label(self.planner.manager,
                                         matched.instance, matched.label)):
                continue
            residual_summary = conjoin(conjuncts[:i] + conjuncts[i + 1:])
            residual_data = conjoin(split_conjuncts(condition) + right_preds)
            stats = self.planner.table_stats(right.table)
            label_stats = stats.label_stats(matched.instance, matched.label)
            ndistinct = label_stats.ndistinct if label_stats else 1
            if matched.op == "=":
                matches_per_row = max(stats.row_count / max(ndistinct, 1), 1.0)
            else:
                matches_per_row = max(stats.row_count / 3.0, 1.0)
            make_op = functools.partial(
                SummaryIndexNestedLoopJoin, self.ctx, left.op, right.table,
                right.alias, matched.instance, matched.label, matched.op,
                matched.outer_expr, condition=residual_data,
                summary_predicate=residual_summary,
            )
            return self._index_nl(
                node, left, right, make_op, matches_per_row,
                (self.est.selectivity(residual_data),
                 self.est.selectivity(residual_summary)),
            )
        return None

    def _try_index_nl(self, node, left: Lowered,
                      summary_predicate: Expr | None,
                      condition: Expr | None) -> Lowered | None:
        inner = self._inner_scan(node.right)
        if inner is None:
            return None
        right, right_preds = inner
        table_obj = self.ctx.catalog.table(right.table)
        conjuncts = split_conjuncts(condition)
        for i, conj in enumerate(conjuncts):
            if not isinstance(conj, Comparison) or conj.op != "=":
                continue
            for probe_side, key_side in (
                (conj.right, conj.left), (conj.left, conj.right)
            ):
                if not (isinstance(probe_side, ColumnRef)
                        and probe_side.alias == right.alias
                        and right.alias not in aliases_in(key_side)
                        and table_obj.has_index(probe_side.column)):
                    continue
                residual = conjoin(conjuncts[:i] + conjuncts[i + 1:]
                                   + right_preds)
                stats = self.planner.table_stats(right.table)
                col_stats = stats.columns.get(probe_side.column, ColumnStats(1))
                matches_per_row = max(
                    stats.row_count / max(col_stats.ndistinct, 1), 1.0
                )
                make_op = functools.partial(
                    IndexNestedLoopJoin, self.ctx, left.op, right.table,
                    right.alias, probe_side.column, key_side,
                    condition=residual, summary_predicate=summary_predicate,
                )
                return self._index_nl(
                    node, left, right, make_op, matches_per_row,
                    (self.est.selectivity(residual),
                     self.est.join_selectivity(summary_predicate, left.rows,
                                               1.0)
                     if summary_predicate is not None else 1.0),
                    raw_search=summary_predicate is not None
                    and self.est.needs_raw_search(summary_predicate),
                )
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
