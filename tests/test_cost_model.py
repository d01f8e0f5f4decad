"""Cost-model behaviour: the optimizer's *choices*, not just its plans —
index-vs-scan crossover with selectivity, merge-width accounting, join
algorithm selection, and force_access semantics."""

import pytest

from repro import Column, Database, ValueType
from repro.bench.queries import equality_constant, label_distribution
from repro.workload.generator import WorkloadConfig, build_database

EXPR = "$.getSummaryObject('ClassBird1').getLabelValue('Disease')"


@pytest.fixture(scope="module")
def db():
    return build_database(WorkloadConfig(
        num_birds=80, annotations_per_tuple=40, indexes="summary_btree",
        cell_fraction=0.0, seed=4,
    ))


def chosen_access(db, query) -> str:
    plan = db.explain(query).physical
    for line in reversed(plan.splitlines()):
        line = line.strip()
        if "Scan" in line:
            return line.split("(")[0]
    return "?"


class TestSelectivityCrossover:
    def test_selective_predicate_uses_index(self, db):
        # An equality on a rare count: few rows -> index probes win.
        constant = equality_constant(db, "Disease", 0.02)
        access = chosen_access(
            db, f"Select * From birds r Where r.{EXPR} = {constant}"
        )
        assert access == "SummaryIndexScan"

    def test_unselective_predicate_scans(self, db):
        # >= 0 selects everything: a sequential scan must win.
        access = chosen_access(
            db, f"Select * From birds r Where r.{EXPR} >= 0"
        )
        assert access == "SeqScan"

    def test_cost_monotone_in_selectivity(self, db):
        dist = label_distribution(db, "birds", "Disease")
        hi = max(dist)
        narrow = db.explain(
            f"Select * From birds r Where r.{EXPR} = {hi}"
        ).estimated_cost
        wide = db.explain(
            f"Select * From birds r Where r.{EXPR} >= 0"
        ).estimated_cost
        assert narrow < wide


class TestForceAccess:
    def test_force_index_overrides_cost(self, db):
        query = f"Select * From birds r Where r.{EXPR} >= 0"
        db.options.force_access = "index"
        try:
            access = chosen_access(db, query)
        finally:
            db.options.force_access = None
        assert access == "SummaryIndexScan"

    def test_force_index_noop_without_matching_index(self, db):
        query = "Select * From birds r Where family = 'Anatidae'"
        db.options.force_access = "index"
        db.options.enable_data_indexes = False
        try:
            access = chosen_access(db, query)
        finally:
            db.options.force_access = None
            db.options.enable_data_indexes = True
        assert access == "SeqScan"  # nothing to force onto


class TestMergeWidthCosting:
    def test_no_propagation_costs_less(self, db):
        query = (
            "Select r.common_name, s.synonym From birds r, synonyms s "
            "Where r.oid = s.bird_id"
        )
        with_prop = db.explain(query).estimated_cost
        db.options.propagate = False
        try:
            without = db.explain(query).estimated_cost
        finally:
            db.options.propagate = True
        assert without < with_prop

    def test_summary_width_from_statistics(self, db):
        stats = db.statistics.table_stats("birds")
        width = sum(i.avg_object_size for i in stats.instances.values())
        assert width > 0


class TestJoinAlgorithmChoice:
    def test_index_join_chosen_for_selective_outer(self, db):
        # One bird joined to its synonyms: probing the synonyms index per
        # outer row beats materializing all synonyms.
        constant = equality_constant(db, "Disease", 0.02)
        report = db.explain(
            "Select r.common_name, s.synonym From birds r, synonyms s "
            f"Where r.oid = s.bird_id And r.{EXPR} = {constant}"
        )
        assert "IndexNestedLoopJoin" in report.physical \
            or "NestedLoopJoin" in report.physical  # algorithm considered
        # the plan must at least have pushed the summary selection down
        physical = report.physical
        assert physical.index("Join") < physical.index("Scan")

    def test_forced_nloop_respected(self, db):
        query = (
            "Select r.common_name, s.synonym From birds r, synonyms s "
            "Where r.oid = s.bird_id"
        )
        db.options.force_join = "nloop"
        try:
            physical = db.explain(query).physical
        finally:
            db.options.force_join = None
        assert "NestedLoopJoin" in physical
        assert "IndexNestedLoopJoin" not in physical


class TestEstimatedVsActual:
    def test_estimated_rows_order_sane(self, db):
        """Cardinality estimates need not be exact, but a narrow equality
        must estimate fewer rows than the full table."""
        constant = equality_constant(db, "Disease", 0.02)
        narrow = db.sql(
            f"Select common_name From birds r Where r.{EXPR} = {constant}"
        )
        everything = db.sql("Select common_name From birds")
        assert len(narrow) < len(everything)
        assert len(everything) == 80


class TestDegenerateHistograms:
    """Single-value and non-finite inputs used to produce nonsense
    selectivities (a [v, v] range over a one-value column estimated 0.0;
    one NaN poisoned every bucket boundary)."""

    def _single(self):
        from repro.optimizer.statistics import Histogram

        return Histogram.build([7.0] * 50)

    def test_single_value_equality_is_exact(self):
        hist = self._single()
        assert hist.selectivity_eq(7.0, ndistinct=1) == 1.0
        assert hist.selectivity_eq(6.0, ndistinct=1) == 0.0
        assert hist.selectivity_eq(8.0, ndistinct=1) == 0.0

    def test_single_value_range_is_exact(self):
        hist = self._single()
        assert hist.selectivity_range(7.0, 7.0) == 1.0
        assert hist.selectivity_range(6.5, 7.5) == 1.0
        assert hist.selectivity_range(None, None) == 1.0
        assert hist.selectivity_range(7.1, 9.0) == 0.0
        assert hist.selectivity_range(0.0, 6.9) == 0.0

    def test_non_finite_values_are_dropped(self):
        from repro.optimizer.statistics import Histogram

        hist = Histogram.build([1.0, 2.0, 3.0, float("nan"),
                                float("inf"), float("-inf")])
        # Boundaries come from the finite values only.
        assert (hist.lo, hist.hi) == (1.0, 3.0)
        assert hist.total == 3
        assert hist.selectivity_range(1.0, 3.0) == pytest.approx(1.0)

    def test_all_non_finite_yields_empty_histogram(self):
        from repro.optimizer.statistics import Histogram

        hist = Histogram.build([float("nan"), float("inf")])
        assert hist.total == 0
        assert hist.selectivity_eq(1.0, ndistinct=1) == 0.0
        assert hist.selectivity_range(None, None) == 0.0


class TestConventionalPointerCharges:
    """A conventional-pointer hit reads the summary row on its way to the
    data tuple (Figure 13): the summaries arrive with the hit, and every
    probe of the index prices that read once."""

    @pytest.fixture(scope="class")
    def conventional(self):
        db = build_database(WorkloadConfig(
            num_birds=40, annotations_per_tuple=10, indexes="none",
            cell_fraction=0.0, seed=4,
        ))
        db.create_summary_index("birds", "ClassBird1",
                                backward_pointers=False)
        db.analyze("birds")
        db.options.force_access = "index"
        return db

    def test_predicate_and_order_probes_charge_the_same_per_match(
        self, conventional
    ):
        # ">= 0" hits every row, like the full-range order-only scan.
        predicate = conventional.explain(
            f"Select * From birds r Where r.{EXPR} >= 0 Order By r.{EXPR}"
        )
        order_only = conventional.explain(
            f"Select * From birds r Order By r.{EXPR}"
        )
        assert "in [0, None] ASC" in predicate.physical
        assert "in [None, None] ASC" in order_only.physical
        assert predicate.estimated_cost == order_only.estimated_cost
