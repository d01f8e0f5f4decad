"""Randomized plan-equivalence fuzzing: hypothesis generates summary
predicates (and sort/limit decorations) and every access-path/optimizer
mode must return identical results.  This is the adversarial version of
test_plan_equivalence's hand-picked cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.generator import WorkloadConfig, build_database

LABELS = ["Disease", "Anatomy", "Behavior", "Other"]
OPS = ["=", "<", "<=", ">", ">="]
EXPR = "$.getSummaryObject('ClassBird1').getLabelValue"


@pytest.fixture(scope="module")
def db():
    database = build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=20, indexes="both",
        cell_fraction=0.0, seed=6,
    ))
    database.create_normalized_replicas("birds")
    return database


predicates = st.lists(
    st.tuples(
        st.sampled_from(LABELS),
        st.sampled_from(OPS),
        st.integers(0, 15),
    ),
    min_size=1,
    max_size=3,
)


def build_query(preds, order_label, descending, limit):
    where = " And ".join(
        f"r.{EXPR}('{label}') {op} {constant}"
        for label, op, constant in preds
    )
    sql = f"Select common_name From birds r Where {where}"
    if order_label is not None:
        direction = "Desc" if descending else ""
        sql += f" Order By r.{EXPR}('{order_label}') {direction}"
        sql += ", common_name"  # tiebreak so orders are deterministic
    if limit is not None and order_label is not None:
        sql += f" Limit {limit}"
    return sql


def run_mode(db, sql, scheme, force, rules):
    db.options.index_scheme = scheme
    db.options.force_access = force
    db.options.enable_rules = rules
    try:
        result = db.sql(sql)
        return [t.get("common_name") for t in result.tuples]
    finally:
        db.options.index_scheme = "summary_btree"
        db.options.force_access = None
        db.options.enable_rules = True


class TestFuzzedEquivalence:
    @given(preds=predicates)
    @settings(max_examples=max(30, settings.default.max_examples),
              deadline=None)
    def test_selection_modes_agree(self, db, preds):
        sql = build_query(preds, None, False, None)
        reference = sorted(run_mode(db, sql, "none", None, True))
        for scheme, force in [
            ("summary_btree", "index"),
            ("baseline", "index"),
            ("summary_btree", None),
        ]:
            assert sorted(run_mode(db, sql, scheme, force, True)) \
                == reference, (sql, scheme, force)

    @given(preds=predicates)
    @settings(max_examples=max(15, settings.default.max_examples),
              deadline=None)
    def test_rules_off_agrees(self, db, preds):
        sql = build_query(preds, None, False, None)
        on = sorted(run_mode(db, sql, "summary_btree", None, True))
        off = sorted(run_mode(db, sql, "summary_btree", None, False))
        assert on == off

    @given(
        preds=predicates,
        order_label=st.sampled_from(LABELS),
        descending=st.booleans(),
        limit=st.one_of(st.none(), st.integers(1, 10)),
    )
    @settings(max_examples=max(25, settings.default.max_examples),
              deadline=None)
    def test_ordered_modes_agree(self, db, preds, order_label, descending,
                                 limit):
        sql = build_query(preds, order_label, descending, limit)
        reference = run_mode(db, sql, "none", None, True)
        via_index = run_mode(db, sql, "summary_btree", "index", True)
        assert via_index == reference, sql
