"""Hypothesis stateful test: random DML + annotation churn vs a dict oracle.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` interleaves row
inserts/updates/deletes with annotation adds/deletes against a small-pool
database (so eviction and checksum write-back paths run constantly), and
checks after every step that

* ``db.sql`` returns exactly the oracle's rows (plain and summary-predicate
  queries, through whatever plan the optimizer picks), and
* ``Database.check_integrity()`` holds — heap accounting, checksums,
  B-Tree invariants, Summary-BTree backward pointers, the lot — and
* the optimizer statistics, kept current by accumulator deltas, equal a
  from-scratch ``analyze``.

Example counts honour the conftest Hypothesis profile; the scheduled CI job
raises them via ``HYPOTHESIS_PROFILE=ci-slow`` and the env knobs below.
"""

from __future__ import annotations

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.catalog.schema import Column  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.optimizer.statistics import StatisticsCatalog  # noqa: E402
from repro.storage.record import ValueType  # noqa: E402

LABELS = ["alpha", "beta", "gamma"]
SEED_EXAMPLES = [
    ("apple alpha fruit orchard", "alpha"),
    ("bear beta animal forest", "beta"),
    ("gravel gamma rock quarry", "gamma"),
]
#: Annotation corpus: texts the seeded classifier labels deterministically.
TEXTS = [
    "apple alpha fruit",
    "orchard apple fruit alpha",
    "bear beta forest",
    "animal bear beta",
    "gravel gamma quarry",
    "rock gravel gamma",
]


class DMLMachine(RuleBasedStateMachine):
    #: extra ``Database`` arguments of a subclass's engine variant.
    db_options: dict = {}

    def __init__(self):
        super().__init__()
        self.db = Database(buffer_pages=32, **self.db_options)
        self.db.create_table(
            "t", [Column("name", ValueType.TEXT), Column("v", ValueType.INT)]
        )
        self.db.create_index("t", "v")
        self.db.create_classifier_instance("C", LABELS, SEED_EXAMPLES)
        self.db.sql("Alter Table t Add Indexable C")
        self.instance = self.db.manager.instance("C")
        self.rows: dict[int, tuple[str, int]] = {}  # oid -> (name, v)
        self.anns: dict[int, tuple[int, str]] = {}  # ann_id -> (oid, label)
        self.summarized: set[int] = set()  # oids owning a summary row
        self.counter = 0
        self.steps = 0

    # -- helpers -------------------------------------------------------------

    def _pick(self, pool, index: int):
        keys = sorted(pool)
        return keys[index % len(keys)] if keys else None

    def _label_counts(self, oid: int) -> dict[str, int]:
        counts = dict.fromkeys(LABELS, 0)
        for ann_oid, label in self.anns.values():
            if ann_oid == oid:
                counts[label] += 1
        return counts

    # -- rules ---------------------------------------------------------------

    @rule(v=st.integers(min_value=0, max_value=5))
    def insert_row(self, v):
        self.counter += 1
        name = f"r{self.counter}"
        oid = self.db.insert("t", [name, v])
        assert oid not in self.rows
        self.rows[oid] = (name, v)

    @rule(index=st.integers(min_value=0), v=st.integers(min_value=0, max_value=5))
    def update_row(self, index, v):
        oid = self._pick(self.rows, index)
        if oid is None:
            return
        self.db.catalog.table("t").update(oid, {"v": v})
        self.rows[oid] = (self.rows[oid][0], v)

    @rule(index=st.integers(min_value=0))
    def delete_row(self, index):
        oid = self._pick(self.rows, index)
        if oid is None:
            return
        self.db.delete_tuple("t", oid)
        del self.rows[oid]
        self.summarized.discard(oid)
        self.anns = {
            ann_id: (ann_oid, label)
            for ann_id, (ann_oid, label) in self.anns.items()
            if ann_oid != oid
        }

    @rule(index=st.integers(min_value=0),
          text=st.sampled_from(TEXTS))
    def add_annotation(self, index, text):
        oid = self._pick(self.rows, index)
        if oid is None:
            return
        # The oracle's label is whatever the (training-stable) classifier
        # says right now — the same call the maintenance path makes.
        label = self.instance.classify(text)
        ann = self.db.add_annotation(text, table="t", oid=oid)
        self.anns[ann.ann_id] = (oid, label)
        self.summarized.add(oid)

    @rule(index=st.integers(min_value=0))
    def delete_annotation(self, index):
        ann_id = self._pick(self.anns, index)
        if ann_id is None:
            return
        self.db.delete_annotation(ann_id)
        oid = self.anns.pop(ann_id)[0]
        if all(ann_oid != oid for ann_oid, _ in self.anns.values()):
            # Deleting a tuple's last annotation drops its storage row:
            # it summarizes like a never-annotated tuple from here on.
            self.summarized.discard(oid)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def sql_matches_oracle(self):
        result = self.db.sql("Select name, v From t")
        got = sorted(zip(result.column("name"), result.column("v")))
        assert got == sorted(self.rows.values())
        # Secondary-index path agrees with the oracle too.
        for v in {v for _, v in self.rows.values()}:
            via_index = self.db.sql(f"Select name From t Where v = {v}")
            expected = sorted(n for n, val in self.rows.values() if val == v)
            assert sorted(via_index.column("name")) == expected

    @invariant()
    def summary_queries_match_oracle(self):
        counts = {oid: self._label_counts(oid) for oid in self.summarized}
        for label in LABELS:
            for op, matcher in (
                ("> 0", lambda c: c > 0),
                ("= 0", lambda c: c == 0),
                ("= 1", lambda c: c == 1),
                ("= 2", lambda c: c == 2),
            ):
                result = self.db.sql(
                    "Select name From t r Where r.$.getSummaryObject('C')"
                    f".getLabelValue('{label}') {op}"
                )
                expected = sorted(
                    self.rows[oid][0]
                    for oid, c in counts.items()
                    if matcher(c[label])
                )
                assert sorted(result.column("name")) == expected, (
                    f"label {label} {op}"
                )

    @invariant()
    def storage_reads_match_oracle(self):
        """Summary sets read through the live path (and through the
        cache) agree with the oracle's label counts."""
        storage = self.db.manager.storage_for("t")
        for oid in self.summarized:
            expected = self._label_counts(oid)
            objects = storage.get(oid)
            got = dict.fromkeys(LABELS, 0)
            if objects and "C" in objects:
                got.update(dict(objects["C"].rep()))
            assert got == expected, f"summary set of oid {oid} is stale"

    @invariant()
    def statistics_match_fresh_analyze(self):
        """The incrementally maintained Figure 6 statistics equal a
        from-scratch fold by a catalog that never saw a delta."""
        fresh = StatisticsCatalog(self.db.catalog, self.db.manager)
        assert self.db.statistics.table_stats("t") == fresh.analyze("t")

    @invariant()
    def integrity_holds(self):
        # Full audit every few steps (it re-scans everything); always on
        # the final step via teardown below.
        self.steps += 1
        if self.steps % 5 == 0:
            report = self.db.check_integrity()
            assert report.ok, str(report)

    def teardown(self):
        report = self.db.check_integrity()
        assert report.ok, str(report)


class CachedDMLMachine(DMLMachine):
    """The same workload and oracle with a deliberately tiny summary
    cache, plus clear/resize churn rules: every invariant read now runs
    through lookup / observer-invalidate / LRU-evict paths, so a single
    stale entry surfaces as an oracle divergence."""

    def __init__(self):
        super().__init__()
        self.db.manager.cache.resize(8192)

    @rule()
    def clear_cache(self):
        self.db.manager.cache.clear()

    @rule(capacity=st.sampled_from([0, 2048, 8192, 1 << 16]))
    def resize_cache(self, capacity):
        # capacity 0 stores nothing for a while; a later resize starts
        # filling it again, cold.
        self.db.manager.cache.resize(capacity)

    @invariant()
    def cache_stays_bounded(self):
        cache = self.db.manager.cache
        assert cache.used_bytes <= max(cache.capacity_bytes, 0)


class DeferredDMLMachine(DMLMachine):
    """The same workload and oracle over deferred maintenance: every
    annotation write only marks its tuple stale, and each step converges
    through ``regenerate_tuple`` (Summary-BTree attached) before the
    invariants compare against the oracle."""

    db_options = {"summary_async": True}

    def check_invariants(self, *args, **kwargs):
        self.db.drain_summaries()
        super().check_invariants(*args, **kwargs)

    def teardown(self):
        self.db.stop_maintenance()
        super().teardown()


_SETTINGS = settings(
    max_examples=int(os.environ.get("REPRO_STATEFUL_EXAMPLES", "12")),
    stateful_step_count=int(os.environ.get("REPRO_STATEFUL_STEPS", "25")),
    deadline=None,
)

TestDMLMachine = DMLMachine.TestCase
TestDMLMachine.settings = _SETTINGS
TestCachedDMLMachine = CachedDMLMachine.TestCase
TestCachedDMLMachine.settings = _SETTINGS
TestDeferredDMLMachine = DeferredDMLMachine.TestCase
TestDeferredDMLMachine.settings = _SETTINGS
