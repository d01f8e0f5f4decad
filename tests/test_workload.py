"""Workload generator tests: determinism, density control, vocabulary
separability, and the category/snippet knobs the benchmarks rely on."""

import random

import pytest

from repro.workload.generator import (
    WorkloadConfig,
    annotation_batch,
    build_database,
    generate_annotation,
)
from repro.workload.vocab import CATEGORIES, CLASS_LABELS, SEED_EXAMPLES


class TestVocabulary:
    def test_every_label_has_a_category_pool(self):
        assert set(CLASS_LABELS) == set(CATEGORIES)

    def test_category_pools_are_disjoint_enough(self):
        # Pools may share a few generic words, but each pool must have a
        # majority of exclusive keywords for NB to separate them.
        for label, pool in CATEGORIES.items():
            others = {
                w for other, p in CATEGORIES.items() if other != label
                for w in p
            }
            exclusive = [w for w in pool if w not in others]
            assert len(exclusive) >= len(pool) * 0.8, label

    def test_seed_examples_cover_all_labels(self):
        assert {label for _, label in SEED_EXAMPLES} == set(CLASS_LABELS)


class TestGenerateAnnotation:
    def test_deterministic_for_same_seed(self):
        a = generate_annotation(random.Random(1), "Disease")
        b = generate_annotation(random.Random(1), "Disease")
        assert a == b

    def test_long_form_meets_min_chars(self):
        text = generate_annotation(random.Random(2), "Anatomy",
                                   long_form=True, min_chars=400)
        assert len(text) >= 400

    def test_contains_category_keywords(self):
        text = generate_annotation(random.Random(3), "Disease")
        assert any(kw in text.lower() for kw in CATEGORIES["Disease"])


class TestAnnotationBatch:
    def test_batch_size(self):
        config = WorkloadConfig()
        batch = annotation_batch(random.Random(4), 7, config, 12)
        assert len(batch) == 12

    def test_targets_point_at_requested_tuple(self):
        config = WorkloadConfig()
        batch = annotation_batch(random.Random(4), 7, config, 5,
                                 table="other")
        for _text, targets in batch:
            assert targets[0].table == "other"
            assert targets[0].oid == 7

    def test_cell_fraction_zero_means_row_level(self):
        config = WorkloadConfig(cell_fraction=0.0)
        batch = annotation_batch(random.Random(4), 1, config, 50)
        assert all(targets[0].columns == () for _t, targets in batch)

    def test_cell_fraction_one_means_cell_level(self):
        config = WorkloadConfig(cell_fraction=1.0)
        batch = annotation_batch(random.Random(4), 1, config, 20)
        assert all(len(targets[0].columns) == 1 for _t, targets in batch)


class TestBuildDatabase:
    @pytest.fixture(scope="class")
    def db(self):
        return build_database(WorkloadConfig(
            num_birds=12, annotations_per_tuple=8, synonyms_per_bird=2,
            seed=9, indexes="both",
        ))

    def test_row_counts(self, db):
        assert db.sql("Select count(*) n From birds").scalar() == 12
        assert db.sql("Select count(*) n From synonyms").scalar() == 24

    def test_annotation_total(self, db):
        assert len(db.manager.annotations) == 12 * 8

    def test_every_bird_summarized(self, db):
        storage = db.manager.storage_for("birds")
        assert len(storage) == 12

    def test_indexes_built(self, db):
        assert ("birds", "ClassBird1") in db.summary_indexes
        assert ("baseline", "birds", "ClassBird1") in db.derived

    def test_statistics_analyzed(self, db):
        stats = db.statistics.table_stats("birds")
        assert stats.row_count == 12
        assert "ClassBird1" in stats.instances

    def test_deterministic_rebuild(self):
        config = WorkloadConfig(num_birds=5, annotations_per_tuple=4, seed=21)
        a, b = build_database(config), build_database(config)
        rows_a = a.sql("Select * From birds Order By aou_id").rows
        rows_b = b.sql("Select * From birds Order By aou_id").rows
        assert rows_a == rows_b
        for oid in range(1, 6):  # OIDs start at 1
            sa = a.manager.summary_set_for("birds", oid).get_summary_object(
                "ClassBird1")
            sb = b.manager.summary_set_for("birds", oid).get_summary_object(
                "ClassBird1")
            assert sa.rep() == sb.rep()

    def test_cluster_instance_optional(self):
        db = build_database(WorkloadConfig(
            num_birds=3, annotations_per_tuple=5, with_cluster_instance=True,
            indexes="none",
        ))
        sset = db.manager.summary_set_for("birds", 1)  # OIDs start at 1
        assert sset.get_summary_object("SimCluster") is not None

    def test_no_indexes_mode(self):
        db = build_database(WorkloadConfig(
            num_birds=3, annotations_per_tuple=4, indexes="none",
        ))
        assert not db.derived
