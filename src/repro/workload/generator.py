"""Deterministic workload construction.

:func:`build_database` assembles a complete annotated database matching the
paper's experimental setup (§6):

* a **Birds** table with 12 attributes (scientific name, ids across
  systems, description, genus, family, habitat, …),
* a **Synonyms** table in a many-to-one relationship with Birds,
* a Classifier instance **ClassBird1** with labels
  {Disease, Anatomy, Behavior, Other} and a Snippet instance
  **TextSummary1** summarizing long annotations, and
* seeded category-structured annotations at a configurable density
  (the paper sweeps 10→200 annotations per tuple).

Scales are laptop-sized but keep the paper's *ratios* (annotation density,
selectivities, long-annotation fraction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.optimizer.planner import PlannerOptions
from repro.storage.record import ValueType
from repro.workload.vocab import (
    CATEGORIES,
    CLASS_LABELS,
    EPITHETS,
    FAMILIES,
    FILLER_WORDS,
    GENERA,
    HABITATS,
    REGIONS,
    SEED_EXAMPLES,
)

BIRDS_COLUMNS = [
    Column("scientific_name", ValueType.TEXT),
    Column("common_name", ValueType.TEXT),
    Column("ebird_id", ValueType.TEXT),
    Column("aou_id", ValueType.INT),
    Column("description", ValueType.TEXT),
    Column("genus", ValueType.TEXT),
    Column("family", ValueType.TEXT),
    Column("habitat", ValueType.TEXT),
    Column("region", ValueType.TEXT),
    Column("wingspan_cm", ValueType.FLOAT),
    Column("weight_g", ValueType.FLOAT),
    Column("conservation", ValueType.TEXT),
]

SYNONYMS_COLUMNS = [
    Column("bird_id", ValueType.INT),
    Column("synonym", ValueType.TEXT),
    Column("source", ValueType.TEXT),
]


@dataclass
class WorkloadConfig:
    """Knobs for one generated database."""

    num_birds: int = 200
    annotations_per_tuple: int = 25
    synonyms_per_bird: int = 3
    seed: int = 42
    #: fraction of annotations long enough to earn a snippet
    long_fraction: float = 0.12
    snippet_min_chars: int = 240
    snippet_max_chars: int = 120
    #: category mixture (weights over CLASS_LABELS)
    category_weights: tuple[float, ...] = (0.2, 0.25, 0.3, 0.25)
    #: fraction of annotations attached to a single cell (column) instead of
    #: the whole row.  Cell-level annotations make projection-time
    #: elimination count-changing, which disables summary-index access paths
    #: for column-subset projections (see the planner's side condition) —
    #: the paper's query benchmarks therefore run with 0.0.
    cell_fraction: float = 0.25
    #: index construction: "summary_btree" | "baseline" | "both" | "none"
    indexes: str = "summary_btree"
    backward_pointers: bool = True
    with_cluster_instance: bool = False
    buffer_pages: int = 8192
    planner_options: PlannerOptions | None = None
    #: index the Synonyms bird_id column (used by join benchmarks)
    synonym_join_index: bool = True


def generate_annotation(
    rng: random.Random,
    category: str,
    long_form: bool = False,
    min_chars: int = 0,
) -> str:
    """One synthetic annotation: sentences mixing the category's keywords
    with filler, optionally long enough to earn a snippet."""
    keywords = CATEGORIES[category]
    sentences = []
    target = max(min_chars, 260 if long_form else rng.randint(60, 160))
    total = 0
    while total < target:
        words = []
        for _ in range(rng.randint(6, 12)):
            pool = keywords if rng.random() < 0.45 else FILLER_WORDS
            words.append(rng.choice(pool))
        sentence = " ".join(words).capitalize() + "."
        sentences.append(sentence)
        total += len(sentence) + 1
    return " ".join(sentences)


def _bird_row(rng: random.Random, i: int) -> dict[str, object]:
    genus = GENERA[i % len(GENERA)]
    epithet = EPITHETS[(i * 7) % len(EPITHETS)]
    return {
        "scientific_name": f"{genus} {epithet} {i}",
        "common_name": f"{genus}-bird {i}",
        "ebird_id": f"EB{i:06d}",
        "aou_id": 10000 + i,
        "description": generate_annotation(rng, "Other")[:120],
        "genus": genus,
        "family": FAMILIES[i % len(FAMILIES)],
        "habitat": rng.choice(HABITATS),
        "region": rng.choice(REGIONS),
        "wingspan_cm": round(rng.uniform(15.0, 250.0), 1),
        "weight_g": round(rng.uniform(10.0, 12000.0), 1),
        "conservation": rng.choice(["LC", "NT", "VU", "EN"]),
    }


def build_database(config: WorkloadConfig | None = None) -> Database:
    """Generate a fully loaded, summarized, and (optionally) indexed
    database."""
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)
    db = Database(buffer_pages=config.buffer_pages,
                  options=config.planner_options)

    db.create_table("birds", BIRDS_COLUMNS)
    db.create_table("synonyms", SYNONYMS_COLUMNS)
    if config.synonym_join_index:
        db.create_index("synonyms", "bird_id")

    db.create_classifier_instance("ClassBird1", CLASS_LABELS, SEED_EXAMPLES)
    db.create_snippet_instance(
        "TextSummary1",
        min_chars=config.snippet_min_chars,
        max_chars=config.snippet_max_chars,
    )
    db.manager.link("birds", "ClassBird1")
    db.manager.link("birds", "TextSummary1")
    if config.with_cluster_instance:
        db.create_cluster_instance("SimCluster")
        db.manager.link("birds", "SimCluster")

    for i in range(config.num_birds):
        oid = db.insert("birds", _bird_row(rng, i))
        for s in range(config.synonyms_per_bird):
            db.insert(
                "synonyms",
                {
                    "bird_id": oid,
                    "synonym": f"syn-{i}-{s}",
                    "source": rng.choice(["AKN", "DBRC", "legacy"]),
                },
            )
        annotate_bird(db, rng, oid, config)

    if config.indexes in ("summary_btree", "both"):
        db.create_summary_index(
            "birds", "ClassBird1", backward_pointers=config.backward_pointers
        )
    if config.indexes in ("baseline", "both"):
        db.create_baseline_index("birds", "ClassBird1")
    db.analyze("birds")
    db.analyze("synonyms")
    return db


def annotation_batch(
    rng: random.Random, oid: int, config: WorkloadConfig, count: int,
    table: str = "birds",
) -> list[tuple[str, list]]:
    """``count`` synthetic (text, targets) pairs for one tuple."""
    from repro.annotations.annotation import AnnotationTarget

    labels = list(CATEGORIES)
    batch: list[tuple[str, list]] = []
    for _ in range(count):
        category = rng.choices(labels, weights=config.category_weights)[0]
        long_form = rng.random() < config.long_fraction
        text = generate_annotation(
            rng, category, long_form,
            min_chars=config.snippet_min_chars + 20 if long_form else 0,
        )
        columns: tuple[str, ...] = ()
        if rng.random() < config.cell_fraction:
            columns = (rng.choice([c.name for c in BIRDS_COLUMNS]),)
        batch.append((text, [AnnotationTarget(table, oid, columns)]))
    return batch


def annotate_bird(
    db: Database, rng: random.Random, oid: int, config: WorkloadConfig,
    count: int | None = None,
) -> None:
    """Attach ``count`` (default: the configured density) annotations in
    bulk-load mode."""
    n = config.annotations_per_tuple if count is None else count
    db.add_annotations_bulk(annotation_batch(rng, oid, config, n))
