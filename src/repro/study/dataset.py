"""The usability-study database (§1.1 and §6 of the paper).

Both case studies run over "a small subset of 100 data tuples from the AKN
ornithological database, each has a number of raw annotations ranging
between 75 to 380".  :func:`build_study_database` regenerates that shape
deterministically:

* exactly :data:`SWAN_COUNT` birds whose name matches ``Swan*`` (Q1 of
  Figure 2 reports 5 qualifying tuples),
* families arranged so Q2's aggregation has a small number of qualifying
  groups, and
* per-tuple annotation densities drawn uniformly from the paper's 75–380
  range, scaled by ``scale`` so tests stay fast while benchmarks can run
  the full density.

A second "revision" table (``birds_v2``) backs Figure 16's Q2 — the same
birds re-annotated so a handful of tuples differ in their disease counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.storage.record import ValueType
from repro.workload.generator import WorkloadConfig, annotation_batch
from repro.workload.vocab import CLASS_LABELS, FAMILIES, SEED_EXAMPLES

#: Birds whose common name starts with "Swan" — Q1's qualifying set.
SWAN_COUNT = 5

#: Families whose members carry behavior-heavy annotations — Q2's groups.
BEHAVIOR_FAMILIES = ("Anatidae", "Accipitridae", "Corvidae")

#: Tuples in the second revision that gain extra disease annotations —
#: Figure 16 Q2's qualifying set.
REVISED_COUNT = 5

STUDY_COLUMNS = [
    Column("bird_id", ValueType.INT),
    Column("name", ValueType.TEXT),
    Column("family", ValueType.TEXT),
    Column("region", ValueType.TEXT),
]


@dataclass
class StudyConfig:
    """Shape of the generated study database."""

    num_birds: int = 100
    #: multiplier on the paper's 75–380 annotations-per-tuple range.
    scale: float = 0.1
    seed: int = 7
    min_annotations: int = 75
    max_annotations: int = 380

    def density(self, rng: random.Random) -> int:
        """Annotations for one tuple: paper range × scale (at least 3)."""
        raw = rng.randint(self.min_annotations, self.max_annotations)
        return max(3, round(raw * self.scale))


def _bird_name(i: int) -> str:
    if i < SWAN_COUNT:
        return f"Swan {['Goose', 'Mute', 'Trumpeter', 'Tundra', 'Black'][i]}"
    return f"Bird {i:03d}"


def build_study_database(config: StudyConfig | None = None) -> Database:
    """Generate the two-revision study database with summaries linked."""
    config = config or StudyConfig()
    rng = random.Random(config.seed)
    db = Database()

    db.create_classifier_instance("ClassBird1", CLASS_LABELS, SEED_EXAMPLES)
    db.create_snippet_instance("TextSummary1", min_chars=240, max_chars=120)

    for table in ("birds", "birds_v2"):
        db.create_table(table, STUDY_COLUMNS)
        db.manager.link(table, "ClassBird1")
        db.manager.link(table, "TextSummary1")

    # Tuple-level annotations only: AKN-style field notes describe the
    # whole record, and the revision-join queries compare stored counts —
    # cell-level targeting would make projection elimination asymmetric
    # across the two sides of the join (see DESIGN.md on semantics).
    wl = WorkloadConfig(seed=config.seed, cell_fraction=0.0)
    densities = [config.density(rng) for _ in range(config.num_birds)]
    for i in range(config.num_birds):
        family = (
            BEHAVIOR_FAMILIES[i % len(BEHAVIOR_FAMILIES)]
            if i % 4 == 0
            else FAMILIES[i % len(FAMILIES)]
        )
        row = {
            "bird_id": i,
            "name": _bird_name(i),
            "family": family,
            "region": rng.choice(["NA", "EU", "AS", "SA"]),
        }
        for table in ("birds", "birds_v2"):
            oid = db.insert(table, row)
            db.add_annotations_bulk(
                annotation_batch(
                    random.Random(config.seed * 1000 + i),
                    oid,
                    wl,
                    densities[i],
                    table=table,
                )
            )
            # The second revision gains new disease reports on a few birds,
            # so Figure 16 Q2's summary-join finds REVISED_COUNT differences.
            if table == "birds_v2" and i < REVISED_COUNT:
                db.add_annotation(
                    "new avian influenza infection outbreak reported with "
                    "high mortality and visible lesion symptoms",
                    table=table,
                    oid=oid,
                )

    db.create_summary_index("birds", "ClassBird1")
    db.analyze("birds")
    db.analyze("birds_v2")
    return db
