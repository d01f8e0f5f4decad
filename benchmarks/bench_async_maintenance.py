"""Bench — foreground ingest cost of synchronous vs deferred maintenance.

§7 frames summary maintenance cost as the price of first-class summaries;
``REPRO_SUMMARY_ASYNC=deferred`` moves that price off the write path: the
annotation statement only appends the raw annotation and marks the target
tuples stale, while regeneration happens in maintenance batches.  This
bench measures the sustained ingest rate of each mode over an identical
annotation stream (two classifiers + a snippet extractor linked, so the
synchronous path does real per-write work), then drains the deferred
engine and asserts it converged to the synchronous engine's exact
summary state.

Asserted: deferred ingest sustains at least 2x the synchronous rate at
default scale (the quick CI smoke preset only requires it not to lose).
"""

import random

import pytest

from repro.bench import FigureTable, Measurement
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.storage.record import ValueType

SEED_EXAMPLES = [
    ("flu virus infection outbreak", "Disease"),
    ("survey checklist volunteer count", "Other"),
]
TEXTS = [
    "flu virus outbreak reported near the wetland survey site",
    "infection spreading among the flock, flu virus suspected",
    "volunteer checklist survey count for the morning watch",
    "routine survey checklist submitted by the volunteer team",
    "a long free-form field note that rambles on about habitat and "
    "weather conditions until it is comfortably past the snippet "
    "extractor's minimum length threshold for this configuration",
]

#: density -> mode -> annotations ingested per second (cross-test state:
#: the deferred test asserts against the sync test's rate).
_RATES: dict[int, dict[str, float]] = {}
#: density -> mode -> canonical summary-storage state after full drain.
_STATES: dict[int, dict[str, dict]] = {}


def _build(deferred: bool, num_rows: int) -> Database:
    db = Database(buffer_pages=512, summary_async=deferred)
    db.create_table("notes", [Column("name", ValueType.TEXT)])
    db.create_classifier_instance("C1", ["Disease", "Other"], SEED_EXAMPLES)
    db.create_classifier_instance("C2", ["Disease", "Other"], SEED_EXAMPLES)
    db.create_snippet_instance("S", min_chars=120, max_chars=60)
    db.create_cluster_instance("G")
    for instance in ("C1", "C2", "S", "G"):
        db.manager.link("notes", instance)
    for i in range(num_rows):
        db.insert("notes", {"name": f"r{i}"})
    return db


def _stream(num_rows: int, density: int) -> list[tuple[int, str]]:
    rng = random.Random(1109)
    return [
        (rng.randrange(1, num_rows + 1), rng.choice(TEXTS))
        for _ in range(num_rows * density)
    ]


def _canonical(db: Database) -> dict:
    state = {}
    for oid, objects in db.manager.storage_for("notes").scan():
        row = {}
        for name, obj in sorted(objects.items()):
            d = obj.to_dict()
            d.pop("obj_id", None)
            row[name] = d
        state[oid] = row
    return state


@pytest.mark.benchmark(group="async-maintenance")
@pytest.mark.parametrize("mode", ["sync", "deferred"])
@pytest.mark.parametrize("density", [10, 50])
def test_ingest_throughput(benchmark, mode, density, preset, figure_writer):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    num_rows = max(preset.num_birds // 2, 20)
    stream = _stream(num_rows, density)

    db = _build(mode == "deferred", num_rows)
    if mode == "deferred":
        # Measure the pure foreground admission cost; the drain runs (and
        # is timed) below instead of racing the ingest loop for the GIL.
        db.manager.maint_wake = None

    def ingest():
        for oid, text in stream:
            db.add_annotation(text, table="notes", oid=oid)
        return stream

    before = db.disk.stats.snapshot()
    benchmark.pedantic(ingest, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.min
    m = Measurement(seconds, db.disk.stats.delta(before), len(stream))

    drain = Measurement(0.0, db.disk.stats.delta(db.disk.stats.snapshot()))
    if mode == "deferred":
        lag = db.manager.pending_lag_seconds()
        drain_before = db.disk.stats.snapshot()
        drained, drain_seconds = _timed_drain(db)
        drain = Measurement(drain_seconds, db.disk.stats.delta(drain_before),
                            drained)
        assert not db.manager.has_pending()
        db.stop_maintenance()
        figure_writer.setdefault(
            "async_maintenance_lag",
            FigureTable("Deferred maintenance — staleness lag and drain "
                        "cost after ingest", unit="s"),
        ).add("oldest-lag", f"d={density}", lag)
        figure_writer["async_maintenance_lag"].add(
            "full-drain", f"d={density}", drain.seconds
        )

    _STATES.setdefault(density, {})[mode] = _canonical(db)
    rate = len(stream) / max(m.seconds, 1e-9)
    _RATES.setdefault(density, {})[mode] = rate

    table = figure_writer.setdefault(
        "async_maintenance_ingest",
        FigureTable("Sustained annotation ingest — synchronous vs deferred "
                    "summary maintenance", unit="annotations/s"),
    )
    table.add(mode, f"d={density}", rate)

    rates = _RATES[density]
    if len(rates) == 2:
        speedup = rates["deferred"] / rates["sync"]
        table.note(f"d={density}: deferred ingests {speedup:.1f}x faster "
                   f"than sync (foreground admission only)")
        floor = 2.0 if preset.name != "quick" else 1.0
        assert speedup >= floor, (
            f"deferred ingest only {speedup:.2f}x sync at density "
            f"{density} (need >= {floor}x at preset {preset.name})"
        )
        # Convergence: after the drain the deferred engine's summary
        # storage is byte-identical (modulo obj_id) to the sync engine's.
        assert _STATES[density]["deferred"] == _STATES[density]["sync"], (
            "deferred maintenance did not converge to the sync state"
        )


def _timed_drain(db: Database) -> tuple[int, float]:
    import time

    started = time.perf_counter()
    drained = db.drain_summaries()
    return drained, time.perf_counter() - started
