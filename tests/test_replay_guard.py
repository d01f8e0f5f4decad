"""A counted guard on run-batched redo, without timing.

Runs the served benchmark's ``annotate_ingest`` statement list in process
against a WAL on a small database built from the same workload
configuration, then recovers the saved image plus the log.  The log is
one run of annotation records (transaction framing does not end a run),
so recovery must replay every record and write each touched summary row
exactly once.  A regression to one row write per record fails here
deterministically."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.workloads import WORKLOADS, Scale, statements  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.wal.device import MemoryWALDevice  # noqa: E402
from repro.wal.record import WALRecordType, scan_records  # noqa: E402
from repro.workload import build_database  # noqa: E402

SCALE = Scale(num_birds=40, annotations_per_tuple=6)
WRITES = "maint.on_objects_write"


def test_recovery_writes_each_touched_tuple_once(tmp_path):
    workload = WORKLOADS["annotate_ingest"]
    image = tmp_path / "image.db"
    build_database(workload.config(SCALE)).save(image)
    db = Database.load(image)
    db.attach_wal()
    for stmt in statements(workload, seed=1, scale=SCALE):
        db.sql(stmt.sql)
    log = db.wal.device.durable()
    records = scan_records(log, 0).records
    assert {r.type for r in records} == {
        WALRecordType.ANN_ADD, WALRecordType.TXN_BEGIN,
        WALRecordType.TXN_COMMIT,
    }
    touched = {
        (target.table.lower(), target.oid)
        for r in records if r.type == WALRecordType.ANN_ADD
        for target in r.payload["targets"]
    }
    before = Database.load(image).metrics.get(WRITES)
    recovered, report = Database.recover(
        image, MemoryWALDevice.from_durable(log, 0)
    )
    assert report.replayed == len(records)
    assert recovered.metrics.get(WRITES) - before == len(touched)
    assert report.summary_rows_written == len(touched)
    assert len(touched) < sum(
        r.type == WALRecordType.ANN_ADD for r in records
    )
    assert recovered.check_integrity().ok
