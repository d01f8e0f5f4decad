"""A counted guard on the statement cache, without timing.

Replays the served benchmark's read lists in process on a small database
built from the same workload configuration.  A plan stays cached while
the published statistics it priced with hold (DESIGN.md §5n), so over a
replay the plan cache must miss exactly once per distinct SELECT, plus
once per statement a republish re-planned — and invalidate nothing.  A
regression that re-plans on writes or on cache warm-up fails here
deterministically."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.workloads import WORKLOADS, Scale, statements  # noqa: E402
from repro.query.ast import SelectStmt  # noqa: E402
from repro.query.parser import parse_sql  # noqa: E402
from repro.workload import build_database  # noqa: E402

SCALE = Scale(num_birds=40, annotations_per_tuple=6)


@pytest.mark.parametrize("name", ["read_indexed", "read_scan",
                                  "read_write_mix"])
def test_replay_misses_once_per_distinct_select(name):
    workload = WORKLOADS[name]
    db = build_database(workload.config(SCALE))
    stmts = statements(workload, seed=1, scale=SCALE)
    selects = {stmt for stmt in map(parse_sql, (s.sql for s in stmts))
               if isinstance(stmt, SelectStmt)}
    tables = {ref.name.lower() for stmt in selects for ref in stmt.tables}
    db.reset_metrics()
    for stmt in stmts:
        db.sql(stmt.sql)
    snap = db.metrics_snapshot()
    # The first publish of each table is part of its first plan; only a
    # publish after that re-plans anything.
    republishes = snap["optimizer.stats.publishes"] - len(tables)
    assert snap["optimizer.plan_cache.invalidations"] == 0
    assert snap["optimizer.plan_cache.misses"] == len(selects) + republishes
    assert snap["optimizer.plan_cache.hits"] == (
        sum(isinstance(parse_sql(s.sql), SelectStmt) for s in stmts)
        - len(selects) - republishes
    )
    if workload.writes:
        assert any(s.cls == "annotate" for s in stmts)
