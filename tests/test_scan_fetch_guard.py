"""A counted guard on the per-batch summary fetch, without timing.

Runs the served benchmark's ``read_scan`` statement list in process on a
small database built from the same workload configuration, and counts
summary-cache calls per statement.  A scan batch resolves its rows'
summary sets with one :meth:`SummaryCache.lookup_many` pass, so a
SELECT makes no single-key :meth:`SummaryCache.lookup` and at most one
cache pass per batch its plan builds.  The cache and buffer-pool totals
of the whole list are pinned: they are the numbers one lookup per row
gave, so batching changes neither what is read nor what hits.  A
regression to one lookup per row fails here deterministically."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.workloads import WORKLOADS, Scale, statements  # noqa: E402
from repro.cache.summary_cache import SummaryCache  # noqa: E402
from repro.query.batch import Batch  # noqa: E402
from repro.workload import build_database  # noqa: E402

SCALE = Scale(num_birds=40, annotations_per_tuple=6)
#: (cache hits, cache misses, pool page accesses) over the whole list,
#: as one summary-cache lookup per row counted them.
PINNED = (1782, 357, 936)


def counting(monkeypatch, cls, name: str, counts: Counter):
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        counts[name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def test_scan_selects_fetch_summaries_once_per_batch(monkeypatch):
    workload = WORKLOADS["read_scan"]
    db = build_database(workload.config(SCALE))
    cache, pool = db.manager.cache, db.pool
    before = (cache.hits, cache.misses, pool.hits + pool.misses)
    counts: Counter = Counter()
    counting(monkeypatch, SummaryCache, "lookup", counts)
    counting(monkeypatch, SummaryCache, "lookup_many", counts)
    counting(monkeypatch, Batch, "__init__", counts)
    passes: Counter = Counter()
    rows = 0
    for stmt in statements(workload, seed=1, scale=SCALE):
        counts.clear()
        rows += len(db.sql(stmt.sql))
        assert counts["lookup"] == 0, stmt.sql
        assert counts["lookup_many"] <= counts["__init__"], stmt.sql
        passes[stmt.cls] += counts["lookup_many"]
    assert set(passes) == {"range", "two_pred", "propagate"}
    # One lookup per row would make more cache calls than rows returned.
    assert 0 < sum(passes.values()) < rows
    after = (cache.hits, cache.misses, pool.hits + pool.misses)
    assert tuple(b - a for a, b in zip(before, after)) == PINNED
