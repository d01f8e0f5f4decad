"""A counted guard on the per-batch summary fetch, without timing.

Runs the served benchmark's ``read_scan`` statement list in process on a
small database built from the same workload configuration, and counts
summary-cache calls per statement.  A scan batch resolves its rows'
summary sets with one :meth:`SummaryCache.lookup_many` pass, so a
SELECT makes no single-key :meth:`SummaryCache.lookup` and at most one
cache pass per batch its plan builds.  The cache and buffer-pool totals
of the whole list are pinned: they are the numbers one lookup per row
gave, so batching changes neither what is read nor what hits.  A
regression to one lookup per row fails here deterministically.

Keyword search is counted the same way: a batch reads the raw texts of
its rows' snippet objects with at most one :meth:`EvalContext.raw_texts`
call, and a second pass over the list reads none and rebuilds no search
text — an object decoded from storage keeps the lowered text it built."""

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
from repro.query.eval import EvalContext  # noqa: E402
from repro.summaries.objects import SearchTexts  # noqa: E402
from repro.workload import build_database  # noqa: E402

SCALE = Scale(num_birds=40, annotations_per_tuple=6)
#: (cache hits, cache misses, pool page accesses) over the whole list,
#: as one summary-cache lookup per row counted them.  The page count was
#: 936 while keyword search read raw texts one row at a time; one read
#: per batch passes over the annotation index once for its dense rows.
PINNED = (1782, 357, 912)


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


def test_keyword_search_reads_raw_texts_once_per_batch(monkeypatch):
    workload = WORKLOADS["read_scan"]
    db = build_database(workload.config(SCALE))
    counts: Counter = Counter()
    counting(monkeypatch, EvalContext, "raw_texts", counts)
    counting(monkeypatch, Batch, "__init__", counts)
    original_of = SearchTexts.of.__func__
    monkeypatch.setattr(SearchTexts, "of", classmethod(
        lambda cls, texts: counts.update(["of"]) or original_of(cls, texts)
    ))
    two_pred = [s for s in statements(workload, seed=1, scale=SCALE)
                if s.cls == "two_pred"]
    assert two_pred and all("containsUnion" in s.sql for s in two_pred)
    cold: Counter = Counter()
    for stmt in statements(workload, seed=1, scale=SCALE):
        counts.clear()
        db.sql(stmt.sql)
        # One keyword conjunct per statement: at most one read per batch.
        assert counts["raw_texts"] <= counts["__init__"], stmt.sql
        if stmt.cls != "two_pred":
            assert counts["raw_texts"] == counts["of"] == 0, stmt.sql
        cold.update(counts)
    # The first statements build the search texts; the memo then answers.
    assert 0 < cold["raw_texts"] < len(two_pred) < cold["of"]
    for stmt in statements(workload, seed=1, scale=SCALE):
        counts.clear()
        db.sql(stmt.sql)
        assert counts["raw_texts"] == counts["of"] == 0, stmt.sql
