"""A counted guard on the per-batch summary fetch, without timing.

Runs the served benchmark's ``read_scan`` statement list in process on a
small database built from the same workload configuration, and counts
summary-cache calls per statement.  A scan batch resolves its rows'
summary sets with one :meth:`SummaryCache.lookup_many` pass, so a
SELECT makes no single-key :meth:`SummaryCache.lookup` and at most one
cache pass per batch its plan builds.  The cache and buffer-pool totals
of the whole list are pinned, so a regression to one lookup per row, or
a read that bypasses the cache, fails here deterministically.

Every summary read, label predicates included, goes through the cached
objects of :meth:`SummaryStorage.get_many`, so a second pass over the
``range`` statements is answered from the summary cache alone: no miss,
and no summary heap page read.

Keyword search is counted the same way: a batch reads the raw texts of
its rows' snippet objects with at most one :meth:`EvalContext.raw_texts`
call, and a second pass over the list reads none and rebuilds no search
text — an object decoded from storage keeps the lowered text it built."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.workloads import WORKLOADS, Scale, statements  # noqa: E402
from repro.cache.summary_cache import SummaryCache  # noqa: E402
from repro.query.batch import Batch  # noqa: E402
from repro.query.eval import EvalContext  # noqa: E402
from repro.resilience.context import BATCH_ROWS  # noqa: E402
from repro.storage.buffer import BufferPool  # noqa: E402
from repro.summaries.objects import SearchTexts  # noqa: E402
from repro.workload import build_database  # noqa: E402

SCALE = Scale(num_birds=40, annotations_per_tuple=6)
#: (cache hits, cache misses, pool page accesses) over the whole list.
#: Each tuple's summary row is read from the heap on its first miss only;
#: the cache answers every later read of it, label predicates included.
PINNED = (1617, 40, 368)


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


def test_warm_range_pass_reads_only_cached_summaries(monkeypatch):
    workload = WORKLOADS["read_scan"]
    db = build_database(workload.config(SCALE))
    ranges = [s.sql for s in statements(workload, seed=1, scale=SCALE)
              if s.cls == "range"]
    assert ranges and all("getLabelValue" in sql for sql in ranges)
    for sql in ranges:
        db.sql(sql)
    summary_pages = {
        page_id for storage in db.manager._storages.values()
        for page_id in storage.heap.page_ids
    }
    touched: Counter = Counter()
    original = BufferPool.get_page

    def get_page(self, page_id):
        if page_id in summary_pages:
            touched[page_id] += 1
        return original(self, page_id)

    monkeypatch.setattr(BufferPool, "get_page", get_page)
    cache = db.manager.cache
    misses, hits = cache.misses, cache.hits
    for sql in ranges:
        db.sql(sql)
    assert cache.misses - misses == 0
    assert cache.hits > hits
    assert not touched


def test_index_scan_reads_each_batch_of_hits_at_once(monkeypatch):
    """A data-column ``IndexScan`` reads its hits with one
    ``Table.read_many`` per batch: no ``Table.read`` per hit.  Reading
    the 100 hits one OID-index descent each took 307 page accesses; the
    batched reads took 111 while each hit read its own heap page, and
    take 14 now that a batch reads each of the table's 2 heap pages
    once."""
    from repro import Column, Database, ValueType
    from repro.catalog.table import Table

    db = Database()
    db.create_table("t", [Column("k", ValueType.INT),
                          Column("name", ValueType.TEXT)])
    for i in range(400):
        db.insert("t", [i % 4, f"n{i}"])
    db.create_index("t", "k")
    db.options.force_access = "index"
    sql = "SELECT t.name FROM t WHERE t.k = 2"
    assert "IndexScan(t.k in [2, 2])" in str(db.sql("EXPLAIN " + sql))
    counts: Counter = Counter()
    counting(monkeypatch, Table, "read", counts)
    pool = db.pool
    before = pool.hits + pool.misses
    rows = db.sql(sql)
    pages = pool.hits + pool.misses - before
    assert sorted(row.values[0] for row in rows) == sorted(
        f"n{i}" for i in range(2, 400, 4))
    assert counts["read"] == 0
    assert pages < 30


@pytest.mark.parametrize("oids", [
    list(range(1, 400, 4)),          # dense: one OID-index range pass
    [3, 390, 7, 200, 3, 391, 150],   # sparse, repeated: one descent each
])
def test_read_many_reads_each_heap_page_once(monkeypatch, oids):
    """``Table.read_many`` costs the OID-index pages that resolve its
    RIDs plus one access per distinct heap page, however many of its
    rows share a page, and returns the rows in the order asked."""
    from repro import Column, Database, ValueType
    from repro.catalog.table import rid_resolver

    db = Database()
    db.create_table("t", [Column("k", ValueType.INT),
                          Column("name", ValueType.TEXT)])
    for i in range(400):
        db.insert("t", [i, f"n{i}" * 20])
    table, pool = db.catalog.table("t"), db.pool
    assert len(table.heap.page_ids) >= 4

    def accesses(fn) -> int:
        before = pool.hits + pool.misses
        fn()
        return pool.hits + pool.misses - before

    def resolve():
        rid_of = rid_resolver(table.oid_index, oids)
        return [rid_of(oid) for oid in dict.fromkeys(oids)]

    index_pages = accesses(resolve)
    heap_pages = len({rid.page_no for rid in resolve()})
    expected = [table.read(oid) for oid in oids]
    rows: list = []
    assert accesses(lambda: rows.extend(table.read_many(oids))) \
        == index_pages + heap_pages
    assert rows == expected
    assert heap_pages < len(set(oids))


def test_sort_and_group_read_each_child_batch_at_once(monkeypatch):
    """A pipeline breaker reads every row of its child, so it builds each
    child batch's row views together: one summary-cache pass per child
    batch, not one per row (``count(*)`` over the served database's 300
    synonyms made 300 passes)."""
    db = build_database(WORKLOADS["read_indexed"].config(SCALE))
    batches = -(-len(db.catalog.table("synonyms")) // BATCH_ROWS)
    assert batches >= 2
    counts: Counter = Counter()
    counting(monkeypatch, SummaryCache, "lookup_many", counts)
    for sql, breaker in (
        ("Select count(*) From synonyms s", "Group"),
        ("Select s.bird_id, count(*) From synonyms s Group By s.bird_id",
         "Group"),
        ("Select s.synonym From synonyms s Order By s.synonym", "Sort"),
    ):
        assert breaker in str(db.sql(f"Explain {sql}")), sql
        counts.clear()
        db.sql(sql)
        assert counts["lookup_many"] == batches, sql
