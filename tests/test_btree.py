"""Unit + property tests for the page-based B-Tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, IndexError_
from repro.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_tree(unique=False, capacity=512):
    return BTree(BufferPool(DiskManager(), capacity=capacity), unique=unique)


def k(i):
    return f"{i:08d}".encode()


class TestBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.search(b"missing") == []
        assert list(tree.items()) == []

    def test_insert_search(self):
        tree = make_tree()
        tree.insert(b"alpha", b"1")
        tree.insert(b"beta", b"2")
        assert tree.search(b"alpha") == [b"1"]
        assert tree.search(b"beta") == [b"2"]
        assert len(tree) == 2

    def test_duplicate_keys_allowed_by_default(self):
        tree = make_tree()
        tree.insert(b"dup", b"1")
        tree.insert(b"dup", b"2")
        assert sorted(tree.search(b"dup")) == [b"1", b"2"]

    def test_duplicate_pair_rejected(self):
        tree = make_tree()
        tree.insert(b"dup", b"1")
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"dup", b"1")

    def test_unique_index_rejects_duplicate_key(self):
        tree = make_tree(unique=True)
        tree.insert(b"key", b"1")
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"key", b"2")

    def test_unique_index_sees_duplicate_key_in_sibling_leaf(self):
        """Equal keys can straddle a leaf boundary; the neighbour the
        unique check needs then sits in the sibling leaf."""
        tree = BTree(BufferPool(DiskManager(page_size=256), capacity=64),
                     unique=True)
        for i in range(12):
            tree.insert(k(i), b"m" * 30)
        key, value = tree._read(tree.root_id).separators[0]
        with pytest.raises(DuplicateKeyError):
            tree.insert(key, b"a")  # sorts into the left leaf's end
        assert tree.delete(key, value)
        tree.insert(key, b"a")
        with pytest.raises(DuplicateKeyError):
            tree.insert(key, b"z")  # sorts into the right leaf's start
        assert tree.search(key) == [b"a"]
        assert tree.structure_errors() == []

    def test_delete_present(self):
        tree = make_tree()
        tree.insert(b"a", b"1")
        assert tree.delete(b"a", b"1") is True
        assert tree.search(b"a") == []
        assert len(tree) == 0

    def test_delete_absent_returns_false(self):
        tree = make_tree()
        tree.insert(b"a", b"1")
        assert tree.delete(b"a", b"2") is False
        assert tree.delete(b"zz", b"1") is False
        assert len(tree) == 1

    def test_oversize_entry_rejected(self):
        tree = make_tree()
        with pytest.raises(IndexError_):
            tree.insert(b"x" * 5000, b"y")


class TestSplitsAndScale:
    def test_many_inserts_force_splits(self):
        tree = make_tree()
        n = 5000
        for i in range(n):
            tree.insert(k(i), str(i).encode())
        assert len(tree) == n
        assert tree.height >= 2
        for i in (0, 1, n // 2, n - 1):
            assert tree.search(k(i)) == [str(i).encode()]

    def test_random_insert_order(self):
        tree = make_tree()
        rng = random.Random(17)
        keys = list(range(3000))
        rng.shuffle(keys)
        for i in keys:
            tree.insert(k(i), str(i).encode())
        assert [key for key, _ in tree.items()] == [k(i) for i in range(3000)]

    def test_height_grows_logarithmically(self):
        tree = make_tree()
        for i in range(20000):
            tree.insert(k(i), b"v")
        assert tree.height <= 4  # ~200 fanout

    def test_survives_cold_cache(self):
        tree = make_tree(capacity=4)
        for i in range(2000):
            tree.insert(k(i), str(i).encode())
        tree._cache.clear()
        tree.pool.clear()
        assert tree.search(k(1234)) == [b"1234"]
        assert len(list(tree.items())) == 2000


class TestRangeScans:
    def test_inclusive_range(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(k(i), b"v")
        got = [key for key, _ in tree.range_scan(k(10), k(20))]
        assert got == [k(i) for i in range(10, 21)]

    def test_exclusive_bounds(self):
        tree = make_tree()
        for i in range(30):
            tree.insert(k(i), b"v")
        got = [
            key
            for key, _ in tree.range_scan(
                k(5), k(10), lo_inclusive=False, hi_inclusive=False
            )
        ]
        assert got == [k(i) for i in range(6, 10)]

    def test_open_ended_ranges(self):
        tree = make_tree()
        for i in range(50):
            tree.insert(k(i), b"v")
        assert len(list(tree.range_scan(None, k(9)))) == 10
        assert len(list(tree.range_scan(k(40), None))) == 10

    def test_range_with_duplicates(self):
        tree = make_tree()
        for i in range(10):
            for j in range(3):
                tree.insert(k(i), f"v{j}".encode())
        got = list(tree.range_scan(k(2), k(4)))
        assert len(got) == 9

    def test_empty_range(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(k(i), b"v")
        assert list(tree.range_scan(b"zzz", b"zzzz")) == []


class TestDeletesAtScale:
    def test_delete_half_then_scan(self):
        tree = make_tree()
        n = 2000
        for i in range(n):
            tree.insert(k(i), b"v")
        for i in range(0, n, 2):
            assert tree.delete(k(i), b"v")
        remaining = [key for key, _ in tree.items()]
        assert remaining == [k(i) for i in range(1, n, 2)]
        assert len(tree) == n // 2

    def test_delete_everything(self):
        tree = make_tree()
        for i in range(500):
            tree.insert(k(i), b"v")
        for i in range(500):
            assert tree.delete(k(i), b"v")
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_reinsert_after_delete(self):
        tree = make_tree()
        tree.insert(b"key", b"v")
        tree.delete(b"key", b"v")
        tree.insert(b"key", b"v")
        assert tree.search(b"key") == [b"v"]


class TestInstrumentation:
    def test_touches_counter(self):
        tree = make_tree()
        for i in range(1000):
            tree.insert(k(i), b"v")
        tree.reset_touches()
        tree.search(k(500))
        assert 0 < tree.touches <= 2 * tree.height + 2

    def test_node_count(self):
        tree = make_tree()
        for i in range(1000):
            tree.insert(k(i), b"v")
        assert tree.node_count() > 1


@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=20), st.binary(max_size=20)),
        min_size=1,
        max_size=300,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_items_sorted_and_complete(entries):
    tree = make_tree()
    for key, value in entries:
        tree.insert(key, value)
    got = list(tree.items())
    assert got == sorted(entries)


@given(
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
)
@settings(max_examples=40, deadline=None)
def test_property_range_scan_matches_filter(values, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    tree = make_tree()
    seen = set()
    for v in values:
        if v not in seen:
            tree.insert(k(v), b"")
            seen.add(v)
    got = [key for key, _ in tree.range_scan(k(lo), k(hi))]
    expected = [k(v) for v in sorted(seen) if lo <= v <= hi]
    assert got == expected


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300),
)
@settings(max_examples=30, deadline=None)
def test_property_insert_delete_interleaved(ops):
    tree = make_tree()
    shadow = set()
    for v in ops:
        if v in shadow:
            assert tree.delete(k(v), b"")
            shadow.remove(v)
        else:
            tree.insert(k(v), b"")
            shadow.add(v)
    assert [key for key, _ in tree.items()] == [k(v) for v in sorted(shadow)]
    assert len(tree) == len(shadow)
