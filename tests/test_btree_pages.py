"""B-Tree node page images: exactness and encode cost.

A leaf keeps each entry's encoding beside it once written, so a write
encodes only what changed (DESIGN.md, "B-Tree node page images"). These
tests pin the two halves of that contract:

* exactness — after every operation every node page is byte-for-byte what
  the plain per-entry encoder below produces from the node's entries, the
  page parses back to the node, and scans agree with a sorted-list
  oracle; the kept encodings are never pickled, and nodes pickled before
  they existed load and write correctly;
* cost — counted ``encode_entry`` calls, never timings: an insert that
  does not split encodes one entry, a delete none, and a whole database
  load encodes a small multiple of its inserts.
"""

from __future__ import annotations

import bisect
import pickle
import random
import struct

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import repro.btree.node as node_module
from repro.btree import BTree
from repro.btree.node import InternalNode, LeafNode, parse_node
from repro.errors import DuplicateKeyError, IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workload.generator import WorkloadConfig, build_database

#: Small pages so a few dozen entries force leaf and internal splits.
PAGE = 256
#: ``BTree._max_entry_size()`` at this page size.
MAX_ENTRY = (PAGE - 16) // 3


def reference_page(node: LeafNode | InternalNode) -> bytes:
    """The node page format, written the plain way: one pack per field."""
    u16, u32, i32 = (struct.Struct(f).pack for f in ("<H", "<I", "<i"))
    if isinstance(node, LeafNode):
        parts = [b"\x01", u16(len(node.entries)), i32(node.next_leaf)]
        for key, value in node.entries:
            parts += (u16(len(key)), key, u16(len(value)), value)
    else:
        parts = [b"\x00", u16(len(node.separators)), u32(node.children[0])]
        for (key, value), child in zip(node.separators, node.children[1:]):
            parts += (u16(len(key)), key, u16(len(value)), value, u32(child))
    body = b"".join(parts)
    return body + bytes(PAGE - len(body))


def make_tree(unique: bool) -> BTree:
    return BTree(BufferPool(DiskManager(page_size=PAGE), capacity=64),
                 unique=unique)


def node_pages(tree: BTree):
    """Every reachable node page with the node the tree holds for it."""
    stack = [tree.root_id]
    while stack:
        page_id = stack.pop()
        page = bytes(tree.pool.get_page(page_id))
        node = tree._cache.get(page_id) or parse_node(page)
        yield page_id, page, node
        if isinstance(node, InternalNode):
            stack.extend(node.children)


def check(tree: BTree, oracle: list) -> None:
    for page_id, page, node in node_pages(tree):
        assert page == reference_page(node), f"page {page_id}"
        assert parse_node(page) == node, f"page {page_id}"
    assert list(tree.items()) == oracle
    assert len(tree) == len(oracle)
    if oracle:
        key = oracle[len(oracle) // 2][0]
        assert (list(tree.range_scan(key, key))
                == [e for e in oracle if e[0] == key])


def apply(tree: BTree, oracle: list, op: tuple) -> None:
    """Run one operation on the tree and the oracle; errors must agree."""
    kind = op[0]
    if kind == "delete":
        if oracle:
            entry = oracle.pop(op[1] % len(oracle))
            assert tree.delete(*entry) is True
        return
    if kind == "delete_absent":
        entry = (op[1], op[2])
        assert tree.delete(*entry) is (entry in oracle)
        if entry in oracle:
            oracle.remove(entry)
        return
    if kind == "insert_dup":
        key = oracle[op[1] % len(oracle)][0] if oracle else b""
        entries = [(key, op[2])]
    elif kind == "fill":
        rng = random.Random(op[1])
        entries = []
        for _ in range(op[2]):
            klen = rng.randint(0, MAX_ENTRY - 8)
            entries.append((rng.randbytes(klen),
                            rng.randbytes(rng.randint(0, MAX_ENTRY - 8 - klen))))
    else:
        entries = [(op[1], op[2])]
    for key, value in entries:
        if len(key) + len(value) + 8 > MAX_ENTRY:
            expected = IndexError_
        elif (key, value) in oracle or (
                tree.unique and any(k == key for k, _ in oracle)):
            expected = DuplicateKeyError
        else:
            expected = None
        if expected is None:
            tree.insert(key, value)
            bisect.insort(oracle, (key, value))
        else:
            with pytest.raises(expected):
                tree.insert(key, value)


sizes = st.binary(max_size=MAX_ENTRY)
ops = st.one_of(
    st.tuples(st.just("insert"), sizes, sizes),
    st.tuples(st.just("insert_dup"), st.integers(0, 10**6), sizes),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("delete_absent"), sizes, sizes),
    st.tuples(st.just("fill"), st.integers(0, 2**32), st.integers(1, 40)),
    st.tuples(st.just("pickle")),
)


def pickle_round_trip(tree: BTree) -> BTree:
    leaves = [n for n in tree._cache.values() if isinstance(n, LeafNode)]
    assert all("_parts" not in n.__getstate__() for n in leaves)
    clone = pickle.loads(pickle.dumps(tree))
    assert all(n._parts is None for n in clone._cache.values()
               if isinstance(n, LeafNode))
    return clone


@given(st.booleans(), st.lists(ops, min_size=1, max_size=60))
def test_pages_match_reference_encoder_after_every_op(unique, op_list):
    tree, oracle = make_tree(unique), []
    for op in op_list:
        if op[0] == "pickle":
            tree = pickle_round_trip(tree)
        else:
            apply(tree, oracle, op)
        check(tree, oracle)
    event(f"height {tree.height}")


@pytest.mark.parametrize("unique", [False, True])
def test_deep_tree_pages_match_reference_encoder(unique):
    """A seeded run long enough for internal splits (height >= 3), with
    pickle round trips along the way."""
    rng = random.Random(28)
    tree, oracle = make_tree(unique), []
    for step in range(400):
        roll = rng.random()
        if step % 97 == 96:
            tree = pickle_round_trip(tree)
        elif roll < 0.55:
            klen = rng.randint(0, 30)
            key = rng.choice(oracle)[0] if oracle and roll < 0.1 else \
                rng.randbytes(klen)
            apply(tree, oracle, ("insert", key, rng.randbytes(
                rng.randint(0, MAX_ENTRY - 8 - len(key)))))
        elif roll < 0.8:
            apply(tree, oracle, ("delete", rng.randrange(10**6)))
        else:
            apply(tree, oracle, ("fill", rng.randrange(2**32), 8))
        check(tree, oracle)
    assert tree.height >= 3


def test_bulk_reslice_then_invalidate_writes_the_new_entries():
    leaf = LeafNode([(b"a", b"1"), (b"b", b""), (b"", b"3")])
    leaf.to_bytes(PAGE)
    leaf.entries = leaf.entries[1:]
    leaf.invalidate_size()
    assert bytes(leaf.to_bytes(PAGE)) == reference_page(leaf)
    assert parse_node(leaf.to_bytes(PAGE)).serialized_size() \
        == leaf.serialized_size()


def old_shape_pickle(node: LeafNode, monkeypatch) -> bytes:
    """``node`` pickled the way leaves were before they kept encodings:
    the plain instance dict, which had no ``_parts`` key."""
    old = LeafNode.__new__(LeafNode)
    old.__dict__.update(entries=list(node.entries), next_leaf=node.next_leaf,
                        _size=node._size)
    with monkeypatch.context() as patch:
        patch.delattr(LeafNode, "__getstate__")
        return pickle.dumps(old)


def test_pickled_leaf_is_byte_identical_to_the_old_shape(monkeypatch):
    tree = make_tree(unique=False)
    for i in range(8):
        tree.insert(f"k{i}".encode(), b"v")
    leaf = tree._cache[tree.root_id]
    assert leaf._parts is not None
    assert pickle.dumps(leaf) == old_shape_pickle(leaf, monkeypatch)


def test_old_shape_leaves_load_and_write_correctly(monkeypatch):
    rng = random.Random(7)
    tree, oracle = make_tree(unique=False), []
    apply(tree, oracle, ("fill", 1, 30))
    for page_id, node in list(tree._cache.items()):
        if isinstance(node, LeafNode):
            old = pickle.loads(old_shape_pickle(node, monkeypatch))
            assert "_parts" not in old.__dict__ and old._parts is None
            assert old == node
            tree._cache[page_id] = old
    for _ in range(60):
        if rng.random() < 0.6:
            apply(tree, oracle, ("insert", rng.randbytes(6), rng.randbytes(20)))
        else:
            apply(tree, oracle, ("delete", rng.randrange(10**6)))
        check(tree, oracle)


# -- encode cost -------------------------------------------------------------


@pytest.fixture
def encodes(monkeypatch):
    """Counts calls of the one entry encoder."""
    calls = [0]
    real = node_module.encode_entry

    def counting(entry):
        calls[0] += 1
        return real(entry)

    monkeypatch.setattr(node_module, "encode_entry", counting)
    return calls


def measured(calls: list, fn) -> int:
    before = calls[0]
    fn()
    return calls[0] - before


def test_written_leaf_insert_encodes_one_entry_delete_none(encodes):
    tree = BTree(BufferPool(DiskManager(), capacity=16))
    for i in range(100):
        assert measured(encodes, lambda: tree.insert(b"k%03d" % i, b"v")) == 1
    assert tree.height == 1
    for i in range(0, 100, 3):
        assert measured(encodes, lambda: tree.delete(b"k%03d" % i, b"v")) == 0


def test_parsed_leaf_encodes_its_entries_once(encodes):
    tree = BTree(BufferPool(DiskManager(), capacity=16))
    for i in range(50):
        tree.insert(b"k%03d" % i, b"v")
    tree._cache.clear()  # the next read parses the page: nothing kept
    assert measured(encodes, lambda: tree.insert(b"k999", b"v")) == 51
    assert measured(encodes, lambda: tree.insert(b"k998", b"v")) == 1
    assert measured(encodes, lambda: tree.delete(b"k000", b"v")) == 0


def test_split_encodes_each_split_node_at_most_once(encodes):
    tree = make_tree(unique=False)
    splits = 0
    for i in range(200):
        entry = (b"%04d" % i, b"v" * 40)
        # Every node on the path once, each with the one entry or
        # separator it may gain, plus a new root's separator.
        budget = 1 + sum(
            1 + (len(n.entries) if isinstance(n, LeafNode)
                 else len(n.separators))
            for n in map(tree._read, (p for p, _ in tree._descend(entry)))
        )
        pages = tree.pool.disk.num_pages
        count = measured(encodes, lambda: tree.insert(*entry))
        if tree.pool.disk.num_pages == pages:
            assert count == 1
            continue
        splits += 1
        assert count <= budget
    assert tree.height >= 3 and splits > 3


def test_database_load_encodes_a_small_multiple_of_its_inserts(
        encodes, monkeypatch):
    inserts = [0]
    real_insert = BTree.insert

    def counting_insert(self, key, value):
        inserts[0] += 1
        return real_insert(self, key, value)

    monkeypatch.setattr(BTree, "insert", counting_insert)
    build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=10, cell_fraction=0.0, seed=3,
        indexes="summary_btree",
    ))
    assert inserts[0] > 500
    # Re-packing every node on every write would be ~fan-out per insert.
    assert encodes[0] <= 3 * inserts[0], (encodes[0], inserts[0])
