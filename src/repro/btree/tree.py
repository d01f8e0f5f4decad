"""B-Tree over buffer-pool pages.

Entries are ``(key, value)`` byte pairs ordered lexicographically by the
composite pair, which makes duplicate keys well-defined for both insertion
and deletion. Splits happen when a node's serialized form would overflow its
page. Deletion is *lazy*: underflowing nodes are left in place (they remain
correct, merely under-full) — the classic simplification used by several
production engines; the workloads here are append-dominated so occupancy
stays healthy.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.errors import DuplicateKeyError, IndexError_, StorageError
from repro.storage.buffer import BufferPool
from repro.btree.node import (
    Entry, InternalNode, LeafNode, entry_size, parse_node,
)


def _byte_balanced_mid(sizes: list[int]) -> int:
    """Split index that balances the two halves by serialized bytes.

    Always leaves at least one element on each side.
    """
    total = sum(sizes)
    running = 0
    for i, size in enumerate(sizes):
        running += size
        if running >= total // 2:
            return min(max(i + 1, 1), len(sizes) - 1)
    return len(sizes) // 2


class BTree:
    """A disk-paged B-Tree of ``(key, value)`` byte entries.

    Parameters
    ----------
    pool:
        Buffer pool the node pages live in.
    unique:
        When True, inserting a key that already exists raises
        :class:`DuplicateKeyError`.
    """

    def __init__(self, pool: BufferPool, unique: bool = False):
        self.pool = pool
        self.unique = unique
        self.page_size = pool.disk.page_size
        self._len = 0
        #: Node visits since the last reset — used by the theoretical-bounds
        #: benchmark to verify logarithmic behaviour.
        self.touches = 0
        self._cache: dict[int, LeafNode | InternalNode] = {}
        self.root_id = self.pool.new_page()
        self._write(self.root_id, LeafNode())

    # -- node I/O -------------------------------------------------------------

    def _read(self, page_id: int) -> LeafNode | InternalNode:
        self.touches += 1
        # Pull through the pool so cache misses are charged a disk read even
        # when the parsed form is memoized.
        data = self.pool.get_page(page_id)
        node = self._cache.get(page_id)
        if node is None:
            node = parse_node(data)
            self._cache[page_id] = node
        return node

    def _write(self, page_id: int, node: LeafNode | InternalNode) -> None:
        self.pool.put_page(page_id, node.to_bytes(self.page_size))
        self._cache[page_id] = node

    def _max_entry_size(self) -> int:
        # Three entries must always fit so splits can make progress.
        return (self.page_size - 16) // 3

    # -- public API -----------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert ``(key, value)``. Duplicate pairs are rejected."""
        if len(key) + len(value) + 8 > self._max_entry_size():
            raise IndexError_(
                f"entry of {len(key) + len(value)} bytes exceeds index limit"
            )
        entry = (key, value)
        path = self._descend(entry)
        leaf_id = path[-1][0]
        leaf = self._read(leaf_id)
        assert isinstance(leaf, LeafNode)
        pos = bisect.bisect_left(leaf.entries, entry)
        if pos < len(leaf.entries) and leaf.entries[pos] == entry:
            raise DuplicateKeyError(f"entry already present: {key!r}")
        if self.unique and self._key_taken(path, leaf, pos, key):
            raise DuplicateKeyError(f"duplicate key in unique index: {key!r}")
        leaf.insert_entry(pos, entry)
        self._len += 1
        if leaf.serialized_size() <= self.page_size:
            self._write(leaf_id, leaf)
            return
        self._split(path, leaf)

    def delete(self, key: bytes, value: bytes) -> bool:
        """Delete ``(key, value)``; returns True when it was present."""
        entry = (key, value)
        path = self._descend(entry)
        leaf_id = path[-1][0]
        leaf = self._read(leaf_id)
        assert isinstance(leaf, LeafNode)
        pos = bisect.bisect_left(leaf.entries, entry)
        if pos >= len(leaf.entries) or leaf.entries[pos] != entry:
            return False
        leaf.remove_entry(pos)
        self._write(leaf_id, leaf)
        self._len -= 1
        return True

    def search(self, key: bytes) -> list[bytes]:
        """Return every value stored under exactly ``key``."""
        return [v for _, v in self.range_scan(key, key)]

    def contains_key(self, key: bytes) -> bool:
        for _ in self.range_scan(key, key):
            return True
        return False

    def range_scan(
        self,
        lo: bytes | None,
        hi: bytes | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with ``lo <= key <= hi`` (bounds optional).

        Exclusive bounds are honoured via ``lo_inclusive`` / ``hi_inclusive``.
        Entries stream in key order by walking the leaf chain.
        """
        if lo is None:
            leaf_id = self._leftmost_leaf()
        else:
            leaf_id = self._descend((lo, b""))[-1][0]
        while leaf_id != -1:
            leaf = self._read(leaf_id)
            assert isinstance(leaf, LeafNode)
            for key, value in leaf.entries:
                if lo is not None:
                    if key < lo or (not lo_inclusive and key == lo):
                        continue
                if hi is not None:
                    if key > hi or (not hi_inclusive and key == hi):
                        return
                yield key, value
            leaf_id = leaf.next_leaf

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Every entry in key order."""
        return self.range_scan(None, None)

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf)."""
        levels = 1
        node = self._read(self.root_id)
        while isinstance(node, InternalNode):
            levels += 1
            node = self._read(node.children[0])
        return levels

    def node_count(self) -> int:
        """Total number of node pages in the tree."""
        count = 0
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            count += 1
            if isinstance(node, InternalNode):
                stack.extend(node.children)
        return count

    def reset_touches(self) -> None:
        self.touches = 0

    # -- integrity ------------------------------------------------------------

    def structure_errors(self, location: str = "btree") -> list[str]:
        """Verify the tree's structural invariants; returns violations.

        Checked: node pages parse, no page is reachable twice, entries and
        separators are strictly sorted and within their separator bounds,
        serialized nodes fit their page, every leaf sits at the same depth,
        the sibling chain visits exactly the leaves in left-to-right order,
        and the entry count matches ``len(self)``.

        Pages are re-parsed from the buffer pool (bypassing the node memo
        cache) so corruption in the backing bytes is not masked by a stale
        parsed form.
        """
        errors: list[str] = []
        seen: set[int] = set()
        leaves_in_order: list[int] = []
        leaf_depths: set[int] = set()
        sibling_pointers: dict[int, int] = {}
        entry_total = 0
        prev_entry: Entry | None = None

        def visit(page_id: int, depth: int,
                  lo: Entry | None, hi: Entry | None) -> None:
            nonlocal entry_total, prev_entry
            if page_id in seen:
                errors.append(f"{location}: page {page_id} reachable twice")
                return
            seen.add(page_id)
            try:
                node = parse_node(self.pool.get_page(page_id))
            except StorageError as exc:
                errors.append(f"{location}: node page {page_id}: {exc}")
                return
            if node.serialized_size() > self.page_size:
                errors.append(
                    f"{location}: node page {page_id} serializes to "
                    f"{node.serialized_size()} bytes (> {self.page_size})"
                )
            if isinstance(node, LeafNode):
                leaf_depths.add(depth)
                leaves_in_order.append(page_id)
                sibling_pointers[page_id] = node.next_leaf
                entry_total += len(node.entries)
                for entry in node.entries:
                    if prev_entry is not None and entry <= prev_entry:
                        errors.append(
                            f"{location}: leaf {page_id} entry {entry!r} out "
                            f"of order (follows {prev_entry!r})"
                        )
                    if lo is not None and entry < lo:
                        errors.append(
                            f"{location}: leaf {page_id} entry {entry!r} "
                            f"below its separator bound {lo!r}"
                        )
                    if hi is not None and entry >= hi:
                        errors.append(
                            f"{location}: leaf {page_id} entry {entry!r} at "
                            f"or above its separator bound {hi!r}"
                        )
                    prev_entry = entry
                return
            if len(node.children) != len(node.separators) + 1:
                errors.append(
                    f"{location}: internal {page_id} has "
                    f"{len(node.children)} children for "
                    f"{len(node.separators)} separators"
                )
                return
            for i, sep in enumerate(node.separators):
                if i > 0 and sep <= node.separators[i - 1]:
                    errors.append(
                        f"{location}: internal {page_id} separators out of "
                        f"order at index {i}"
                    )
                if lo is not None and sep < lo:
                    errors.append(
                        f"{location}: internal {page_id} separator {sep!r} "
                        f"below bound {lo!r}"
                    )
                if hi is not None and sep >= hi:
                    errors.append(
                        f"{location}: internal {page_id} separator {sep!r} "
                        f"at or above bound {hi!r}"
                    )
            bounds = [lo] + list(node.separators) + [hi]
            for i, child in enumerate(node.children):
                visit(child, depth + 1, bounds[i], bounds[i + 1])

        visit(self.root_id, 1, None, None)

        if len(leaf_depths) > 1:
            errors.append(
                f"{location}: non-uniform leaf depth {sorted(leaf_depths)}"
            )
        if leaves_in_order:
            # Walk the sibling chain from the leftmost leaf; it must visit
            # exactly the tree-ordered leaves, then terminate.
            chain: list[int] = []
            current = leaves_in_order[0]
            while current != -1 and len(chain) <= len(leaves_in_order):
                chain.append(current)
                current = sibling_pointers.get(current, -1)
            if chain != leaves_in_order:
                errors.append(
                    f"{location}: sibling chain {chain} does not match "
                    f"leaf order {leaves_in_order}"
                )
        if entry_total != self._len:
            errors.append(
                f"{location}: {entry_total} entries in leaves but tree "
                f"reports len {self._len}"
            )
        return errors

    def drop(self) -> None:
        """Free every node page."""
        stack = [self.root_id]
        while stack:
            page_id = stack.pop()
            node = self._read(page_id)
            if isinstance(node, InternalNode):
                stack.extend(node.children)
            self._cache.pop(page_id, None)
            self.pool.free_page(page_id)
        self._len = 0

    # -- internals ------------------------------------------------------------

    def _descend(self, entry: Entry) -> list[tuple[int, int]]:
        """Walk from root to the leaf that owns ``entry``.

        Returns the path as ``[(page_id, child_index_in_parent), ...]``; the
        root's child index is -1.
        """
        path = [(self.root_id, -1)]
        node = self._read(self.root_id)
        while isinstance(node, InternalNode):
            idx = bisect.bisect_right(node.separators, entry)
            child_id = node.children[idx]
            path.append((child_id, idx))
            node = self._read(child_id)
        return path

    def _key_taken(self, path: list[tuple[int, int]], leaf: LeafNode,
                   pos: int, key: bytes) -> bool:
        """Whether ``key`` is already stored, for a unique insert at
        ``pos`` of the leaf ending ``path``.

        Equal keys are adjacent in entry order, so only the neighbours of
        ``pos`` can match.  At a leaf edge the neighbour sits in a sibling
        leaf; the separator bounding that edge says whether it can hold
        ``key``, and only then is the tree searched.
        """
        entries = leaf.entries
        if (pos < len(entries) and entries[pos][0] == key) or (
                pos > 0 and entries[pos - 1][0] == key):
            return True
        lo = hi = None
        for (parent_id, _), (_, idx) in zip(path, path[1:]):
            separators = self._cache[parent_id].separators
            if idx > 0:
                lo = separators[idx - 1]
            if idx < len(separators):
                hi = separators[idx]
        at_edge = (pos == 0 and lo is not None and lo[0] == key) or (
            pos == len(entries) and hi is not None and hi[0] == key)
        return at_edge and self.contains_key(key)

    def _leftmost_leaf(self) -> int:
        page_id = self.root_id
        node = self._read(page_id)
        while isinstance(node, InternalNode):
            page_id = node.children[0]
            node = self._read(page_id)
        return page_id

    def _split(self, path: list[tuple[int, int]], node: LeafNode | InternalNode) -> None:
        """Split the overflowing ``node`` at ``path[-1]``, cascading upward."""
        page_id, child_idx = path[-1]
        if isinstance(node, LeafNode):
            mid = _byte_balanced_mid([entry_size(e) for e in node.entries])
            right = node.split_off(mid)
            right_id = self.pool.new_page()
            node.next_leaf = right_id
            separator = right.entries[0]
            self._write(right_id, right)
            self._write(page_id, node)
        else:
            mid = len(node.separators) // 2
            separator = node.separators[mid]
            right = InternalNode(
                node.separators[mid + 1:], node.children[mid + 1:]
            )
            right_id = self.pool.new_page()
            node.separators = node.separators[:mid]
            node.children = node.children[:mid + 1]
            node.invalidate_size()
            self._write(right_id, right)
            self._write(page_id, node)

        if len(path) == 1:
            # Root split: grow the tree by one level.
            new_root = InternalNode([separator], [page_id, right_id])
            new_root_id = self.pool.new_page()
            self._write(new_root_id, new_root)
            self.root_id = new_root_id
            return

        parent_id, _ = path[-2]
        parent = self._read(parent_id)
        assert isinstance(parent, InternalNode)
        pos = bisect.bisect_right(parent.separators, separator)
        parent.insert_separator(pos, separator, right_id)
        if parent.serialized_size() <= self.page_size:
            self._write(parent_id, parent)
        else:
            self._split(path[:-1], parent)
