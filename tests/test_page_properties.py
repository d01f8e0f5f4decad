"""Property-based tests for the slotted page (Hypothesis).

A random interleaving of inserts, updates, and deletes is applied both to a
:class:`SlottedPage` and to a plain dict oracle. After every step the page
must return exactly the oracle's records, its free-space/live-count
accounting must match first principles, and :meth:`SlottedPage.check` must
report zero problems — the same invariants the integrity checker enforces
engine-wide, exercised here at the single-page level.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import PageFullError, RecordNotFoundError  # noqa: E402
from repro.storage.page import (  # noqa: E402
    SlottedPage,
    compute_checksum,
    stamp_checksum,
    verify_checksum,
)

PAGE_SIZE = 512  # small pages make fills/compaction frequent

_record = st.binary(min_size=1, max_size=120)
_op = st.one_of(
    st.tuples(st.just("insert"), _record),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("update"), st.integers(min_value=0, max_value=40),
              _record),
)


def _check_against_oracle(page: SlottedPage, oracle: dict[int, bytes]) -> None:
    assert page.check() == []
    assert dict(page.records()) == oracle
    assert page.live_count() == len(oracle)
    # Free space from first principles: the whole page minus header, slot
    # directory, and live payload bytes.
    payload = sum(len(r) for r in oracle.values())
    dir_bytes = 4 * page.num_slots
    assert page.free_space == PAGE_SIZE - 8 - dir_bytes - payload
    for slot_no, record in oracle.items():
        assert page.read(slot_no) == record


@given(ops=st.lists(_op, max_size=60))
@settings(max_examples=120, deadline=None)
def test_page_matches_oracle_through_dml(ops):
    page = SlottedPage(page_size=PAGE_SIZE)
    oracle: dict[int, bytes] = {}
    for op in ops:
        if op[0] == "insert":
            record = op[1]
            try:
                slot = page.insert(record)
            except PageFullError:
                assert not page.can_fit(len(record))
                continue
            assert slot not in oracle
            oracle[slot] = record
        elif op[0] == "delete":
            slot = op[1]
            if slot in oracle:
                page.delete(slot)
                del oracle[slot]
            else:
                with pytest.raises(RecordNotFoundError):
                    page.delete(slot)
        else:
            _, slot, record = op
            if slot in oracle:
                try:
                    page.update(slot, record)
                    oracle[slot] = record
                except PageFullError:
                    # Reject-before-mutate: the old record must survive.
                    assert page.read(slot) == oracle[slot]
            else:
                with pytest.raises(RecordNotFoundError):
                    page.update(slot, record)
        _check_against_oracle(page, oracle)


@given(records=st.lists(_record, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_tombstone_slots_are_reused(records):
    page = SlottedPage(page_size=PAGE_SIZE)
    slots = []
    for record in records:
        if not page.can_fit(len(record)):
            break
        slots.append(page.insert(record))
    page.delete(slots[0])
    refill = page.insert(b"x")
    assert refill == slots[0]  # first tombstone is recycled
    assert page.check() == []


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_checksum_roundtrip_and_sensitivity(data):
    page = SlottedPage(page_size=PAGE_SIZE)
    for record in data.draw(st.lists(_record, max_size=6)):
        if page.can_fit(len(record)):
            page.insert(record)
    stamp_checksum(page.data)
    assert verify_checksum(page.data)
    # Stamping is idempotent: the checksum field is excluded from itself.
    before = compute_checksum(page.data)
    stamp_checksum(page.data)
    assert compute_checksum(page.data) == before
    # Any single flipped bit outside the CRC field must be detected.
    bit = data.draw(st.integers(min_value=0, max_value=PAGE_SIZE * 8 - 1))
    if 4 * 8 <= bit < 8 * 8:
        bit += 4 * 8  # skip the CRC field itself (flips there also detect,
        # but via the stored-vs-computed side; keep the property crisp)
    page.data[bit // 8] ^= 1 << (bit % 8)
    assert not verify_checksum(page.data)


def _records_per_slot(page: SlottedPage) -> list[tuple[int, bytes]]:
    """Reference: the per-slot directory walk ``records()`` replaced."""
    out = []
    for i in range(page.num_slots):
        offset, length = page._slot(i)
        if offset != 0:  # tombstone
            out.append((i, bytes(page.data[offset:offset + length])))
    return out


_edit = st.one_of(
    st.tuples(st.just("insert"), _record),
    st.tuples(st.just("delete"), st.integers(min_value=0)),
    st.tuples(st.just("same-size"), st.integers(min_value=0), st.binary()),
    st.tuples(st.just("grow"), st.integers(min_value=0),
              st.binary(min_size=1, max_size=60)),
)


@given(edits=st.lists(_edit, max_size=80))
@settings(max_examples=150, deadline=None)
def test_one_pass_records_equal_the_per_slot_walk(edits):
    """``records()`` unpacks the slot directory in one pass; it must give
    exactly the per-slot walk's list through inserts, deletes (leaving
    tombstones), same-size and growing updates, and tombstone reuse."""
    page = SlottedPage(page_size=PAGE_SIZE)
    for edit in edits:
        live = [slot for slot, _ in _records_per_slot(page)]
        if edit[0] == "insert":
            if page.can_fit(len(edit[1])):
                page.insert(edit[1])  # reuses the first tombstone, if any
        elif live:
            slot = live[edit[1] % len(live)]
            old = page.read(slot)
            if edit[0] == "delete":
                page.delete(slot)
            elif edit[0] == "same-size":
                page.update(slot, (edit[2] * len(old))[:len(old)] or old)
            else:
                try:
                    page.update(slot, old + edit[2])
                except PageFullError:
                    pass
        assert page.records() == _records_per_slot(page)
        assert page.live_count() == len(_records_per_slot(page))
