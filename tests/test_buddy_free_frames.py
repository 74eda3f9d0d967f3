"""Bulk ``free_frames`` against the per-frame ``free(f, 0)`` loop.

``BuddyAllocator.free_frames`` computes the coalesced end state in one
vectorized pass instead of one climb per frame.  Hypothesis builds a
random buddy state (allocations of mixed orders, frees, dirty pages,
pinned frames, a ledger), deep-copies it into a twin, then frees one
random frame list on each side: in bulk on one, frame by frame on the
other.  The lists are random subsets in random order, and may carry
duplicates or frames that are already free.  After the step the two
sides must agree on

* both free-list dicts and ``_block_order``, as ordered item lists;
* ``free_pages``;
* the ``allocated``, ``owner`` and ``pinned`` columns;
* every ledger column, ring entry and ``events_recorded``;
* the error raised (type and message), with the same partial state.

``BuddyAllocator.check()`` runs on both sides after every step.  The
same comparison covers a ``NodeAllocator`` whose zones have unaligned
sizes, and ``free_runs`` (the run-wise bulk free process exit uses), on
the same lists and on ascending ones; ``completion_times`` is checked
against the orders the per-frame ``free`` calls return.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.audit import FrameLedger
from repro.errors import AllocationError
from repro.mem.buddy import BuddyAllocator
from repro.mem.frames import FrameTable
from repro.numa.allocator import NodeAllocator
from repro.numa.topology import NumaTopology
from tests.conftest import LEDGER_COLUMNS, buddy_snapshot

#: frame-table sizes: aligned, unaligned, and one short of a max-order block
SIZES = (1024, 1500, 2048 + 37, 1023)


def buddy_state(allocator) -> dict:
    """Everything ``free`` may change, with dict order kept."""
    led = allocator.frames.ledger
    return {
        **buddy_snapshot(allocator),
        "ledger": {name: getattr(led, name).tolist()
                   for name in LEDGER_COLUMNS},
        "events": led.events_recorded,
    }


def _attempt(fn) -> tuple[str, str] | None:
    try:
        fn()
    except AllocationError as err:
        return type(err).__name__, str(err)
    return None


def _build(data, allocator_of, split: bool = False):
    """A random allocator state with a ledger attached.

    With ``split``, some steps also pop a dirty free block and put its
    halves back unmerged, the way the pre-zero thread splits blocks it
    will not zero whole; :meth:`check` rejects those unmerged pairs, so
    it is skipped then.
    """
    size = data.draw(st.sampled_from(SIZES), label="size")
    frames = FrameTable(size)
    content = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="content"))
    frames.first_nonzero[:] = content.choice([-1, -1, 0, 7], size)
    allocator = allocator_of(frames)
    frames.ledger = FrameLedger(SimpleNamespace(
        frames=frames, stats=SimpleNamespace(epochs=3)))
    live: list[tuple[int, int]] = []
    ops = data.draw(st.lists(st.tuples(st.integers(0, 4 if split else 3),
                                       st.integers(0, 9),
                                       st.booleans(), st.integers(0, 10**6)),
                             max_size=60), label="ops")
    for kind, order, prefer_zero, pick in ops:
        if kind <= 1:  # allocate, twice as often as the rest
            got = allocator.try_alloc(order, prefer_zero, owner=pick % 5)
            if got is not None:
                live.append((got[0], order))
        elif kind == 2 and live:
            start, order = live.pop(pick % len(live))
            allocator.free(start, order)
        elif kind == 3 and live:
            start, order = live[pick % len(live)]
            frame = start + pick % (1 << order)
            frames.write(frame, first_nonzero=pick % 4096)
            frames.pinned[frame] = pick % 2 == 0
        elif kind == 4:
            popped = allocator.pop_nonzero_block(max_order=order)
            if popped is not None:
                start, got_order = popped
                if got_order == 0:
                    allocator.reinsert_dirty(start, 0)
                else:
                    half = 1 << (got_order - 1)
                    allocator.reinsert_dirty(start, got_order - 1)
                    allocator.reinsert_dirty(start + half, got_order - 1)
    if not split:
        allocator.check()
    return frames, allocator


def _victims(data, frames, ascending: bool = False) -> list[int]:
    """A random order over a random subset of allocated frames, maybe
    with a duplicate or an already-free frame mixed in.  ``ascending``
    sorts the subset instead, so it holds long runs of frames."""
    allocated = np.flatnonzero(frames.allocated).tolist()
    if data.draw(st.booleans(), label="all"):
        chosen = allocated
    else:
        chosen = data.draw(st.lists(st.sampled_from(allocated), unique=True)
                           if allocated else st.just([]), label="chosen")
    chosen = sorted(chosen) if ascending else data.draw(st.permutations(chosen),
                                                        label="order")
    spoil = data.draw(st.sampled_from(["none", "none", "dup", "free"]),
                      label="spoil")
    free = np.flatnonzero(~frames.allocated).tolist()
    if spoil == "dup" and chosen:
        at = data.draw(st.integers(0, len(chosen)), label="dup_at")
        chosen.insert(at, chosen[data.draw(st.integers(0, len(chosen) - 1))])
    elif spoil == "free" and free:
        at = data.draw(st.integers(0, len(chosen)), label="free_at")
        chosen.insert(at, data.draw(st.sampled_from(free), label="free"))
    return chosen


def _compare(data, allocator_of, split: bool = False, method: str = "free_frames"):
    frames, bulk = _build(data, allocator_of, split)
    _, scalar = copy.deepcopy((frames, bulk))
    victims = _victims(data, frames, method == "free_runs"
                       and data.draw(st.booleans(), label="ascending"))

    def loop():
        for frame in victims:
            scalar.free(frame, 0)

    want = _attempt(loop)
    got = _attempt(lambda: getattr(bulk, method)(np.asarray(victims, dtype=np.int64)))
    assert got == want
    assert buddy_state(bulk) == buddy_state(scalar)
    if not split:
        bulk.check()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_free_frames_matches_per_frame_loop(data):
    _compare(data, BuddyAllocator)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_free_frames_matches_loop_around_unmerged_buddies(data):
    """Free buddies left unmerged stay unmerged unless a free climbs
    through them, on both sides."""
    _compare(data, BuddyAllocator, split=True)


def _node_allocator(frames: FrameTable) -> NodeAllocator:
    n = frames.num_frames
    cuts = [0, n // 3 + 5, 2 * n // 3 - 11, n]
    return NodeAllocator(frames, NumaTopology(
        nodes=3, ranges=[(cuts[i], cuts[i + 1]) for i in range(3)]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_node_allocator_free_frames_matches_per_frame_loop(data):
    """Unaligned zones, split per zone in list order."""
    _compare(data, _node_allocator)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_free_runs_matches_per_frame_loop(data):
    """``free_runs`` against the same loop, on random and ascending lists,
    one zone or three unaligned ones, around unmerged buddies too."""
    split = data.draw(st.booleans(), label="split")
    _compare(data, data.draw(st.sampled_from([BuddyAllocator, _node_allocator])),
             split, method="free_runs")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_completion_times_match_free_orders(data):
    allocator_of = data.draw(st.sampled_from([BuddyAllocator, _node_allocator]))
    frames, allocator = _build(data, allocator_of)
    victims = data.draw(st.permutations(
        np.flatnonzero(frames.allocated).tolist()), label="victims")
    order = data.draw(st.integers(0, 10), label="order")
    times = allocator.completion_times(victims, order).tolist()
    ends = [allocator.free(frame, 0) for frame in victims]
    assert times == [i for i, end in enumerate(ends) if end >= order]


def test_free_frames_empty_list_is_a_no_op():
    frames = FrameTable(1024)
    buddy = BuddyAllocator(frames)
    before = buddy_snapshot(buddy)
    buddy.free_frames([])
    assert buddy_snapshot(buddy) == before


def test_free_frames_merges_with_preexisting_blocks():
    """Frees complete blocks that merge with an already-free buddy; the
    merged block lands at its completion time."""
    frames = FrameTable(1024)
    buddy = BuddyAllocator(frames)
    a, _ = buddy.alloc(order=9)
    b, _ = buddy.alloc(order=9)
    buddy.free(b, 9)  # b's block is free again: a's buddy
    buddy.free_frames(list(range(a + 511, a - 1, -1)))
    assert buddy_snapshot(buddy)["zones"][0][2] == [(0, 10)]
    assert buddy.free_pages == 1024
    buddy.check()


def test_check_flags_inconsistent_free_lists():
    frames = FrameTable(1024)
    buddy = BuddyAllocator(frames)
    buddy.check()
    start, _ = buddy.alloc(order=0)
    buddy.free_pages += 1
    with pytest.raises(AllocationError, match="free_pages"):
        buddy.check()
    buddy.free_pages -= 1
    frames.allocated[start] = False
    with pytest.raises(AllocationError, match="unallocated"):
        buddy.check()
    frames.allocated[start] = True
    del buddy._zero[0][start + 1]  # a zero-content block on the dirty list
    buddy._nonzero[0][start + 1] = None
    with pytest.raises(AllocationError, match="against its content"):
        buddy.check()
    del buddy._nonzero[0][start + 1]
    buddy._zero[0][start + 1] = None
    buddy.check()
    frames.mark_free(start, 1)  # freed without coalescing
    buddy._insert(start, 0, zeroed=True)
    with pytest.raises(AllocationError, match="left unmerged"):
        buddy.check()
