"""Property-based tests for the buddy allocator (hypothesis).

Invariants checked under arbitrary alloc/free/zeroing interleavings:

* page conservation: free_pages + allocated == total, always;
* free-list exactness: every free block is tracked at exactly one order,
  blocks never overlap, and their union is exactly the non-allocated
  frame set;
* zero-list soundness: a block on a zero list contains only zero-content
  frames (mapping a "zero" block without clearing is *always* safe);
* maximal coalescing: no two free buddy blocks of the same order remain
  unmerged;
* ``free_range`` over a run crossing huge-region and max-order
  boundaries leaves the free lists, in dict order, exactly as per-frame
  ``free`` calls over the same run do.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mem.buddy import BuddyAllocator
from repro.mem.frames import FrameTable
from tests.conftest import buddy_snapshot

NUM_FRAMES = 1024


class BuddyMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.frames = FrameTable(NUM_FRAMES)
        self.buddy = BuddyAllocator(self.frames)
        self.live: list[tuple[int, int]] = []  # (start, order)

    @rule(order=st.integers(0, 9), prefer_zero=st.booleans())
    def alloc(self, order, prefer_zero):
        got = self.buddy.try_alloc(order, prefer_zero)
        if got is not None:
            start, zeroed = got
            if zeroed:
                assert self.frames.zero_mask(start, 1 << order).all()
            self.live.append((start, order))

    @rule(idx=st.integers(0, 200))
    def free_block(self, idx):
        if not self.live:
            return
        start, order = self.live.pop(idx % len(self.live))
        self.buddy.free(start, order)

    @rule(idx=st.integers(0, 200), offset=st.integers(0, 511))
    def dirty_a_page(self, idx, offset):
        if not self.live:
            return
        start, order = self.live[idx % len(self.live)]
        self.frames.write(start + (offset % (1 << order)), first_nonzero=0)

    @rule()
    def prezero_step(self):
        block = self.buddy.pop_nonzero_block()
        if block is not None:
            self.buddy.reinsert_zeroed(*block)

    @invariant()
    def conservation(self):
        live_pages = sum(1 << order for _, order in self.live)
        assert self.buddy.free_pages + live_pages == NUM_FRAMES
        assert self.frames.allocated_count() == live_pages

    @invariant()
    def free_lists_exact(self):
        seen = set()
        for start, order, zeroed in self.buddy.iter_free_blocks():
            block = set(range(start, start + (1 << order)))
            assert not (block & seen), "overlapping free blocks"
            seen |= block
            assert not self.frames.allocated[start:start + (1 << order)].any()
            if zeroed:
                assert self.frames.zero_mask(start, 1 << order).all()
        unallocated = NUM_FRAMES - self.frames.allocated_count()
        assert len(seen) == unallocated

    @invariant()
    def maximally_coalesced(self):
        orders = dict(self.buddy._block_order)
        for start, order in orders.items():
            if order >= self.buddy.max_order:
                continue
            buddy = start ^ (1 << order)
            assert orders.get(buddy) != order, (
                f"buddies {start}/{buddy} at order {order} left unmerged"
            )


BuddyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestBuddyProperties = BuddyMachine.TestCase


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_alloc_all_then_free_all_restores_pristine_state(orders):
    frames = FrameTable(NUM_FRAMES)
    buddy = BuddyAllocator(frames)
    pristine = buddy.free_block_counts()
    live = []
    for order in orders:
        got = buddy.try_alloc(order)
        if got is not None:
            live.append((got[0], order))
    for start, order in reversed(live):
        buddy.free(start, order)
    assert buddy.free_pages == NUM_FRAMES
    assert buddy.free_block_counts() == pristine


@given(st.integers(1, NUM_FRAMES), st.integers(0, NUM_FRAMES - 1))
@settings(max_examples=60, deadline=None)
def test_free_range_conserves(count, start):
    frames = FrameTable(NUM_FRAMES)
    buddy = BuddyAllocator(frames)
    count = min(count, NUM_FRAMES - start)
    if count <= 0:
        return
    # allocate everything, then free an arbitrary range
    while buddy.try_alloc(0) is not None:
        pass
    buddy.free_range(start, count)
    assert buddy.free_pages == count
    assert not frames.allocated[start:start + count].any()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_free_range_across_boundaries_matches_per_frame_frees(data):
    """One ``free_range`` over a run that crosses a 512-frame region end
    and/or a 1024-frame max-order window equals ``free(f, 0)`` frame by
    frame, ascending: ``Kernel._unmap_base_batched`` cuts its runs at
    region ends only for the float order of its cost sum."""
    size = 2048
    frames = FrameTable(size)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    frames.first_nonzero[:] = rng.choice([-1, -1, -1, 5], size)
    buddy = BuddyAllocator(frames)
    buddy.try_alloc_run(size)
    boundary = data.draw(st.sampled_from([512, 1024, 1536]), label="boundary")
    lo = boundary - data.draw(st.integers(1, 512), label="below")
    hi = boundary + data.draw(st.integers(1, 512), label="above")
    # free neighbours first, in random order, so the run merges into them
    outside = np.r_[0:lo, hi:size]
    for f in rng.permutation(outside[rng.random(outside.size) < 0.5]).tolist():
        buddy.free(f, 0)
    twin = copy.deepcopy(buddy)
    buddy.free_range(lo, hi - lo)
    for f in range(lo, hi):
        twin.free(f, 0)
    assert buddy_snapshot(buddy) == buddy_snapshot(twin)
    buddy.check()
