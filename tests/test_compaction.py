"""Unit tests for memory compaction."""

import copy
from types import MethodType, SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import oracle
from repro.audit import FrameLedger
from repro.mem.buddy import BuddyAllocator
from repro.mem.compaction import CompactionStats, Compactor
from repro.mem.frames import FrameTable
from repro.units import PAGES_PER_HUGE
from tests.conftest import LEDGER_COLUMNS, buddy_snapshot


class MigrationRegistry:
    """Trivial rmap standing in for the kernel's migrate callback."""

    def __init__(self):
        self.locations: dict[int, int] = {}  # logical page -> frame
        self.by_frame: dict[int, int] = {}
        self.refuse: set[int] = set()

    def place(self, logical: int, frame: int) -> None:
        self.locations[logical] = frame
        self.by_frame[frame] = logical

    def migrate(self, old: int, new: int) -> bool:
        if old in self.refuse:
            return False
        logical = self.by_frame.pop(old, None)
        if logical is None:
            return False
        self.place(logical, new)
        return True


def sparse_setup(num_frames=8192, per_chunk=10):
    """Allocate a few frames in every chunk so no order-9 block exists."""
    frames = FrameTable(num_frames)
    buddy = BuddyAllocator(frames)
    reg = MigrationRegistry()
    logical = 0
    taken = []
    while True:
        got = buddy.try_alloc(0, prefer_zero=False)
        if got is None:
            break
        taken.append(got[0])
    # keep `per_chunk` frames per chunk, free the rest
    keep = []
    for chunk in range(num_frames // PAGES_PER_HUGE):
        base = chunk * PAGES_PER_HUGE
        keep.extend(range(base, base + per_chunk))
    keep_set = set(keep)
    for f in taken:
        if f in keep_set:
            reg.place(logical, f)
            logical += 1
        else:
            buddy.free(f, 0)
    return frames, buddy, reg


def test_compaction_creates_huge_blocks():
    frames, buddy, reg = sparse_setup()
    assert buddy.free_blocks_at_least(9) == 0
    compactor = Compactor(buddy, reg.migrate)
    stats = compactor.run(budget_pages=200)
    assert stats.blocks_created > 0
    # created order-9 blocks may have coalesced into order-10 blocks;
    # compare order-9 allocation *capacity* instead of block count
    counts = buddy.free_block_counts()
    capacity = sum((1 << (o - 9)) * n for o, n in enumerate(counts) if o >= 9)
    assert capacity >= stats.blocks_created
    assert stats.pages_moved <= 200


def test_compaction_preserves_mappings_and_content():
    frames, buddy, reg = sparse_setup()
    # give each mapped frame distinctive content
    for logical, frame in reg.locations.items():
        frames.write(frame, first_nonzero=logical % 4096, tag=1000 + logical)
    compactor = Compactor(buddy, reg.migrate)
    compactor.run(budget_pages=500)
    for logical, frame in reg.locations.items():
        assert frames.allocated[frame]
        assert frames.content_tag[frame] == 1000 + logical
        assert frames.first_nonzero[frame] == logical % 4096


def test_compaction_respects_budget():
    frames, buddy, reg = sparse_setup()
    compactor = Compactor(buddy, reg.migrate)
    stats = compactor.run(budget_pages=15)
    assert stats.pages_moved <= 15


def test_unmovable_frame_abandons_chunk():
    frames, buddy, reg = sparse_setup(num_frames=2048)
    victim = next(iter(reg.by_frame))
    reg.refuse.add(victim)
    compactor = Compactor(buddy, reg.migrate)
    stats = compactor.run(budget_pages=10_000)
    assert stats.chunks_abandoned >= 1
    assert frames.allocated[victim]


def test_pinned_chunks_skipped():
    frames, buddy, reg = sparse_setup(num_frames=2048)
    some_frame = next(iter(reg.by_frame))
    frames.pinned[some_frame] = True
    compactor = Compactor(buddy, reg.migrate)
    compactor.run(budget_pages=10_000)
    assert frames.allocated[some_frame]
    chunk = some_frame // PAGES_PER_HUGE
    lo = chunk * PAGES_PER_HUGE
    assert frames.allocated[lo:lo + PAGES_PER_HUGE].sum() >= 1


def test_stats_merge():
    a = CompactionStats(pages_moved=1, blocks_created=2, chunks_abandoned=3, runs=1)
    b = CompactionStats(pages_moved=10, blocks_created=20, chunks_abandoned=30, runs=2)
    a.merge(b)
    assert (a.pages_moved, a.blocks_created, a.chunks_abandoned, a.runs) == (11, 22, 33, 3)


def test_free_page_conservation():
    frames, buddy, reg = sparse_setup()
    before_free = buddy.free_pages
    before_alloc = frames.allocated_count()
    compactor = Compactor(buddy, reg.migrate)
    compactor.run(budget_pages=300)
    assert buddy.free_pages == before_free
    assert frames.allocated_count() == before_alloc


def _random_layout(data, num_frames):
    """Frames mapped at random (per-chunk density varies), the rest freed
    in random order; some mappings refuse to move."""
    frames = FrameTable(num_frames)
    frames.first_nonzero[:] = np.random.default_rng(
        data.draw(st.integers(0, 2**32 - 1), label="content")
    ).choice([-1, -1, 0, 9], num_frames)
    buddy = BuddyAllocator(frames)
    frames.ledger = FrameLedger(SimpleNamespace(
        frames=frames, stats=SimpleNamespace(epochs=5)))
    reg = MigrationRegistry()
    taken = []
    while (got := buddy.try_alloc(0, prefer_zero=False, owner=4)) is not None:
        taken.append(got[0])
    density = data.draw(st.lists(st.floats(0.0, 1.0), min_size=num_frames // 512,
                                 max_size=num_frames // 512), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="keep"))
    keep = [f for f in taken if rng.random() < density[f // 512] * 0.6]
    kept = set(keep)
    for logical, frame in enumerate(keep):
        reg.place(logical, frame)
    buddy.free_frames(rng.permutation([f for f in taken if f not in kept]))
    refuse = data.draw(st.lists(st.sampled_from(keep), max_size=4)
                       if keep else st.just([]), label="refuse")
    reg.refuse.update(refuse)
    return frames, buddy, reg


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_batched_evacuation_matches_per_page_reference(data):
    """Per-extent ``_empty_chunk`` against the per-page reference body in
    :mod:`repro.oracle`, refused migrations included: same stats, free
    lists (dict order kept), frame columns, ledger and mappings."""
    frames, buddy, reg = _random_layout(data, data.draw(
        st.sampled_from([2048, 4096]), label="frames"))
    twin_frames, twin_buddy, twin_reg = copy.deepcopy((frames, buddy, reg))
    batched = Compactor(buddy, reg.migrate)
    reference = Compactor(twin_buddy, twin_reg.migrate)
    reference._empty_chunk = MethodType(oracle.empty_chunk, reference)
    for budget in data.draw(st.lists(st.integers(1, 1500), min_size=1,
                                     max_size=3), label="budgets"):
        assert batched.run(budget) == reference.run(budget)
        assert buddy_snapshot(buddy) == buddy_snapshot(twin_buddy)
        for name in LEDGER_COLUMNS:
            assert np.array_equal(getattr(frames.ledger, name),
                                  getattr(twin_frames.ledger, name)), name
        assert frames.ledger.events_recorded == twin_frames.ledger.events_recorded
        assert reg.locations == twin_reg.locations
        buddy.check()


def test_refused_migration_mid_extent_matches_reference():
    """A refusal in the middle of a destination extent: only the pages
    the per-page reference allocates are taken, and the state matches."""
    def layout():
        frames = FrameTable(2048)
        frames.first_nonzero[:] = 0  # dirty: destinations come whole
        buddy = BuddyAllocator(frames)
        frames.ledger = FrameLedger(SimpleNamespace(
            frames=frames, stats=SimpleNamespace(epochs=2)))
        reg = MigrationRegistry()
        taken = [buddy.alloc(0, prefer_zero=False)[0] for _ in range(2048)]
        movable = list(range(10))  # ten pages in chunk 0
        hole = range(1024 + 64, 1024 + 96)  # one free order-5 block
        for logical, frame in enumerate(movable):
            reg.place(logical, frame)
        buddy.free_frames([f for f in taken
                           if f not in movable and f not in range(1024, 2048)]
                          + list(hole))
        reg.refuse.add(movable[3])
        return frames, buddy, reg

    frames, buddy, reg = layout()
    twin_frames, twin_buddy, twin_reg = layout()
    reference = Compactor(twin_buddy, twin_reg.migrate)
    reference._empty_chunk = MethodType(oracle.empty_chunk, reference)
    stats = Compactor(buddy, reg.migrate).run(512)
    assert stats == reference.run(512)
    assert stats.chunks_abandoned == 1 and stats.pages_moved == 3
    assert buddy_snapshot(buddy) == buddy_snapshot(twin_buddy)
    for name in LEDGER_COLUMNS:
        assert np.array_equal(getattr(frames.ledger, name),
                              getattr(twin_frames.ledger, name)), name
    buddy.check()
