"""Unit tests for FMFI and the controlled fragmenter."""

from types import MethodType

import pytest

from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import Fragmenter, fmfi
from repro.mem.frames import FrameTable
from repro.numa.allocator import NodeAllocator
from repro.numa.topology import NumaTopology
from tests import oracle
from tests.conftest import buddy_snapshot


def make(num_frames=8192):
    frames = FrameTable(num_frames)
    buddy = BuddyAllocator(frames)
    return frames, buddy, Fragmenter(buddy)


def test_fmfi_zero_when_pristine():
    _, buddy, _ = make()
    assert fmfi(buddy) == 0.0


def test_fmfi_one_when_memory_exhausted():
    _, buddy, _ = make(1024)
    buddy.alloc(order=10)
    assert fmfi(buddy) == 1.0


def test_fmfi_rises_with_fragmentation():
    _, buddy, frag = make()
    low = fmfi(buddy)
    frag.fragment(keep_fraction=0.05)
    assert fmfi(buddy) > low
    assert fmfi(buddy) > 0.9, "scattered 5% residue should break all order-9 blocks"


def test_fragment_keeps_requested_fraction():
    _, buddy, frag = make(8192)
    frag.fragment(keep_fraction=0.1)
    assert frag.cache_pages == pytest.approx(8192 * 0.1, rel=0.05)
    assert buddy.allocated_pages == frag.cache_pages


def test_fragment_with_target_fmfi_stops_early():
    # keep_fraction 0 would normally release everything (FMFI back to 0);
    # the target makes the fragmenter stop while still fragmented.
    _, buddy, frag = make(8192)
    result = frag.fragment(keep_fraction=0.0, target_fmfi=0.6)
    assert result <= 0.6
    assert frag.cache_pages > 0, "early stop retains extra pages in the cache"


def naive_fragment(frag: Fragmenter, keep_fraction: float, target_fmfi: float):
    """Reference implementation: recompute FMFI after every single free.

    This is the O(frees x fmfi) loop the incremental early-stop check in
    ``Fragmenter.fragment`` replaced; kept here to pin exact equivalence.
    """
    taken = []
    while True:
        got = frag.buddy.try_alloc(order=0, prefer_zero=False, owner=-2)
        if got is None:
            break
        taken.append(got[0])
    frag._rng.shuffle(taken)
    keep = int(len(taken) * keep_fraction)
    kept, to_free = taken[:keep], taken[keep:]
    frag._cache_pages.update(kept)
    for i, frame in enumerate(to_free):
        frag.buddy.free(frame, 0)
        if fmfi(frag.buddy) <= target_fmfi:
            frag._cache_pages.update(to_free[i + 1:])
            return fmfi(frag.buddy)
    return fmfi(frag.buddy)


@pytest.mark.parametrize("target", [0.3, 0.6, 0.9, 1.0])
def test_target_fmfi_matches_every_free_reference(target):
    """The event-driven early stop lands on the exact same frame (and
    therefore identical FMFI and cache contents) as the per-free scan."""
    _, _, frag_fast = make(8192)
    _, _, frag_ref = make(8192)
    fast = frag_fast.fragment(keep_fraction=0.0, target_fmfi=target)
    ref = naive_fragment(frag_ref, keep_fraction=0.0, target_fmfi=target)
    assert fast == ref
    assert frag_fast.cache_pages == frag_ref.cache_pages
    assert frag_fast._cache_pages == frag_ref._cache_pages


def test_target_fmfi_checks_only_on_coalesce_events(monkeypatch):
    """Setup cost: FMFI is recomputed per order-9 coalesce, not per free."""
    import repro.mem.fragmentation as fragmentation

    _, _, frag = make(8192)
    calls = {"n": 0}
    real = fragmentation.fmfi

    def counting(buddy, order=9):
        calls["n"] += 1
        return real(buddy, order)

    monkeypatch.setattr(fragmentation, "fmfi", counting)
    frag.fragment(keep_fraction=0.0, target_fmfi=0.0)  # frees all 8192 frames
    assert calls["n"] <= 8192 // 256, "FMFI recomputed far too often"


def test_buddy_free_returns_coalesced_order():
    frames = FrameTable(1024)
    buddy = BuddyAllocator(frames)
    start, _ = buddy.alloc(order=9)
    for i in range(512):
        order = buddy.free(start + 511 - i, 0)
        if i < 511:
            # the order-9 block cannot complete until every frame is back
            assert order < 9
        else:
            # the last free completes order 9 and then merges with the
            # other (always-free) order-9 block of the 1024-frame table
            assert order >= 9


def test_reclaim_frees_cache_pages():
    _, buddy, frag = make()
    frag.fragment(keep_fraction=0.2)
    held = frag.cache_pages
    freed = frag.reclaim(100)
    assert freed == 100
    assert frag.cache_pages == held - 100
    assert buddy.free_pages == 8192 - held + 100


def test_reclaim_bounded_by_cache():
    _, buddy, frag = make(1024)
    frag.fragment(keep_fraction=0.01)
    held = frag.cache_pages
    freed = frag.reclaim(10_000)
    assert freed == held
    assert frag.cache_pages == 0
    assert buddy.free_pages == 1024


def test_release_all_restores_memory():
    _, buddy, frag = make()
    frag.fragment(keep_fraction=0.3)
    frag.release_all()
    assert buddy.free_pages == 8192
    assert fmfi(buddy) == 0.0, "coalescing must fully rebuild order-9 blocks"


def test_migrate_page_moves_cache_entry():
    _, buddy, frag = make(1024)
    frag.fragment(keep_fraction=0.1)
    victim = next(iter(frag._cache_pages))
    assert frag.migrate_page(victim, 999_999) is True
    assert victim not in frag._cache_pages
    assert 999_999 in frag._cache_pages
    assert frag.migrate_page(victim, 5) is False


def _fragmenter(nodes: int) -> Fragmenter:
    frames = FrameTable(4096)
    frames.first_nonzero[::3] = 0  # mixed content: zero and dirty blocks
    if nodes == 1:
        return Fragmenter(BuddyAllocator(frames))
    return Fragmenter(NodeAllocator(frames, NumaTopology(
        nodes=3, ranges=[(0, 1000), (1000, 2600), (2600, 4096)])))


@pytest.mark.parametrize("nodes", [1, 3])
@pytest.mark.parametrize("keep", [0.0, 0.05, 0.5])
def test_target_fmfi_sweep_matches_reference(nodes, keep):
    """Bulk fill + evict against the per-frame reference body for a sweep
    of targets: unreachable ones (below any index the evict reaches),
    already-met ones (stop after the first free) and everything between,
    on one zone and on three unaligned NUMA zones."""
    for target in (None, -0.1, 0.0, 0.3, 0.6, 0.9, 0.99, 1.0, 1.5):
        bulk, ref = _fragmenter(nodes), _fragmenter(nodes)
        ref.fragment = MethodType(oracle.fragment, ref)
        result = bulk.fragment(keep_fraction=keep, target_fmfi=target)
        assert result == ref.fragment(keep_fraction=keep, target_fmfi=target)
        assert bulk._cache_pages == ref._cache_pages
        assert buddy_snapshot(bulk.buddy) == buddy_snapshot(ref.buddy)
        bulk.buddy.check()
        # a second burst starts from the fragmented state
        result = bulk.fragment(keep_fraction=keep, target_fmfi=target)
        assert result == ref.fragment(keep_fraction=keep, target_fmfi=target)
        assert buddy_snapshot(bulk.buddy) == buddy_snapshot(ref.buddy)
        assert bulk.reclaim(300) == ref.reclaim(300)
        assert buddy_snapshot(bulk.buddy) == buddy_snapshot(ref.buddy)
        assert bulk._cache_pages == ref._cache_pages
