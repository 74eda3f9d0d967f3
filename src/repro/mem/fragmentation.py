"""Fragmentation metrics and a controlled memory fragmenter.

``fmfi`` is the Free Memory Fragmentation Index Ingens consults (after
Gorman & Whitcroft's *unusable free space index*): the fraction of free
memory that cannot be used to satisfy an allocation of the given order.
0.0 means every free page sits in a sufficiently large block; 1.0 means
no block of the requested order exists.  Ingens switches from aggressive
to conservative huge-page promotion when FMFI crosses 0.5 (paper §2.1).

``Fragmenter`` reproduces the paper's experimental setup of fragmenting
memory "by reading several files in memory" before launching workloads
(§4, Figure 5 setup): it fills free memory with single-frame file-cache
pages and releases a random subset, leaving the free space shattered into
low-order blocks.  The retained pages behave like page cache: they are
*reclaimable* one page at a time when the kernel runs out of memory, but
they keep physical contiguity broken until compaction migrates around
them.
"""

from __future__ import annotations

import random
from bisect import bisect_right

from repro.mem.buddy import BuddyAllocator
from repro.units import HUGE_PAGE_ORDER, PAGES_PER_HUGE

#: Owner id used for fragmenter (file-cache) frames.
FILE_CACHE_OWNER = -2


def fmfi(buddy: BuddyAllocator, order: int = 9) -> float:
    """Fraction of free memory unusable for an order-``order`` allocation."""
    return _unusable(buddy.free_pages, _usable(buddy, order))


def _usable(buddy: BuddyAllocator, order: int) -> int:
    """Free pages in blocks of at least ``order``."""
    counts = buddy.free_block_counts()
    return sum((1 << o) * n for o, n in enumerate(counts) if o >= order)


def _unusable(free: int, usable: int) -> float:
    """The FMFI arithmetic: unusable share of ``free`` pages."""
    if free == 0:
        return 1.0
    return (free - usable) / free


class Fragmenter:
    """Deliberately fragments physical memory with reclaimable file pages."""

    def __init__(self, buddy: BuddyAllocator, seed: int = 7):
        self.buddy = buddy
        self._rng = random.Random(seed)
        self._cache_pages: set[int] = set()

    @property
    def cache_pages(self) -> int:
        """File-cache frames currently held (reclaimable)."""
        return len(self._cache_pages)

    def migrate_page(self, old: int, new: int) -> bool:
        """Compaction support: clean page-cache pages are movable."""
        if old not in self._cache_pages:
            return False
        self._cache_pages.discard(old)
        self._cache_pages.add(new)
        return True

    def fragment(self, keep_fraction: float = 0.1, target_fmfi: float | None = None) -> float:
        """Fill free memory with file pages, then evict all but ``keep_fraction``.

        Returns the resulting order-9 FMFI.  ``target_fmfi`` stops early
        once the index is reached (useful for partially fragmented setups).

        The fill is one bulk allocation and the evict one bulk free, each
        leaving the state of the per-frame loop they replace.
        """
        buddy = self.buddy
        taken = [
            frame
            for start, count, _ in buddy.try_alloc_run(
                buddy.free_pages, prefer_zero=False, owner=FILE_CACHE_OWNER)
            for frame in range(start, start + count)
        ]
        self._rng.shuffle(taken)
        keep = int(len(taken) * keep_fraction)
        kept, to_free = taken[:keep], taken[keep:]
        self._cache_pages.update(kept)
        if target_fmfi is not None and to_free:
            stop = self._early_stop(to_free, target_fmfi)
            self._cache_pages.update(to_free[stop + 1:])
            to_free = to_free[:stop + 1]
        buddy.free_frames(to_free)
        return fmfi(buddy)

    def _early_stop(self, to_free: list[int], target_fmfi: float) -> int:
        """Index of the free after which the order-9 FMFI first reaches
        ``target_fmfi`` (the last index when it never does).

        Between frees that do not complete an order-9 block, ``usable``
        is constant while ``free`` grows, so the index cannot drop; it
        can only reach the target at the first free, or at a free that
        makes an order-9 block whole (each adds 512 usable pages).  The
        index is evaluated at exactly those frees.
        """
        buddy = self.buddy
        free0 = buddy.free_pages
        usable0 = _usable(buddy, HUGE_PAGE_ORDER)
        done = buddy.completion_times(to_free, HUGE_PAGE_ORDER).tolist()
        for i in [0] + done:
            usable = usable0 + bisect_right(done, i) * PAGES_PER_HUGE
            if _unusable(free0 + i + 1, usable) <= target_fmfi:
                return i
        return len(to_free) - 1

    def reclaim(self, npages: int) -> int:
        """Evict up to ``npages`` file-cache pages (memory-pressure path).

        Clean page-cache pages are the kernel's cheapest reclaim target;
        the simulator evicts them before declaring out-of-memory.
        """
        victims = [self._cache_pages.pop()
                   for _ in range(min(max(npages, 0), len(self._cache_pages)))]
        self.buddy.free_frames(victims)
        return len(victims)

    def release_all(self) -> int:
        """Drop the entire simulated file cache."""
        return self.reclaim(len(self._cache_pages))
