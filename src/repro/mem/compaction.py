"""Memory compaction: migrate movable pages to rebuild huge-page blocks.

Models Linux's compaction pass (Corbet, "Memory compaction") at the level
the paper depends on: sparse huge-page-sized chunks are emptied by
migrating their movable frames into already-fragmented space, and the
buddy allocator's coalescing turns the vacated chunks into order-9 blocks
that huge-page promotion can then use.  Each migrated page costs a copy,
which the caller charges to the simulated clock; compaction runs are
budgeted so background promotion stays rate-limited like ``khugepaged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import audit
from repro.mem.buddy import BuddyAllocator
from repro.units import HUGE_PAGE_ORDER, PAGES_PER_HUGE

#: Kernel-side callback that rebinds every reference to ``old`` frame onto
#: ``new`` (page tables, rmap, file cache).  Returns False when the frame
#: cannot be migrated, in which case compaction gives the chunk up.
MigrateFn = Callable[[int, int], bool]


@dataclass
class CompactionStats:
    pages_moved: int = 0
    blocks_created: int = 0
    chunks_abandoned: int = 0
    runs: int = 0

    def merge(self, other: "CompactionStats") -> None:
        """Accumulate another run's counters into this one."""
        self.pages_moved += other.pages_moved
        self.blocks_created += other.blocks_created
        self.chunks_abandoned += other.chunks_abandoned
        self.runs += other.runs


@dataclass
class Compactor:
    """Budgeted compaction over a buddy allocator.

    ``lo``/``hi`` bound the frame range scanned for candidate chunks; a
    NUMA zone passes its own range so compaction never migrates pages
    across a node boundary.  The defaults cover the whole frame table.
    """

    buddy: BuddyAllocator
    migrate: MigrateFn
    stats: CompactionStats = field(default_factory=CompactionStats)
    lo: int = 0
    hi: int | None = None

    def _candidate_chunks(self) -> list[tuple[int, int]]:
        """Huge-aligned chunks sorted by occupancy (emptiest first).

        A chunk qualifies when it is partially allocated, contains no
        pinned frame, and is cheaper to empty than to leave (occupancy
        under half the chunk).
        """
        frames = self.buddy.frames
        hi = frames.num_frames if self.hi is None else self.hi
        first = -(-self.lo // PAGES_PER_HUGE)       # first whole chunk
        last = hi // PAGES_PER_HUGE                  # one past the last
        nchunks = last - first
        if nchunks <= 0:
            return []
        window = slice(first * PAGES_PER_HUGE, last * PAGES_PER_HUGE)
        alloc = frames.allocated[window].reshape(nchunks, PAGES_PER_HUGE)
        pinned = frames.pinned[window].reshape(nchunks, PAGES_PER_HUGE)
        occupancy = alloc.sum(axis=1)
        ok = (occupancy > 0) & (occupancy <= PAGES_PER_HUGE // 2) & ~pinned.any(axis=1)
        order = np.argsort(occupancy, kind="stable")
        return [((first + int(c)) * PAGES_PER_HUGE, int(occupancy[c]))
                for c in order if ok[c]]

    def run(self, budget_pages: int) -> CompactionStats:
        """Migrate up to ``budget_pages`` frames; returns stats for this run."""
        run_stats = CompactionStats(runs=1)
        frames = self.buddy.frames
        for chunk_start, _ in self._candidate_chunks():
            # Recompute occupancy: destination pages from earlier chunks
            # may have landed here since the candidate list was built.
            occupancy = int(
                frames.allocated[chunk_start:chunk_start + PAGES_PER_HUGE].sum()
            )
            if run_stats.pages_moved + occupancy > budget_pages:
                break
            if not self._empty_chunk(chunk_start, run_stats):
                run_stats.chunks_abandoned += 1
                continue
            # Freeing the migrated frames coalesced the chunk if nothing
            # else inside it was allocated.
            if not frames.allocated[chunk_start:chunk_start + PAGES_PER_HUGE].any():
                run_stats.blocks_created += 1
        self.stats.merge(run_stats)
        return run_stats

    def _empty_chunk(self, chunk_start: int, run_stats: CompactionStats) -> bool:
        """Migrate every allocated frame out of one huge-aligned chunk.

        The chunk's own free blocks are carved off the free lists first
        so destination allocations always land outside; migrated frames
        are freed into the carved-out "hole" afterwards, letting buddy
        coalescing rebuild the full order-9 block.
        """
        frames = self.buddy.frames
        chunk_end = chunk_start + PAGES_PER_HUGE
        occupied = np.flatnonzero(frames.allocated[chunk_start:chunk_end]) + chunk_start
        carved = self.buddy.carve_range(chunk_start, chunk_end)
        ok = True
        emptied: list[int] = []
        for old in occupied:
            new = self._alloc_outside(chunk_start, chunk_end)
            if new is None:
                ok = False
                break
            old = int(old)
            if not self.migrate(old, new):
                self.buddy.free(new, 0)
                ok = False
                break
            # Content moves with the page.
            frames.first_nonzero[new] = frames.first_nonzero[old]
            frames.content_tag[new] = frames.content_tag[old]
            frames.owner[new] = frames.owner[old]
            # ... and so does its provenance (page_owner's
            # __folio_copy_owner); the migration itself is an event on
            # the destination frame, attributed to compaction.
            if (led := frames.ledger) is not None and led.enabled:
                led.copy_provenance(old, new)
                led.record(new, 1, audit.EV_COMPACTED, old)
                led.set_site(new, 1, audit.SITE_COMPACT)
            emptied.append(old)
        # Reassemble the hole only after all destinations are allocated,
        # so in-chunk frames never re-enter the free lists mid-migration.
        for start, order in carved:
            self.buddy.insert_free_block(start, order)
        for old in emptied:
            self.buddy.free(old, 0)
        run_stats.pages_moved += len(emptied)
        return ok

    def _alloc_outside(self, lo: int, hi: int) -> int | None:
        """Allocate a destination frame outside ``[lo, hi)``.

        The caller carved the chunk's free blocks off the free lists, so
        a fresh allocation cannot land inside; the guard below is a
        safety net only.
        """
        got = self.buddy.try_alloc(order=0, prefer_zero=False)
        if got is None:
            return None
        frame = got[0]
        if lo <= frame < hi:  # pragma: no cover - carved chunks prevent this
            self.buddy.free(frame, 0)
            return None
        return frame
