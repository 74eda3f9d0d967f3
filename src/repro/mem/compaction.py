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

        Destinations come one buddy extent at a time, the frame sequence
        of per-page ``try_alloc(0)`` calls.  Each extent is peeked first
        and its pages offered to the migrate callback in turn; then
        exactly the pages the per-page loop would have allocated are
        taken, a prefix of the peeked extent, up to and including a
        destination the callback refused (freed again at once, as the
        per-page loop frees it).  The callback never reads allocator
        state, so calling it before the allocation changes nothing.
        """
        buddy = self.buddy
        frames = buddy.frames
        chunk_end = chunk_start + PAGES_PER_HUGE
        occupied = (np.flatnonzero(frames.allocated[chunk_start:chunk_end])
                    + chunk_start).tolist()
        carved = buddy.carve_range(chunk_start, chunk_end)
        dests: list[int] = []
        moved = 0
        refused = None
        while moved < len(occupied) and refused is None:
            ext = buddy.peek_run_extent(len(occupied) - moved, prefer_zero=False)
            if ext is None:
                break
            start, count, _ = ext
            for new in range(start, start + count):
                if not self.migrate(occupied[moved], new):
                    refused = new
                    break
                moved += 1
            take = count if refused is None else refused + 1 - start
            got = buddy.try_alloc_run_extent(take, prefer_zero=False)
            assert got is not None and got[:2] == (start, take)
            dests.extend(range(start, start + take))
        old = np.asarray(occupied[:moved], dtype=np.int64)
        new = np.asarray(dests[:moved], dtype=np.int64)
        # Content moves with the page, and so does its provenance.
        frames.first_nonzero[new] = frames.first_nonzero[old]
        frames.content_tag[new] = frames.content_tag[old]
        frames.owner[new] = frames.owner[old]
        if (led := frames.ledger) is not None and led.enabled:
            led.on_compact(old, new)
        if refused is not None:
            buddy.free(refused, 0)
        # Reassemble the hole only after all destinations are allocated,
        # so in-chunk frames never re-enter the free lists mid-migration.
        for start, order in carved:
            buddy.insert_free_block(start, order)
        buddy.free_frames(old)
        run_stats.pages_moved += moved
        return moved == len(occupied)
