"""Per-node buddy zones behind the single-allocator surface.

:class:`NodeAllocator` carves the shared :class:`FrameTable` into one
:class:`BuddyAllocator` zone per node and re-exposes the *exact* method
surface the kernel already consumes, so every existing caller (fault
path, fragmenter, pre-zero thread, compaction, procfs) works unchanged.
Buddy coalescing cannot cross zones by construction: a zone only merges
with buddies present in its own block index.

Allocation takes an optional ``node`` preference.  Misses spill to the
remaining nodes in distance order (nearest first, ties by node id —
Linux's zonelist fallback), unless the caller's mempolicy is a strict
bind.  Linux-style ``numa_hit`` / ``numa_miss`` / ``numa_foreign``
counters record where allocations landed relative to where they were
asked to land.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import AllocationError
from repro.mem.buddy import BuddyAllocator
from repro.mem.compaction import CompactionStats, Compactor, MigrateFn
from repro.mem.frames import NO_OWNER, FrameTable
from repro.numa.topology import NodeMap, NumaTopology
from repro.units import MAX_ORDER


class NodeAllocator:
    """Facade over per-node buddy zones sharing one frame table."""

    def __init__(self, frames: FrameTable, topology: NumaTopology,
                 max_order: int = MAX_ORDER):
        self.frames = frames
        self.max_order = max_order
        self.topology = topology
        self.node_map = NodeMap(topology, frames.num_frames)
        self.zones = [
            BuddyAllocator(frames, max_order, start=start, end=end)
            for start, end in self.node_map.ranges
        ]
        self.nodes = len(self.zones)
        distance = topology.distance_matrix()
        #: per-source-node zone probe order: self first, then by distance.
        self._fallback = [
            sorted(range(self.nodes), key=lambda n: (distance[src][n], n))
            for src in range(self.nodes)
        ]
        # Linux numastat counters: hit = landed on the requested node,
        # miss = landed here though another node was requested,
        # foreign = was requested here but landed elsewhere.
        self.numa_hit = [0] * self.nodes
        self.numa_miss = [0] * self.nodes
        self.numa_foreign = [0] * self.nodes

    # ------------------------------------------------------------------ #
    # node helpers                                                       #
    # ------------------------------------------------------------------ #

    def node_of(self, frame: int) -> int:
        """The node whose zone owns ``frame``."""
        return self.node_map.node_of(frame)

    def node_of_arr(self, frames):
        """Vectorized :meth:`node_of` over an array of frame numbers."""
        return self.node_map.node_of_arr(frames)

    def zone(self, node: int) -> BuddyAllocator:
        """The buddy zone of one node."""
        return self.zones[node]

    def _probe_order(self, node: int | None, strict: bool) -> list[int]:
        if node is None:
            return self._fallback[0]
        if strict:
            return [node]
        return self._fallback[node]

    def _count(self, wanted: int | None, landed: int, pages: int) -> None:
        if wanted is None or wanted == landed:
            self.numa_hit[landed] += pages
        else:
            self.numa_miss[landed] += pages
            self.numa_foreign[wanted] += pages

    # ------------------------------------------------------------------ #
    # allocation                                                         #
    # ------------------------------------------------------------------ #

    def try_alloc(
        self, order: int = 0, prefer_zero: bool = True, owner: int = NO_OWNER,
        node: int | None = None, strict: bool = False,
    ) -> tuple[int, bool] | None:
        """Allocate from the preferred node, spilling by distance."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} outside [0, {self.max_order}]")
        for candidate in self._probe_order(node, strict):
            got = self.zones[candidate].try_alloc(order, prefer_zero, owner)
            if got is not None:
                self._count(node, candidate, 1 << order)
                return got
        return None

    def alloc(
        self, order: int = 0, prefer_zero: bool = True, owner: int = NO_OWNER,
        node: int | None = None, strict: bool = False,
    ) -> tuple[int, bool]:
        """Like :meth:`try_alloc` but raises on failure."""
        got = self.try_alloc(order, prefer_zero, owner, node=node, strict=strict)
        if got is None:
            raise AllocationError(f"no free block of order {order}")
        return got

    def try_alloc_run_extent(
        self, max_pages: int, prefer_zero: bool = True, owner: int = NO_OWNER,
        node: int | None = None, strict: bool = False,
    ) -> tuple[int, int, bool] | None:
        """One contiguous extent from the nearest zone with free memory."""
        for candidate in self._probe_order(node, strict):
            ext = self.zones[candidate].try_alloc_run_extent(
                max_pages, prefer_zero, owner)
            if ext is not None:
                self._count(node, candidate, ext[1])
                return ext
        return None

    def peek_run_extent(
        self, max_pages: int, prefer_zero: bool = True,
        node: int | None = None, strict: bool = False,
    ) -> tuple[int, int, bool] | None:
        """The extent :meth:`try_alloc_run_extent` would allocate now."""
        for candidate in self._probe_order(node, strict):
            ext = self.zones[candidate].peek_run_extent(max_pages, prefer_zero)
            if ext is not None:
                return ext
        return None

    def try_alloc_run(
        self, npages: int, prefer_zero: bool = True, owner: int = NO_OWNER,
        node: int | None = None, strict: bool = False,
    ) -> list[tuple[int, int, bool]]:
        """Up to ``npages`` order-0 frames as a list of extents."""
        extents: list[tuple[int, int, bool]] = []
        remaining = npages
        while remaining > 0:
            ext = self.try_alloc_run_extent(
                remaining, prefer_zero, owner, node=node, strict=strict)
            if ext is None:
                break
            extents.append(ext)
            remaining -= ext[1]
        return extents

    # ------------------------------------------------------------------ #
    # freeing (routed to the owning zone; ranges split at zone bounds)   #
    # ------------------------------------------------------------------ #

    def free(self, start: int, order: int = 0) -> int:
        """Free a block back into its zone; returns the coalesced order."""
        return self.zones[self.node_of(start)].free(start, order)

    def insert_free_block(self, start: int, order: int) -> int:
        """Re-insert an already-table-free block into its zone."""
        return self.zones[self.node_of(start)].insert_free_block(start, order)

    def free_range(self, start: int, count: int) -> None:
        """Free an arbitrary range, split at zone boundaries.

        Adjacent extents from different zones can form one consecutive
        frame run (e.g. batched ``madvise`` unmap), so a range may
        legitimately straddle a boundary even though no single
        allocation ever does.
        """
        end = start + count
        while start < end:
            zone = self.zones[self.node_of(start)]
            stop = min(end, zone.end)
            zone.free_range(start, stop - start)
            start = stop

    def free_frames(self, frames: Sequence[int] | np.ndarray) -> None:
        """:meth:`BuddyAllocator.free_frames` per zone."""
        self._per_zone(frames, BuddyAllocator.free_frames)

    def free_runs(self, frames: np.ndarray) -> None:
        """:meth:`BuddyAllocator.free_runs` per zone (runs split at zone ends)."""
        self._per_zone(frames, BuddyAllocator.free_runs)

    def _per_zone(self, frames: Sequence[int] | np.ndarray, method) -> None:
        """Each zone's share of ``frames``, in list order, to its bulk free
        ``method`` (zones never merge, so only the order within one counts).
        A frame already free or listed twice replays the per-frame loop
        across all zones, so it raises with the earlier frees applied."""
        idx = np.asarray(frames, dtype=np.int64)
        if idx.size == 0:
            return
        if (not bool(self.frames.allocated[idx].all())
                or np.unique(idx).size != idx.size):
            for frame in idx.tolist():
                self.free(frame, 0)
            return
        nodes = self.node_of_arr(idx)
        for node, zone in enumerate(self.zones):
            method(zone, idx[nodes == node])

    def completion_times(self, frames: Sequence[int] | np.ndarray,
                         order: int) -> np.ndarray:
        """:meth:`BuddyAllocator.completion_times` over every zone."""
        idx = np.asarray(frames, dtype=np.int64)
        nodes = self.node_of_arr(idx)
        times = [np.zeros(0, dtype=np.int64)]
        for node, zone in enumerate(self.zones):
            pick = np.flatnonzero(nodes == node)
            if pick.size:
                times.append(pick[zone.completion_times(idx[pick], order)])
        return np.sort(np.concatenate(times))

    def carve_range(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Carve free blocks out of [lo, hi), split at zone boundaries."""
        carved: list[tuple[int, int]] = []
        while lo < hi:
            zone = self.zones[self.node_of(lo)]
            stop = min(hi, zone.end)
            carved.extend(zone.carve_range(lo, stop))
            lo = stop
        return carved

    # ------------------------------------------------------------------ #
    # pre-zeroing support                                                #
    # ------------------------------------------------------------------ #

    def pop_nonzero_block(self, max_order: int | None = None) -> tuple[int, int] | None:
        """The largest dirty free block across all zones (ties: lowest node)."""
        top = self.max_order if max_order is None else max_order
        for order in range(top, -1, -1):
            for zone in self.zones:
                popped = zone.pop_nonzero_block(max_order=order)
                if popped is not None and popped[1] == order:
                    return popped
                if popped is not None:  # pragma: no cover - smaller than asked
                    zone.reinsert_dirty(*popped)
        return None

    def reinsert_zeroed(self, start: int, order: int) -> None:
        """Hand a freshly zero-filled block back to its zone."""
        self.zones[self.node_of(start)].reinsert_zeroed(start, order)

    def reinsert_dirty(self, start: int, order: int) -> None:
        """Hand back an untouched popped block (budget ran out)."""
        self.zones[self.node_of(start)].reinsert_dirty(start, order)

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        """:meth:`BuddyAllocator.check` on every zone."""
        for zone in self.zones:
            zone.check()

    @property
    def free_pages(self) -> int:
        return sum(zone.free_pages for zone in self.zones)

    @property
    def total_pages(self) -> int:
        return sum(zone.total_pages for zone in self.zones)

    @property
    def allocated_pages(self) -> int:
        return self.total_pages - self.free_pages

    def free_zeroed_pages(self) -> int:
        """Pages on zero lists across all zones."""
        return sum(zone.free_zeroed_pages() for zone in self.zones)

    def free_block_counts(self) -> list[int]:
        """Free blocks per order, summed over zones."""
        counts = [0] * (self.max_order + 1)
        for zone in self.zones:
            for order, n in enumerate(zone.free_block_counts()):
                counts[order] += n
        return counts

    def free_blocks_at_least(self, order: int) -> int:
        """Free blocks usable for an order-``order`` allocation."""
        counts = self.free_block_counts()
        return sum(counts[order:])

    def iter_free_blocks(self) -> Iterator[tuple[int, int, bool]]:
        """Yield ``(start, order, zeroed)`` over every zone."""
        for zone in self.zones:
            yield from zone.iter_free_blocks()


class NodeCompactor:
    """Per-zone compactors behind the single-compactor surface.

    Each node compacts within its own zone (Linux compaction is per-zone
    too), so defragmentation never migrates pages across the socket
    boundary behind the balancer's back.  The budget is spent on zones
    in node order; aggregate stats merge into ``self.stats`` exactly as
    the flat :class:`Compactor` does.
    """

    def __init__(self, allocator: NodeAllocator, migrate: MigrateFn):
        self.stats = CompactionStats()
        self.compactors = [
            Compactor(zone, migrate, lo=zone.start, hi=zone.end)
            for zone in allocator.zones
        ]

    def run(self, budget_pages: int) -> CompactionStats:
        """Compact every zone within one shared page budget."""
        run_stats = CompactionStats()
        for compactor in self.compactors:
            remaining = budget_pages - run_stats.pages_moved
            if remaining <= 0:
                break
            run_stats.merge(compactor.run(remaining))
        run_stats.runs = 1
        self.stats.merge(run_stats)
        return run_stats
