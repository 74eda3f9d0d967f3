"""Binary buddy allocator with dual zero / non-zero free lists.

This mirrors Linux's physical page allocator at the granularity the paper
cares about (orders 0..``MAX_ORDER``, huge pages at order 9) and adds the
one structural change HawkEye §3.1 makes: every free list is split in two,

* a **zero list** of blocks whose every base frame holds all-zero content
  (pre-zeroed and ready to map without synchronous clearing), and
* a **non-zero list** of blocks with stale content.

Anonymous faults prefer the zero list; copy-on-write and file-backed
allocations prefer the non-zero list so pre-zeroed frames are not wasted
on pages that will be overwritten immediately.  The asynchronous
pre-zeroing thread (``repro.core.prezero``) drains the non-zero lists,
zero-fills blocks and moves them across.

A block's zero-ness is derived from the frame table's content descriptors,
so splitting and coalescing keep the two lists exactly consistent with
page content — merging a zero half with a dirty half yields a non-zero
block, exactly as real memory would behave.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import AllocationError
from repro.mem.frames import NO_OWNER, FrameTable
from repro.units import MAX_ORDER


class BuddyAllocator:
    """Buddy allocator over the frames of a :class:`FrameTable`.

    By default the allocator manages the whole frame table; a NUMA zone
    passes an explicit ``[start, end)`` sub-range so several allocators
    can share one table without overlapping.  Coalescing is naturally
    confined to the zone: a buddy outside ``[start, end)`` is never in
    this allocator's ``_block_order``, so merges cannot cross zones.
    """

    def __init__(
        self,
        frames: FrameTable,
        max_order: int = MAX_ORDER,
        start: int = 0,
        end: int | None = None,
    ):
        self.frames = frames
        self.max_order = max_order
        self.start = start
        self.end = frames.num_frames if end is None else end
        # Free lists are dicts used as ordered sets: O(1) membership,
        # O(1) removal by key, and O(1) amortised pop via popitem()
        # (plain sets degrade to O(n) scans under churn).
        self._zero: list[dict[int, None]] = [{} for _ in range(max_order + 1)]
        self._nonzero: list[dict[int, None]] = [{} for _ in range(max_order + 1)]
        #: order of every free block, keyed by its start frame.
        self._block_order: dict[int, int] = {}
        self.free_pages = 0
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Carve the managed frame range into maximal aligned free blocks.

        One prefix-sum over the range classifies every seeded block's
        zero-ness in O(1) instead of one ``zero_mask().all()`` scan per
        block.
        """
        start, end = self.start, self.end
        if start >= end:
            return
        base = start
        nonzero = self.frames.first_nonzero[start:end] >= 0
        csum = np.zeros(end - start + 1, dtype=np.int64)
        np.cumsum(nonzero, out=csum[1:])
        while start < end:
            order = self.max_order
            while order > 0 and (start % (1 << order) != 0 or start + (1 << order) > end):
                order -= 1
            lo = start - base
            self._insert(start, order,
                         zeroed=bool(csum[lo + (1 << order)] == csum[lo]))
            start += 1 << order

    # ------------------------------------------------------------------ #
    # free-list plumbing                                                 #
    # ------------------------------------------------------------------ #

    def _block_is_zero(self, start: int, order: int) -> bool:
        if order == 0:  # scalar fast path: splits/frees hit this constantly
            return self.frames.first_nonzero[start] < 0
        return bool(self.frames.zero_mask(start, 1 << order).all())

    def _insert(self, start: int, order: int, zeroed: bool | None = None) -> None:
        # Callers that already know the block's zero-ness (zero-list
        # invariant, prefix sums, coalescing) pass it to skip the scan.
        if zeroed is None:
            zeroed = self._block_is_zero(start, order)
        lists = self._zero if zeroed else self._nonzero
        lists[order][start] = None
        self._block_order[start] = order
        self.free_pages += 1 << order

    def _remove(self, start: int, order: int) -> None:
        self._zero[order].pop(start, None)
        self._nonzero[order].pop(start, None)
        del self._block_order[start]
        self.free_pages -= 1 << order

    def _pop_block(self, order: int, zeroed: bool) -> tuple[int, bool] | None:
        """Pop one free block of exactly ``order`` from the given list."""
        lists = self._zero if zeroed else self._nonzero
        if lists[order]:
            start, _ = lists[order].popitem()
            del self._block_order[start]
            self.free_pages -= 1 << order
            return start, zeroed
        return None

    # ------------------------------------------------------------------ #
    # allocation                                                         #
    # ------------------------------------------------------------------ #

    def try_alloc(
        self, order: int = 0, prefer_zero: bool = True, owner: int = NO_OWNER
    ) -> tuple[int, bool] | None:
        """Allocate a ``2**order``-page block, or None when none exists.

        Returns ``(start_frame, zeroed)`` where ``zeroed`` says whether the
        block came off a zero list (no synchronous clearing needed).
        """
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} outside [0, {self.max_order}]")
        # Two passes: honour the zero-ness preference across *all* orders
        # first (an anonymous fault would rather split a large pre-zeroed
        # block than take a small dirty one, and vice versa for COW), then
        # fall back to the other lists.
        for want_zeroed in (prefer_zero, not prefer_zero):
            for have in range(order, self.max_order + 1):
                popped = self._pop_block(have, want_zeroed)
                if popped is not None:
                    start = popped[0]
                    return start, self._take(start, have, want_zeroed,
                                             1 << order, owner, order)
        return None

    def _take(self, start: int, have: int, zeroed: bool, take: int,
              owner: int, order: int = 0, uniform: bool = False) -> bool:
        """Allocate the first ``take`` frames of the order-``have`` block at
        ``start`` (already off the free lists) at buddy ``order``.

        The rest goes back as the split cascade leaves it: the maximal
        buddy pieces of ``[start + take, end)``, highest first (each split
        inserts its upper half before splitting the lower one further).
        A block off a zero list is all-zero, so every piece is too, as is
        every piece of a block the caller found ``uniform``; any other
        dirty block's pieces are classified off one scan of its nonzero
        positions.  Returns whether the taken frames are all zero.
        """
        end = start + (1 << have)
        pieces = []
        s = start + take
        while s < end:
            o = (s & -s).bit_length() - 1  # the aligned piece fits: end is aligned
            pieces.append((s, o))
            s += 1 << o
        self.frames.mark_allocated(start, take, owner, order)
        if zeroed or uniform:
            for s, o in reversed(pieces):
                self._insert(s, o, zeroed=zeroed)
            return zeroed
        if not pieces:
            return self._block_is_zero(start, have)
        nz = np.flatnonzero(self.frames.first_nonzero[start:end] >= 0)
        # below[i]: dirty frames before the i-th boundary (take, then the
        # end of each piece); a piece is clean iff none lies inside it.
        below = nz.searchsorted(
            [take] + [p - start + (1 << o) for p, o in pieces]).tolist()
        for i in range(len(pieces) - 1, -1, -1):
            s, o = pieces[i]
            self._insert(s, o, zeroed=below[i + 1] == below[i])
        return below[0] == 0

    def alloc(self, order: int = 0, prefer_zero: bool = True, owner: int = NO_OWNER) -> tuple[int, bool]:
        """Like :meth:`try_alloc` but raises :class:`AllocationError` on failure."""
        got = self.try_alloc(order, prefer_zero, owner)
        if got is None:
            raise AllocationError(f"no free block of order {order}")
        return got

    # ------------------------------------------------------------------ #
    # bulk allocation (the batched fault fast path)                      #
    # ------------------------------------------------------------------ #

    def try_alloc_run_extent(
        self, max_pages: int, prefer_zero: bool = True, owner: int = NO_OWNER
    ) -> tuple[int, int, bool] | None:
        """Allocate one contiguous extent of up to ``max_pages`` order-0 frames.

        Returns ``(start, count, zeroed)`` or None when nothing is free.
        The free-list state and the frame sequence are *identical* to what
        ``count`` scalar ``try_alloc(0, prefer_zero, owner)`` calls would
        leave: scalar allocation drains a popped block's frames in
        ascending order before touching any other block (splits keep the
        low half and dict pops are LIFO), so a content-uniform block can
        be consumed wholesale in O(1) pops instead of O(pages).  Blocks of
        mixed content (where scalar draining would interleave the zero
        and non-zero sub-pieces) give one page, split off exactly as the
        scalar path splits it.
        """
        nxt = self._next_extent(max_pages, prefer_zero)
        if nxt is None:
            return None
        start, order, want_zeroed, take, uniform = nxt
        del (self._zero if want_zeroed else self._nonzero)[order][start]
        del self._block_order[start]
        self.free_pages -= 1 << order
        return start, take, self._take(start, order, want_zeroed, take, owner,
                                       uniform=uniform)

    def peek_run_extent(
        self, max_pages: int, prefer_zero: bool = True
    ) -> tuple[int, int, bool] | None:
        """``(start, count, zeroed)`` of the extent
        :meth:`try_alloc_run_extent` would allocate now, allocating
        nothing.  Asking it for fewer pages right after allocates a prefix
        of this extent, with the same ``zeroed``."""
        nxt = self._next_extent(max_pages, prefer_zero)
        if nxt is None:
            return None
        start, _, zeroed, pages, uniform = nxt
        # A mixed block gives one frame, zero or not by its own content.
        return start, pages, zeroed if uniform else bool(
            self.frames.first_nonzero[start] < 0)

    def _next_extent(
        self, max_pages: int, prefer_zero: bool
    ) -> tuple[int, int, bool, int, bool] | None:
        """Where the next extent comes from: ``(start, order, zeroed,
        pages, uniform)`` for the free block scalar ``try_alloc(0)`` would
        pop next.  It gives up to ``max_pages`` pages if its content is
        uniform (a zero-list block is all-zero by invariant), else one."""
        if max_pages <= 0:
            return None
        for want_zeroed in (prefer_zero, not prefer_zero):
            lists = self._zero if want_zeroed else self._nonzero
            for order in range(self.max_order + 1):
                bucket = lists[order]
                if bucket:
                    start = next(reversed(bucket))  # the block popitem() takes
                    size = 1 << order
                    uniform = (want_zeroed or order == 0 or bool(
                        (self.frames.first_nonzero[start:start + size]
                         >= 0).all()))
                    pages = min(size, max_pages) if uniform else 1
                    return start, order, want_zeroed, pages, uniform
        return None

    def try_alloc_run(
        self, npages: int, prefer_zero: bool = True, owner: int = NO_OWNER
    ) -> list[tuple[int, int, bool]]:
        """Allocate up to ``npages`` order-0 frames as a list of extents.

        Returns ``(start, count, zeroed)`` extents totalling ``npages``
        pages, or fewer only when the allocator runs dry (the same
        boundary at which scalar ``try_alloc(0)`` would return None).
        Scalar-equivalent: see :meth:`try_alloc_run_extent`.
        """
        extents: list[tuple[int, int, bool]] = []
        remaining = npages
        while remaining > 0:
            ext = self.try_alloc_run_extent(remaining, prefer_zero, owner)
            if ext is None:
                break
            extents.append(ext)
            remaining -= ext[1]
        return extents

    # ------------------------------------------------------------------ #
    # freeing                                                            #
    # ------------------------------------------------------------------ #

    def free(self, start: int, order: int = 0) -> int:
        """Return an allocated block and coalesce with free buddies.

        Returns the order of the free block the pages ended up in after
        coalescing (callers tracking high-order availability — e.g. the
        fragmenter's FMFI bookkeeping — react only when this crosses the
        huge-page order).
        """
        count = 1 << order
        if not self.frames.allocated[start:start + count].all():
            raise AllocationError(f"double free of block {start} order {order}")
        self.frames.mark_free(start, count)
        return self.insert_free_block(start, order)

    def insert_free_block(self, start: int, order: int) -> int:
        """Insert an (already frame-table-free) block, coalescing buddies.

        Returns the final coalesced order."""
        return self._coalesce_insert(
            start, order, self._block_is_zero(start, order))

    def _coalesce_insert(self, start: int, order: int, zeroed: bool) -> int:
        # A merged block is zero iff both halves are, and a free buddy's
        # zero-ness is encoded by which list it sits on — so coalescing
        # never re-scans frame content.
        while order < self.max_order:
            buddy = start ^ (1 << order)
            if self._block_order.get(buddy) != order:
                break
            zeroed = zeroed and buddy in self._zero[order]
            self._remove(buddy, order)
            start = min(start, buddy)
            order += 1
        self._insert(start, order, zeroed=zeroed)
        return order

    def carve_range(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Temporarily remove every free block lying fully inside [lo, hi).

        Used by compaction to keep destination allocations out of the
        chunk being emptied.  Blocks are power-of-two aligned, so any
        free block overlapping a *partially allocated* chunk lies fully
        inside it.  Hand the blocks back with :meth:`insert_free_block`.
        """
        carved: list[tuple[int, int]] = []
        s = lo
        while s < hi:
            order = self._block_order.get(s)
            if order is not None and s + (1 << order) <= hi:
                self._remove(s, order)
                carved.append((s, order))
                s += 1 << order
            else:
                s += 1
        return carved

    def free_range(self, start: int, count: int) -> None:
        """:meth:`free_runs` over one run: ``free(f, 0)`` for each frame of
        ``[start, start + count)``, ascending, a double free included."""
        if count <= 0:
            return
        end = start + count
        if not bool(self.frames.allocated[start:end].all()):
            for frame in range(start, end):
                self.free(frame, 0)
            return
        self.frames.mark_free(start, count)
        self._insert_runs([start], [count], self.frames.first_nonzero[start:end] >= 0)

    def free_runs(self, frames: np.ndarray) -> None:
        """:meth:`free_frames` for a list made of a few ascending runs.

        One allocated/zone/distinctness check, one ``mark_free_frames`` and
        one zero-ness prefix sum; then each maximal buddy block of each
        run goes straight into the coalescing insert, which leaves the
        lists (dict order too) as per-frame frees would: the sub-blocks
        those insert are merged away before anything else reads the lists.
        A frame already free, outside the zone or listed twice replays the
        per-frame loop, so the same frame raises with earlier frees applied.
        """
        n = frames.shape[0]
        if n == 0:
            return
        srt = np.sort(frames)
        if (srt[0] < self.start or srt[-1] >= self.end
                or not bool(self.frames.allocated[frames].all())
                or bool((srt[1:] == srt[:-1]).any())):
            for frame in frames.tolist():
                self.free(frame, 0)
            return
        self.frames.mark_free_frames(frames)
        bounds = [0, *(np.flatnonzero(frames[1:] != frames[:-1] + 1) + 1).tolist(), n]
        self._insert_runs([frames.item(i) for i in bounds[:-1]],
                          [hi - lo for lo, hi in zip(bounds, bounds[1:])],
                          self.frames.first_nonzero[frames] >= 0)

    def _insert_runs(self, starts: list[int], counts: list[int], dirty: np.ndarray) -> None:
        """Coalescing-insert the maximal buddy blocks of each run, in order;
        ``dirty`` flags the runs' frames (concatenated) with content."""
        csum = np.zeros(dirty.shape[0] + 1, dtype=np.int64)
        np.cumsum(dirty, out=csum[1:])
        csum = csum.tolist()
        top = self.max_order
        at = 0
        for start, count in zip(starts, counts):
            end = start + count
            while start < end:
                # the largest block aligned at ``start`` that fits the run
                order = min(top, (end - start).bit_length() - 1,
                            (start & -start).bit_length() - 1 if start else top)
                size = 1 << order
                self._coalesce_insert(start, order, csum[at + size] == csum[at])
                start += size
                at += size

    def free_frames(self, frames: Sequence[int] | np.ndarray) -> None:
        """Free order-0 frames in list order, in bulk.

        Leaves exactly the state of ``for f in frames: free(f, 0)``: frame
        table, ledger, ``free_pages``, and free-list membership and dict
        order.  Coalescing is computed in one vectorized pass over the
        max-order windows the frames touch (see :meth:`_coalesce_plan`);
        each block the loop would end with is inserted at its completion
        time, the list index of its last freed frame.  If a frame is
        already free, outside this zone or listed twice, the scalar loop
        is replayed so the same frame raises with the earlier frees applied.
        """
        idx = np.asarray(frames, dtype=np.int64)
        if idx.size == 0:
            return
        plan = self._coalesce_plan(idx)
        if plan is None:
            for frame in idx.tolist():
                self.free(frame, 0)
            return
        deletes, inserts, _ = plan
        self.frames.mark_free_frames(idx)
        for start, order in deletes:
            self._remove(start, order)
        for start, order, zeroed in inserts:
            self._insert(start, order, zeroed)

    def completion_times(self, frames: Sequence[int] | np.ndarray,
                         order: int) -> np.ndarray:
        """Sorted list indices at which freeing ``frames`` in list order
        would complete a free block of ``order`` (the frees whose
        :meth:`free` would return at least ``order``).  Changes nothing;
        the frames must be allocated, in this zone and distinct."""
        idx = np.asarray(frames, dtype=np.int64)
        if idx.size == 0 or order > self.max_order:
            return np.zeros(0, dtype=np.int64)
        plan = self._coalesce_plan(idx, order)
        if plan is None:
            raise AllocationError("completion_times needs distinct allocated frames")
        return np.sort(plan[2])

    def _coalesce_plan(self, frames: np.ndarray, completion_order: int = -1):
        """How freeing ``frames`` in list order would change the free lists.

        Returns None unless every frame is allocated, inside the zone and
        listed once.  Otherwise ``(deletes, inserts, completions)``: the
        free blocks the frees merge away, the ``(start, order, zeroed)``
        blocks they leave in completion order, and the completion times
        of the order-``completion_order`` blocks the frees make free.

        Write *whole* for "is a free block, or lies inside one".  A free
        block the frees merge with is a sibling of a block holding a freed
        frame, so only those siblings are looked up in ``_block_order``
        (and only when their first frame is free).  A block holding freed
        frames becomes whole when its last frame is freed, if both its
        halves are whole by then (for one frame: the frame itself).  That
        is exactly when a scalar free's coalescing climb reaches it: the
        climb merges a buddy only if the buddy is a free block of the same
        order.  Wholeness only grows, so the frees end with the whole
        blocks whose parent is not whole; a block whose parent holds a
        freed frame has a whole parent iff the parent is completed.
        Merges never cross a max-order window, so the pass covers only
        the windows the frames touch.
        """
        n = frames.size
        if int(frames.min()) < self.start or int(frames.max()) >= self.end:
            return None
        table = self.frames
        if not bool(table.allocated[frames].all()):
            return None
        top = self.max_order
        width = 1 << top
        first_win = self.start >> top
        touched = np.zeros(((self.end - 1) >> top) - first_win + 1, dtype=bool)
        touched[(frames >> top) - first_win] = True
        wins = np.flatnonzero(touched) + first_win
        slot = np.cumsum(touched) - 1
        local = slot[(frames >> top) - first_win] * width + (frames & (width - 1))
        # completion time of each block: list index of its last freed frame
        ctime = np.full(wins.size * width, -1, dtype=np.int64)
        listed = np.arange(n, dtype=np.int64)
        ctime[local] = listed
        if not bool((ctime[local] == listed).all()):
            return None  # a frame is listed twice
        pos = (wins[:, None] * width + np.arange(width)).ravel()
        inside = (pos >= self.start) & (pos < self.end)
        clipped = np.where(inside, pos, self.start)
        free_here = inside & ~table.allocated[clipped]
        dirty = table.first_nonzero[clipped] >= 0
        block_order = self._block_order
        deletes: list[tuple[int, int]] = []
        starts, orders, zeroed, times = [], [], [], []
        completions = np.zeros(0, dtype=np.int64)
        look = bool(free_here.any())  # any free block to merge with at all
        completed = ctime >= 0
        for order in range(top + 1):
            if order == completion_order:
                completions = ctime[completed]
            if order == top or not completed.any():
                # nothing completes above a level where nothing completes
                final = np.flatnonzero(completed)
                up_ctime = None
            else:
                up_ctime = np.maximum(ctime[0::2], ctime[1::2])
                up_has = up_ctime >= 0
                whole = completed
                hits: list[int] = []
                if look:
                    sib = np.flatnonzero(
                        ((ctime < 0) & free_here[::1 << order]).reshape(-1, 2)
                        & up_has[:, None])
                    sib_start = pos[sib << order].tolist()
                    hits = [k for k, start in enumerate(sib_start)
                            if block_order.get(start) == order]
                    if hits:
                        whole = completed.copy()
                        whole[sib[hits]] = True
                halves = whole.reshape(-1, 2)
                up_completed = up_has & halves[:, 0] & halves[:, 1]
                if hits:
                    merged = up_completed[sib[hits] >> 1].tolist()
                    deletes.extend((sib_start[k], order)
                                   for k, gone in zip(hits, merged) if gone)
                final = np.flatnonzero(completed.reshape(-1, 2)
                                       & ~up_completed[:, None])
            if final.size:
                starts.append(pos[final << order])
                orders.append(np.full(final.size, order, dtype=np.int64))
                zeroed.append(~dirty[final])
                times.append(ctime[final])
            if up_ctime is None:
                break
            ctime, completed = up_ctime, up_completed
            dirty = dirty[0::2] | dirty[1::2]
        if not times:
            return deletes, [], completions
        by_time = np.argsort(np.concatenate(times))
        inserts = list(zip(np.concatenate(starts)[by_time].tolist(),
                           np.concatenate(orders)[by_time].tolist(),
                           np.concatenate(zeroed)[by_time].tolist()))
        return deletes, inserts, completions

    # ------------------------------------------------------------------ #
    # pre-zeroing support                                                #
    # ------------------------------------------------------------------ #

    def pop_nonzero_block(self, max_order: int | None = None) -> tuple[int, int] | None:
        """Remove the largest dirty free block (for the pre-zero thread).

        Returns ``(start, order)``; the caller zero-fills the frames and
        hands the block back via :meth:`reinsert_zeroed`.
        """
        top = self.max_order if max_order is None else max_order
        for order in range(top, -1, -1):
            if self._nonzero[order]:
                start, _ = self._nonzero[order].popitem()
                del self._block_order[start]
                self.free_pages -= 1 << order
                return start, order
        return None

    def reinsert_zeroed(self, start: int, order: int) -> None:
        """Put back a block whose frames were just zero-filled."""
        self.frames.zero_fill(start, 1 << order)
        self._insert(start, order, zeroed=True)

    def reinsert_dirty(self, start: int, order: int) -> None:
        """Put back a popped block untouched (pre-zero budget ran out)."""
        self._insert(start, order)

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        """Raise :class:`AllocationError` unless the free lists are consistent.

        Every free block is aligned, inside the zone, on exactly one of
        its order's zero and non-zero lists, and in ``_block_order`` with
        that order; it is on the zero list iff its frames' content is all
        zero; free blocks are disjoint and maximal (no two free buddies of
        one order below ``max_order``); and their union is exactly the
        zone's unallocated frames, ``free_pages`` of them.
        """
        def fail(msg: str) -> None:
            raise AllocationError(f"buddy zone [{self.start}, {self.end}): {msg}")

        covered = np.zeros(self.end - self.start, dtype=np.int64)
        blocks = 0
        for order in range(self.max_order + 1):
            size = 1 << order
            for lists, zeroed in ((self._zero, True), (self._nonzero, False)):
                for start in lists[order]:
                    blocks += 1
                    if start % size or start < self.start or start + size > self.end:
                        fail(f"block {start} order {order} misaligned or outside")
                    if start in (self._nonzero if zeroed else self._zero)[order]:
                        fail(f"block {start} order {order} on both lists")
                    if self._block_order.get(start) != order:
                        fail(f"block {start} order {order} has index order "
                             f"{self._block_order.get(start)}")
                    if zeroed != bool(self.frames.zero_mask(start, size).all()):
                        fail(f"block {start} order {order} on the "
                             f"{'zero' if zeroed else 'non-zero'} list "
                             "against its content")
                    if (order < self.max_order
                            and self._block_order.get(start ^ size) == order):
                        fail(f"free buddies {start}/{start ^ size} at order "
                             f"{order} left unmerged")
                    covered[start - self.start:start - self.start + size] += 1
        if blocks != len(self._block_order):
            fail(f"{len(self._block_order)} indexed blocks, {blocks} listed")
        if (covered > 1).any():
            fail(f"free blocks overlap at frame "
                 f"{self.start + int(np.argmax(covered > 1))}")
        unallocated = ~self.frames.allocated[self.start:self.end]
        if not np.array_equal(covered == 1, unallocated):
            fail(f"free blocks differ from the unallocated frames at frame "
                 f"{self.start + int(np.argmax((covered == 1) != unallocated))}")
        if self.free_pages != int(covered.sum()):
            fail(f"free_pages {self.free_pages}, blocks hold {int(covered.sum())}")

    @property
    def total_pages(self) -> int:
        return self.end - self.start

    @property
    def allocated_pages(self) -> int:
        return self.total_pages - self.free_pages

    def free_zeroed_pages(self) -> int:
        """Pages sitting on zero lists, mappable without synchronous clearing."""
        return sum(len(blocks) << order for order, blocks in enumerate(self._zero))

    def free_block_counts(self) -> list[int]:
        """Number of free blocks per order (zero + non-zero lists)."""
        return [
            len(self._zero[order]) + len(self._nonzero[order])
            for order in range(self.max_order + 1)
        ]

    def free_blocks_at_least(self, order: int) -> int:
        """Free blocks that can satisfy an order-``order`` allocation."""
        counts = self.free_block_counts()
        return sum(counts[order:])

    def iter_free_blocks(self) -> Iterator[tuple[int, int, bool]]:
        """Yield ``(start, order, zeroed)`` for every free block."""
        for order in range(self.max_order + 1):
            for start in self._zero[order]:
                yield start, order, True
            for start in self._nonzero[order]:
                yield start, order, False
