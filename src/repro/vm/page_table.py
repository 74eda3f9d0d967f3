"""Per-process page tables with 4 KiB and 2 MiB mappings.

The table is a set of numpy columns.  Base mappings are indexed by
virtual page number: ``frame`` (−1 when unmapped), a packed ``flags``
byte (:data:`ACCESSED`, :data:`DIRTY`, :data:`SHARED_ZERO`,
:data:`SHARED_COW`) and an insertion ``seq``.  Huge mappings have the
same three columns indexed by huge-region number (``vpn >> 9``):
``hframe``, ``hflags`` and ``hseq``; ``hcount`` counts the pages each
region maps at either granularity, the only store of residency.  A
virtual page is mapped by at most one of the two — promotion replaces
512 base mappings with one huge mapping, demotion does the reverse.
Base mappings can also be *shared-zero* mappings onto the canonical zero
frame (copy-on-write), which is how HawkEye's bloat recovery returns
memory without unmapping anything.

Range operations (bulk faults, run unmaps, demotion, region scans,
contiguity checks, NUMA placement counts) are slice reads and writes.

**Order contract.**  Every new mapping takes the next value of one
per-table counter as its ``seq``; changing a mapping in place (COW
breaks, migration, zero and KSM dedup, NUMA huge migration) keeps it.
:meth:`PageTable.base_in_order` and :meth:`PageTable.huge_in_order`
list mappings in ``seq`` order, which is the insertion order the
simulator's results depend on: ``exit_process`` frees mappings in that
order, and the order becomes the buddy free lists' order.  Callers
read the columns directly; there is no per-mapping object.

**Change generation.**  Every mutator below, region-record creation
(:meth:`PageTable.reserve_region`) and the kernel's VMA and madvise-hint
writers bump :attr:`PageTable.generation`, so a consumer that found
nothing to do in a process can skip it until the count moves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidAddressError
from repro.units import PAGES_PER_HUGE

#: flag bits of the ``flags`` / ``hflags`` columns.
ACCESSED = 1
DIRTY = 2
#: copy-on-write mapping of the canonical zero frame (bloat recovery, §3.2).
SHARED_ZERO = 4
#: copy-on-write mapping of a KSM-merged content frame (same-page merging).
SHARED_COW = 8
SHARED = SHARED_ZERO | SHARED_COW


def grown(col: np.ndarray, need: int, fill: int) -> np.ndarray:
    """``col`` doubled until it holds ``need`` slots, new slots ``fill``."""
    cap = col.shape[0]
    while cap < need:
        cap *= 2
    out = np.full(cap, fill, dtype=col.dtype)
    out[: col.shape[0]] = col
    return out


def _in_seq_order(frame: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """Mapped keys of one granularity in insertion (``seq``) order."""
    live = np.flatnonzero(frame >= 0)
    return live[np.argsort(seq[live], kind="stable")]


class PageTable:
    """Both-granularity page table for one process."""

    def __init__(self) -> None:
        #: mappings currently shared onto the canonical zero frame.
        self.shared_zero_count = 0
        #: number of base / huge mappings.
        self.nbase = 0
        self.nhuge = 0
        self._next_seq = 0
        #: change generation (see the module docstring).
        self.generation = 0
        self._reset_columns()

    def _reset_columns(self) -> None:
        # Few slots: the columns grow by doubling as mappings arrive, and a
        # torn-down table (an exited process) holds next to no memory.  The
        # per-region ones start with two, as mmap puts the first VMA in region 1.
        self.frame = np.full(1, -1, dtype=np.int64)
        self.flags = np.zeros(1, dtype=np.uint8)
        self.seq = np.zeros(1, dtype=np.int64)
        self.hframe = np.full(2, -1, dtype=np.int64)
        self.hflags = np.zeros(2, dtype=np.uint8)
        self.hseq = np.zeros(2, dtype=np.int64)
        self.hcount = np.zeros(2, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # column maintenance                                                 #
    # ------------------------------------------------------------------ #

    def _ensure_base(self, end_vpn: int) -> None:
        """Grow the base columns, and ``hcount`` with them, to ``end_vpn``."""
        if end_vpn > self.frame.shape[0]:
            self.frame = grown(self.frame, end_vpn, -1)
            self.flags = grown(self.flags, end_vpn, 0)
            self.seq = grown(self.seq, end_vpn, 0)
            if (need := ((self.frame.shape[0] - 1) >> 9) + 1) > self.hcount.shape[0]:
                self.hcount = grown(self.hcount, need, 0)

    def reserve_region(self, hvpn: int) -> None:
        """Grow the per-region columns to cover ``hvpn`` (region records do)."""
        self.generation += 1
        if hvpn >= self.hframe.shape[0]:
            self.hframe = grown(self.hframe, hvpn + 1, -1)
            self.hflags = grown(self.hflags, hvpn + 1, 0)
            self.hseq = grown(self.hseq, hvpn + 1, 0)
        if hvpn >= self.hcount.shape[0]:
            self.hcount = grown(self.hcount, hvpn + 1, 0)

    def _count(self, vpn0: int, end: int, sign: int, step: int = 1) -> None:
        """Add ``sign`` to ``hcount`` once per vpn of ``range(vpn0, end, step)``."""
        if vpn0 >> 9 == (end - 1) >> 9:  # one region: every bulk fault and run unmap
            self.hcount[vpn0 >> 9] += sign * len(range(vpn0, end, step))
        else:
            np.add.at(self.hcount, np.arange(vpn0, end, step) >> 9, sign)

    # ------------------------------------------------------------------ #
    # mapping                                                            #
    # ------------------------------------------------------------------ #

    def map_base(self, vpn: int, frame: int, shared_zero: bool = False,
                 accessed: bool = False) -> None:
        """Install a 4 KiB mapping (optionally onto the shared zero frame)."""
        if vpn >= self.frame.shape[0]:
            self._ensure_base(vpn + 1)
        elif self.frame[vpn] >= 0:
            raise InvalidAddressError(f"vpn {vpn} already mapped")
        if self.region_huge(vpn >> 9):
            raise InvalidAddressError(f"vpn {vpn} inside huge mapping")
        self.frame[vpn] = frame
        self.flags[vpn] = (SHARED_ZERO if shared_zero else 0) | (ACCESSED if accessed else 0)
        self.seq[vpn] = self._next_seq
        self._next_seq += 1
        self.generation += 1
        self.nbase += 1
        self.hcount[vpn >> 9] += 1
        if shared_zero:
            self.shared_zero_count += 1

    def map_base_range(
        self, vpn0: int, extents: list[tuple[int, int, bool]], accessed: bool = False,
        step: int = 1,
    ) -> int:
        """Install private base mappings for vpns ``step`` apart over ``extents``.

        ``extents`` is a list of ``(start_frame, count, zeroed)`` runs (the
        shape :meth:`repro.mem.buddy.BuddyAllocator.try_alloc_run` returns);
        virtual pages ``vpn0, vpn0 + step, ...`` map onto the extents'
        frames in order, and take consecutive ``seq`` values in ascending
        vpn order.  Returns the number of mappings installed.
        """
        total = sum(count for _, count, _ in extents)
        if total == 0:
            return 0
        end = vpn0 + (total - 1) * step + 1
        if (self.frame[vpn0:end:step] >= 0).any():
            raise InvalidAddressError(f"range [{vpn0}, {end}) overlaps base mappings")
        if step == 1:
            huge = self.hframe[vpn0 >> 9 : ((end - 1) >> 9) + 1]
        else:
            hvpns = np.arange(vpn0, end, step) >> 9
            huge = self.hframe[hvpns[hvpns < self.hframe.shape[0]]]
        if (huge >= 0).any():
            raise InvalidAddressError(f"range [{vpn0}, {end}) overlaps a huge mapping")
        self._ensure_base(end)
        self.frame[vpn0:end:step] = np.concatenate(
            [np.arange(start, start + count, dtype=np.int64) for start, count, _ in extents])
        self.flags[vpn0:end:step] = ACCESSED if accessed else 0
        self.seq[vpn0:end:step] = np.arange(
            self._next_seq, self._next_seq + total, dtype=np.int64)
        self._next_seq += total
        self.generation += 1
        self.nbase += total
        self._count(vpn0, end, 1, step)
        return total

    def map_huge(self, hvpn: int, frame: int, accessed: bool = False) -> None:
        """Install a 2 MiB mapping over an order-9 physical block."""
        if self.region_huge(hvpn):
            raise InvalidAddressError(f"huge region {hvpn} already mapped")
        self.reserve_region(hvpn)
        self.hframe[hvpn] = frame
        self.hflags[hvpn] = ACCESSED if accessed else 0
        self.hseq[hvpn] = self._next_seq
        self._next_seq += 1
        self.generation += 1
        self.nhuge += 1
        self.hcount[hvpn] += PAGES_PER_HUGE

    def remap(self, vpn: int, frame: int, set_bits: int = 0, clear_bits: int = 0) -> None:
        """Point base mapping ``vpn`` at ``frame`` in place (keeps its ``seq``).

        ``set_bits`` / ``clear_bits`` update its flags in the same call
        (COW breaks clear a shared bit and set :data:`DIRTY`; dedup sets
        a shared bit).
        """
        old = int(self.flags[vpn])
        new = (old & ~clear_bits) | set_bits
        self.frame[vpn] = frame
        self.flags[vpn] = new
        self.generation += 1
        if (old ^ new) & SHARED_ZERO:
            self.shared_zero_count += 1 if new & SHARED_ZERO else -1

    def unmap_base(self, vpn: int) -> tuple[int, int]:
        """Remove a base mapping; returns its ``(frame, flags)``."""
        if not self.base_mapped(vpn):
            raise InvalidAddressError(f"vpn {vpn} not base-mapped")
        frame = int(self.frame[vpn])
        flags = int(self.flags[vpn])
        self.frame[vpn] = -1
        self.flags[vpn] = 0
        self.generation += 1
        self.nbase -= 1
        self.hcount[vpn >> 9] -= 1
        if flags & SHARED_ZERO:
            self.shared_zero_count -= 1
        return frame, flags

    def unmap_base_run_private(self, vpn0: int, count: int) -> None:
        """Drop ``count`` consecutive *private* base mappings (bulk teardown).

        Callers guarantee every page in the run is base-mapped and
        private, so no shared-zero accounting applies.
        """
        self.frame[vpn0 : vpn0 + count] = -1
        self.flags[vpn0 : vpn0 + count] = 0
        self.generation += 1
        self.nbase -= count
        self._count(vpn0, vpn0 + count, -1)

    def unmap_base_region(self, hvpn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove every base mapping of region ``hvpn``.

        Returns ``(offsets, frames, flags)`` of the removed mappings in
        ascending vpn order.
        """
        vpn0 = hvpn << 9
        seg = self.frame[vpn0 : vpn0 + PAGES_PER_HUGE]
        offs = np.flatnonzero(seg >= 0)
        frames = seg[offs]
        flags = self.flags[vpn0 + offs]
        self.frame[vpn0 + offs] = -1
        self.flags[vpn0 + offs] = 0
        self.generation += 1
        self.nbase -= offs.shape[0]
        self.hcount[hvpn : hvpn + 1] -= offs.shape[0]  # a slice: hvpn may lie past the columns
        self.shared_zero_count -= int(np.count_nonzero(flags & SHARED_ZERO))
        return offs, frames, flags

    def unmap_huge(self, hvpn: int) -> tuple[int, int]:
        """Remove a huge mapping; returns its ``(frame, flags)``."""
        if not self.region_huge(hvpn):
            raise InvalidAddressError(f"huge region {hvpn} not mapped")
        frame = int(self.hframe[hvpn])
        flags = int(self.hflags[hvpn])
        self.hframe[hvpn] = -1
        self.hflags[hvpn] = 0
        self.generation += 1
        self.nhuge -= 1
        self.hcount[hvpn] -= PAGES_PER_HUGE
        return frame, flags

    # ------------------------------------------------------------------ #
    # promotion / demotion plumbing                                      #
    # ------------------------------------------------------------------ #

    def demote_huge(self, hvpn: int) -> int:
        """Replace a huge mapping with 512 base mappings onto the same frames.

        The base mappings inherit the huge mapping's accessed and dirty
        bits and take consecutive ``seq`` values in vpn order.  Returns the
        block's start frame; the physical block stays allocated and
        contiguous — only the mapping granularity changes.
        """
        frame0, flags = self.unmap_huge(hvpn)
        self.map_base_range(hvpn << 9, [(frame0, PAGES_PER_HUGE, False)])
        vpn0 = hvpn << 9
        self.flags[vpn0 : vpn0 + PAGES_PER_HUGE] = flags & (ACCESSED | DIRTY)
        return frame0

    def mapped_vpns(self) -> np.ndarray:
        """Base-mapped vpns in ascending order."""
        return np.flatnonzero(self.frame >= 0)

    def base_in_order(self) -> np.ndarray:
        """Base-mapped vpns in insertion (``seq``) order."""
        return _in_seq_order(self.frame, self.seq)

    def huge_in_order(self) -> np.ndarray:
        """Huge-mapped regions in insertion (``seq``) order."""
        return _in_seq_order(self.hframe, self.hseq)

    def region_mirror(self, hvpn: int) -> tuple[np.ndarray, np.ndarray]:
        """``(frames, private)`` over one huge region's 512 vpn slots.

        ``frames`` is a read-only view of the frame column (shorter when
        the columns have never grown that far — missing slots are
        unmapped); ``frames[i] == -1`` means vpn ``(hvpn << 9) + i`` is
        not base-mapped.  ``private[i]`` says the slot is mapped and owns
        its frame.
        """
        vpn0 = hvpn << 9
        frames = self.frame[vpn0 : vpn0 + PAGES_PER_HUGE]
        private = (frames >= 0) & (self.flags[vpn0 : vpn0 + PAGES_PER_HUGE] & SHARED == 0)
        return frames, private

    def contiguous_private_block(self, vpn0: int) -> int | None:
        """Start frame when a region's 512 pages form one aligned block.

        All 512 pages base-mapped, private, onto consecutive frames
        starting at an order-9 boundary.
        """
        seg = self.frame[vpn0 : vpn0 + PAGES_PER_HUGE]
        if seg.shape[0] < PAGES_PER_HUGE:
            return None
        frame0 = int(seg[0])
        if frame0 < 0 or frame0 % PAGES_PER_HUGE != 0:
            return None
        if (self.flags[vpn0 : vpn0 + PAGES_PER_HUGE] & SHARED).any():
            return None
        expect = np.arange(frame0, frame0 + PAGES_PER_HUGE, dtype=np.int64)
        if not np.array_equal(seg, expect):
            return None
        return frame0

    # ------------------------------------------------------------------ #
    # lookup                                                             #
    # ------------------------------------------------------------------ #

    def translate(self, vpn: int) -> tuple[int, bool] | None:
        """Physical frame for ``vpn`` and whether the mapping is huge."""
        hvpn = vpn >> 9
        if self.region_huge(hvpn):
            return int(self.hframe[hvpn]) + (vpn & (PAGES_PER_HUGE - 1)), True
        if self.base_mapped(vpn):
            return int(self.frame[vpn]), False
        return None

    def translate_range(self, vpn0: int, count: int) -> np.ndarray:
        """Frames for ``count`` consecutive vpns (-1 where unmapped).

        Vectorized :meth:`translate` over both granularities; huge-mapped
        vpns resolve to ``huge_frame + offset``.
        """
        out = np.full(count, -1, dtype=np.int64)
        seg = self.frame[vpn0 : vpn0 + count]
        out[: seg.shape[0]] = seg
        hlo, hhi = vpn0 >> 9, (vpn0 + count - 1) >> 9
        hseg = self.hframe[hlo : hhi + 1]
        if hseg.size and (hseg >= 0).any():
            vpns = np.arange(vpn0, vpn0 + count, dtype=np.int64)
            idx = (vpns >> 9) - hlo
            valid = idx < hseg.shape[0]
            hframes = np.where(valid, hseg[np.minimum(idx, hseg.shape[0] - 1)], -1)
            mask = hframes >= 0
            out[mask] = hframes[mask] + (vpns[mask] & (PAGES_PER_HUGE - 1))
        return out

    def huge_count_in_range(self, hvpn_lo: int, hvpn_hi: int) -> int:
        """Number of huge-mapped regions in ``[hvpn_lo, hvpn_hi)``."""
        return int((self.hframe[hvpn_lo:hvpn_hi] >= 0).sum())

    def region_resident(self, hvpn: int) -> int:
        """Pages region ``hvpn`` maps at either granularity (512 when huge)."""
        return self.hcount.item(hvpn) if hvpn < len(self.hcount) else 0

    def base_mapped(self, vpn: int) -> bool:
        """Whether ``vpn`` has a 4 KiB mapping."""
        return 0 <= vpn < self.frame.shape[0] and self.frame[vpn] >= 0

    def region_huge(self, hvpn: int) -> bool:
        """Whether region ``hvpn`` is huge-mapped."""
        return 0 <= hvpn < len(self.hframe) and self.hframe.item(hvpn) >= 0

    def region_resident_arr(self, hvpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`region_resident` over reserved regions."""
        return self.hcount[hvpns]

    def region_huge_arr(self, hvpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`region_huge` over reserved regions."""
        return self.hframe[hvpns] >= 0

    # ------------------------------------------------------------------ #
    # accounting                                                         #
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop every mapping (process teardown); columns shrink back."""
        self.shared_zero_count = 0
        self.nbase = 0
        self.nhuge = 0
        self.generation += 1
        self._reset_columns()

    def resident_pages(self) -> int:
        """RSS in base pages, excluding shared-zero (deduplicated) mappings."""
        return self.nbase - self.shared_zero_count + self.nhuge * PAGES_PER_HUGE

    def huge_mapped_pages(self) -> int:
        """Base-page count covered by huge mappings."""
        return self.nhuge * PAGES_PER_HUGE

    def check(self) -> None:
        """Raise :class:`InvalidAddressError` unless the columns are consistent.

        The counts, ``hcount`` too, match the columns; unmapped slots carry
        no flags; no mapping is both zero- and KSM-shared; no base vpn lies
        inside a huge-mapped region; and ``seq`` is unique among live
        mappings of each granularity and below the next value to hand out.
        """
        def fail(msg: str) -> None:
            raise InvalidAddressError(f"page table: {msg}")

        mapped = self.frame >= 0
        hmapped = self.hframe >= 0
        if int(mapped.sum()) != self.nbase:
            fail(f"nbase {self.nbase}, columns map {int(mapped.sum())}")
        if int(hmapped.sum()) != self.nhuge:
            fail(f"nhuge {self.nhuge}, columns map {int(hmapped.sum())}")
        hvpns = np.flatnonzero(mapped) >> 9
        want = np.bincount(hvpns, minlength=len(self.hcount))
        want[: len(hmapped)] += PAGES_PER_HUGE * hmapped
        if not np.array_equal(self.hcount, want):
            fail("hcount disagrees with the frame/hframe columns")
        zero = int(np.count_nonzero(self.flags[mapped] & SHARED_ZERO))
        if zero != self.shared_zero_count:
            fail(f"shared_zero_count {self.shared_zero_count}, columns hold {zero}")
        if self.flags[~mapped].any() or self.hflags[~hmapped].any():
            fail("flags set on an unmapped slot")
        if ((self.flags & SHARED) == SHARED).any():
            fail("a mapping is both zero- and KSM-shared")
        inside = hvpns[hvpns < self.hframe.shape[0]]
        if hmapped[inside].any():
            fail(f"base vpn inside huge region {int(inside[hmapped[inside]][0])}")
        for name, seq in (("base", self.seq[mapped]), ("huge", self.hseq[hmapped])):
            if np.unique(seq).shape[0] != seq.shape[0]:
                fail(f"duplicate {name} seq")
            if seq.shape[0] and int(seq.max()) >= self._next_seq:
                fail(f"{name} seq beyond the counter")
