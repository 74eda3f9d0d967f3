"""FreeBSD-style reservation-based huge page management.

After Navarro et al. (superpages, OSDI'02), as characterised in the
paper's §1: on the first fault in a huge-page-sized region, *reserve* a
contiguous order-9 physical block but map only base pages from it;
promote (a cheap in-place remap, since the frames are contiguous) only
once **all 512** base pages have been touched.  Under memory pressure,
partially-used reservations are broken and their untouched frames
returned to the allocator.

This manages contiguity frugally and produces no bloat, at the cost of
more page faults and higher MMU overheads for sparsely-touched regions —
the conservative end of the trade-off spectrum the paper explores.
"""

from __future__ import annotations

from repro.policies.base import HugePagePolicy
from repro.units import PAGES_PER_HUGE
from repro.vm.process import Process
from repro.vm.vma import VMA


class FreeBSDPolicy(HugePagePolicy):
    """Reservation-based promotion (promote at full population)."""

    name = "freebsd"

    def __init__(self, kernel):
        super().__init__(kernel)
        #: (pid, hvpn) -> start frame of the reserved order-9 block.
        self.reservations: dict[tuple[int, int], int] = {}
        self.reservations_broken = 0

    def fault_size(self, proc: Process, vma: VMA, vpn: int) -> str:
        """Always base pages; contiguity comes from reservations instead."""
        return "base"

    def reserved_frame(self, proc: Process, vma: VMA, vpn: int) -> int | None:
        """Reserve an order-9 block on first fault; map faults within it."""
        hvpn = vpn >> 9
        key = (proc.pid, hvpn)
        block = self.reservations.get(key)
        if block is None:
            proc.regions.ensure(hvpn)
            if (not proc.page_table.region_resident(hvpn)
                    and vma.covers(hvpn << 9, PAGES_PER_HUGE)):
                got = self.kernel.buddy.try_alloc(9, prefer_zero=False, owner=proc.pid)
                if got is not None:
                    block = got[0]
                    self.reservations[key] = block
        if block is None:
            return None
        return block + (vpn & (PAGES_PER_HUGE - 1))

    def post_fault(self, proc: Process, vma: VMA, vpn: int, huge: bool) -> None:
        """Promote in place once a reservation is fully populated."""
        hvpn = vpn >> 9
        key = (proc.pid, hvpn)
        if key not in self.reservations:
            return
        proc.regions.ensure(hvpn)
        if proc.page_table.region_resident(hvpn) >= PAGES_PER_HUGE:
            # Fully populated: in-place promotion (the frames are ours
            # and contiguous, so this is a remap, not a copy).
            del self.reservations[key]
            self.kernel.promote_region(proc, hvpn)

    def _break_reservation(self, key: tuple[int, int]) -> int:
        """Drop one reservation, freeing the frames no PTE maps yet."""
        block = self.reservations.pop(key)
        freed = 0
        for frame in range(block, block + PAGES_PER_HUGE):
            if self.kernel.rmap_owner(frame) is None and self.kernel.frames.allocated[frame]:
                self.kernel.buddy.free(frame, 0)
                freed += 1
        self.reservations_broken += 1
        return freed

    def on_memory_pressure(self, pages_needed: int) -> int:
        """Break reservations until enough unused frames are returned."""
        freed = 0
        for key in list(self.reservations):
            freed += self._break_reservation(key)
            if freed >= pages_needed:
                break
        return freed

    def on_madvise_free(self, proc: Process, vpn: int, npages: int) -> None:
        """Freed pages break the covering reservations (holes cannot fill)."""
        for hvpn in range(vpn >> 9, (vpn + npages - 1 >> 9) + 1):
            if (proc.pid, hvpn) in self.reservations:
                self._break_reservation((proc.pid, hvpn))

    def on_process_exit(self, proc: Process) -> None:
        """Break all of the exiting process's reservations."""
        for key in [k for k in self.reservations if k[0] == proc.pid]:
            self._break_reservation(key)
