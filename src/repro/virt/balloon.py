"""Para-virtual balloon driver (the Figure 11 comparator).

The balloon driver knows, through its in-guest component, exactly which
guest frames are free, and returns their host backing directly: host PTEs
are unmapped and the host frames freed.  When the guest reallocates a
ballooned frame, the normal backing-fault path brings the host page back.

This is the explicit, para-virtual channel the paper contrasts with its
fully-transparent pre-zeroing + KSM alternative — same net effect,
different trust/compatibility trade-offs (§4, Figure 11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.kthread import RateLimiter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virt.hypervisor import VirtualMachine


class BalloonDriver:
    """Returns a VM's free guest frames to the host, rate-limited."""

    def __init__(self, vm: "VirtualMachine", pages_per_sec: float = 50_000.0):
        self.vm = vm
        self._limiter = RateLimiter(pages_per_sec, vm.guest.config.epoch_us)
        self.returned_pages = 0

    def run_epoch(self) -> int:
        """Return up to this epoch's budget of free guest frames to the host."""
        self._limiter.refill()
        host = self.vm.hypervisor.host
        pt = self.vm.host_proc.page_table
        returned = 0
        for start, order, _ in list(self.vm.guest.buddy.iter_free_blocks()):
            for frame in range(start, start + (1 << order)):
                vpn = self.vm.host_vpn(frame)
                if pt.region_huge(vpn >> 9):
                    # Returning any page of a host huge region breaks it.
                    host.demote_region(self.vm.host_proc, vpn >> 9)
                if not pt.base_mapped(vpn):
                    continue
                if not self._limiter.take():
                    self.returned_pages += returned
                    return returned
                host._unmap_base_page(self.vm.host_proc, vpn)
                returned += 1
        self.returned_pages += returned
        return returned
