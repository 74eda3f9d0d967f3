"""SSD-backed swap device.

The paper's overcommit experiments (§4, Figure 11) run on a 96 GB
SSD-backed swap partition.  The model keeps a set of swapped-out
``(pid, vpn)`` mappings: swapping out unmaps a victim base page and frees
its frame; faulting a swapped page costs a swap-in transfer on top of the
normal fault path.  When only huge mappings remain, a victim huge page is
demoted first — exactly what the kernel must do, and one reason
overcommitted systems lose their huge pages.

Victim selection is FIFO over mapped base frames (approximating the
kernel's inactive-list reclaim).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro import audit, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class SwapDevice:
    """Swap space with per-page transfer costs."""

    def __init__(self, kernel: "Kernel", capacity_pages: int):
        self.kernel = kernel
        self.capacity_pages = capacity_pages
        self.swapped: set[tuple[int, int]] = set()
        self.swap_outs = 0
        self.swap_ins = 0
        self.io_time_us = 0.0

    @property
    def free_slots(self) -> int:
        return self.capacity_pages - len(self.swapped)

    def is_swapped(self, pid: int, vpn: int) -> bool:
        """Whether (pid, vpn) is currently held in swap."""
        return (pid, vpn) in self.swapped

    def swap_in(self, pid: int, vpn: int) -> float:
        """Account a swap-in; returns the added fault latency."""
        self.swapped.discard((pid, vpn))
        self.swap_ins += 1
        cost = self.kernel.costs.swap_page_us
        self.io_time_us += cost
        return cost

    def swap_out(self, npages: int) -> int:
        """Evict up to ``npages`` mapped base pages; returns frames freed."""
        kernel = self.kernel
        freed = 0
        victims: Iterator[int] = iter(())
        while freed < npages and self.free_slots > 0:
            frame = next(victims, None)
            if frame is None:
                victims = self._victims()
                frame = next(victims, None)
                if frame is None:
                    break
            proc, vpn = kernel.rmap_owner(frame)
            proc.page_table.unmap_base(vpn)
            kernel.rmap_remove(frame)
            if (al := kernel.audit) is not None and al.enabled:
                al.ledger.record(frame, 1, audit.EV_SWAPPED_OUT)
            kernel.buddy.free(frame, 0)
            self.swapped.add((proc.pid, vpn))
            self.swap_outs += 1
            self.io_time_us += kernel.costs.swap_page_us
            if (tp := kernel.trace) is not None and tp.enabled:
                tp.emit(trace.TraceKind.SWAP_OUT, proc.name,
                        kernel.costs.swap_page_us, vpn)
            freed += 1
        return freed

    def _victims(self) -> Iterator[int]:
        """Privately mapped base frames, FIFO; demotes the oldest huge
        mapping first when there are none.  Evicting a victim adds no
        reverse mapping, so one snapshot serves a whole ``swap_out``."""
        kernel = self.kernel
        frames = kernel.rmap_by_age()
        if not frames.shape[0] and (oldest := kernel.oldest_huge_mapping()) is not None:
            kernel.demote_region(*oldest)
            frames = kernel.rmap_by_age()
        return iter(frames.tolist())
