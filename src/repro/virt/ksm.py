"""Kernel same-page merging at the host, with guest-content indirection.

Like Linux's ``ksmd``, the thread scans the host pages backing each VM
and merges identical content; in this model it targets the dominant case
the paper exploits — zero-filled guest pages — by reading the *guest's*
frame content (KSM reads page bytes, so it sees guest truth).

Interaction with huge pages follows the coordinated designs the paper
cites (Ingens, SmartMD): a host *huge* page is broken for merging only
when almost all of it is zero in the guest, so useful huge mappings
survive; base-mapped host pages merge individually.

Combined with guest-side async pre-zeroing, this is the paper's §4
"memory sharing in virtualized environments" channel: a guest frees
memory → the guest pre-zero thread clears it → ksmd merges the backing
host pages onto the zero frame → the host regains the memory, with the
same net effect as ballooning but fully transparent (Figure 11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import trace
from repro.kernel.kthread import RateLimiter
from repro.units import PAGES_PER_HUGE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virt.hypervisor import Hypervisor

#: zero fraction (guest truth) above which a host huge page is demoted
#: so its zero pages can merge.  Guest frees scatter across guest frame
#: space, so half-zero backing pages are common; reclaiming 256+ pages
#: justifies breaking the mapping (the coordinated demotion trade-off of
#: Ingens/SmartMD the paper discusses in §3.2).
DEMOTE_ZERO_FRACTION = 0.5


class KSMThread:
    """Host-side same-page-merging daemon over VM backing regions."""

    def __init__(self, hypervisor: "Hypervisor", pages_per_sec: float = 50_000.0):
        self.hypervisor = hypervisor
        self._limiter = RateLimiter(pages_per_sec, hypervisor.host.config.epoch_us)
        self._cursor: dict[str, int] = {}
        self.merged_pages = 0

    def run_epoch(self) -> int:
        """Scan VM backing regions round-robin and merge guest-zero pages."""
        self._limiter.refill()
        host = self.hypervisor.host
        cpu_before = host.stats.khugepaged_cpu_us
        merged = 0
        for vm in self.hypervisor.vms:
            merged += self._scan_vm(vm)
        if merged and (tp := host.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.KSM_MERGE, "ksmd",
                    host.stats.khugepaged_cpu_us - cpu_before,
                    detail=f"merged={merged}")
        return merged

    def _scan_vm(self, vm) -> int:
        host = self.hypervisor.host
        base_hvpn = vm.ram_vma.start >> 9
        nregions = vm.ram_pages // PAGES_PER_HUGE
        if nregions == 0:
            return 0
        start = self._cursor.get(vm.name, 0)
        merged = 0
        for step in range(nregions):
            if not self._limiter.take(PAGES_PER_HUGE):
                break
            idx = (start + step) % nregions
            merged += self._scan_region(vm, base_hvpn + idx)
            self._cursor[vm.name] = (idx + 1) % nregions
        host.stats.ksm_merged_pages += merged
        self.merged_pages += merged
        return merged

    def _scan_region(self, vm, host_hvpn: int) -> int:
        """Merge guest-zero pages of one host huge region."""
        host = self.hypervisor.host
        proc = vm.host_proc
        pt = proc.page_table
        zero_mask = vm.guest_zero_mask(host_hvpn)
        nz = int(zero_mask.sum())
        # Scanning cost: one cheap hash/compare per page in the region.
        host.stats.khugepaged_cpu_us += host.costs.ksm_compare_us * PAGES_PER_HUGE / 64.0

        if pt.region_huge(host_hvpn):
            if nz < DEMOTE_ZERO_FRACTION * PAGES_PER_HUGE:
                return 0
            host.demote_region(proc, host_hvpn)

        frames, private = pt.region_mirror(host_hvpn)
        offs = np.flatnonzero(private & zero_mask[: frames.shape[0]])
        vpn0 = host_hvpn << 9
        for offset, frame in zip(offs.tolist(), frames[offs].tolist()):
            host.share_zero_page(proc, vpn0 + offset, frame)
        return offs.shape[0]
