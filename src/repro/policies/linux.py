"""Linux huge-page policies: no-THP baseline and transparent huge pages.

``Linux4KPolicy`` maps everything with base pages (THP disabled — the
paper's "Linux-4KB" configuration).

``LinuxTHPPolicy`` models Linux's THP as the paper describes it (§1):

* at fault time, allocate a huge page synchronously when the VMA covers
  the region and a contiguous block is available — including the
  synchronous zeroing that makes huge faults 465 µs;
* otherwise fall back to base pages and let ``khugepaged`` promote in the
  background: processes are visited in first-come-first-served order, and
  within a process regions are promoted by a *sequential scan from lower
  to higher virtual addresses* — the behaviour that makes Linux unfair
  across processes (Figure 7) and slow to reach hot regions living in
  high VAs (Figure 6);
* khugepaged collapses regions with any resident page (Linux's default
  ``max_ptes_none`` allows collapse around mostly-empty regions), which
  is one of the paper's sources of memory bloat.
"""

from __future__ import annotations

from repro.kernel.kthread import RateLimiter
from repro.policies.base import HugePagePolicy
from repro.vm.process import Process
from repro.vm.vma import VMA


class Linux4KPolicy(HugePagePolicy):
    """THP disabled: base pages only, no background promotion."""

    name = "linux-4kb"

    def fault_size(self, proc: Process, vma: VMA, vpn: int) -> str:
        """Base pages only (THP disabled)."""
        return "base"


class LinuxTHPPolicy(HugePagePolicy):
    """Linux transparent huge pages with khugepaged background promotion."""

    name = "linux-thp"

    def __init__(
        self,
        kernel,
        promote_per_sec: float = 10.0,
        khugepaged: bool = True,
        max_ptes_none: int = 511,
    ):
        super().__init__(kernel)
        self.khugepaged = khugepaged
        #: Linux's /sys/kernel/mm/transparent_hugepage/khugepaged/
        #: max_ptes_none: how many *empty* PTEs a region may contain and
        #: still be collapsed.  The default (511) lets khugepaged collapse
        #: around a single resident page — the paper's §2.1 bloat source.
        #: 0 makes collapse as conservative as FreeBSD's full-population
        #: promotion.
        self.max_ptes_none = max_ptes_none
        self._limiter = RateLimiter(promote_per_sec, kernel.config.epoch_us)
        #: per-process scan cursor: khugepaged resumes where it left off.
        self._cursor: dict[int, int] = {}

    def fault_size(self, proc: Process, vma: VMA, vpn: int) -> str:
        """Map a huge page at fault whenever the region allows it."""
        return "huge"

    def on_epoch(self) -> None:
        """khugepaged: FCFS across processes, ascending-VA within each."""
        if not self.khugepaged:
            return
        self._limiter.refill()
        audited = (al := self.kernel.audit) is not None and al.enabled
        # FCFS: finish one process's scan before starting the next.
        for proc in sorted(self.kernel.processes, key=lambda p: p.launch_index):
            while True:
                hvpn = self._next_candidate(proc)
                if hvpn is None:
                    break  # this process fully scanned; move to the next
                region = proc.regions.get(hvpn)
                resident = 0 if region is None else region.resident
                if not self._limiter.take():
                    if audited:
                        al.decide(
                            "promote", proc.name, proc.pid, hvpn,
                            "reject", "budget_exhausted", stage=2,
                            inputs={"budget_left": self._limiter.available,
                                    "resident": resident,
                                    "max_ptes_none": self.max_ptes_none})
                    return  # promotion budget exhausted for this epoch
                if self.kernel.promote_region(proc, hvpn) is None:
                    if audited:
                        al.decide(
                            "promote", proc.name, proc.pid, hvpn,
                            "reject", "promote_failed", stage=3,
                            inputs={"resident": resident,
                                    "max_ptes_none": self.max_ptes_none,
                                    "fmfi": self.kernel.fmfi()})
                    # No contiguity even after compaction: stop this epoch.
                    return
                if audited:
                    al.decide("promote", proc.name, proc.pid, hvpn,
                              "accept", "promoted", stage=4,
                              inputs={"resident": resident,
                                      "max_ptes_none": self.max_ptes_none})

    def _next_candidate(self, proc: Process) -> int | None:
        """Lowest promotable region at or above the scan cursor."""
        from repro.units import PAGES_PER_HUGE

        cursor = self._cursor.get(proc.pid, 0)
        candidates = sorted(
            r.hvpn
            for r in proc.regions.values()
            if not r.is_huge
            and r.resident > 0
            and PAGES_PER_HUGE - r.resident <= self.max_ptes_none
            and self.kernel.can_promote(proc, r.hvpn)
        )
        for hvpn in candidates:
            if hvpn >= cursor:
                self._cursor[proc.pid] = hvpn + 1
                return hvpn
        if candidates:
            # Wrap the scan around, like khugepaged's circular scan.
            self._cursor[proc.pid] = candidates[0] + 1
            return candidates[0]
        return None
