"""Ingens (Kwon et al., OSDI'16) as characterised by the HawkEye paper.

The three Ingens mechanisms the paper compares against (§1, §2):

1. **Adaptive promotion threshold.**  Ingens watches the Free Memory
   Fragmentation Index.  Below 0.5 (plenty of contiguity) it promotes
   aggressively — any region with a faulted page is a candidate, like
   Linux.  Above 0.5 it promotes conservatively — only regions whose
   utilisation reaches the configured threshold (90 % in the paper's
   "Ingens-90%" configuration).

2. **Async-only promotion.**  Faults always map base pages; a background
   thread does all promotion.  This fixes huge-fault latency but, as the
   paper's Table 1 shows, forfeits the fewer-page-faults benefit of huge
   pages for sequential allocators.

3. **Proportional fairness with an idleness penalty.**  Memory contiguity
   is treated as a resource: the process with the smallest share of huge
   pages relative to its RSS is served first, and *idle* huge pages
   (untouched in the last access-bit sample) count extra against a
   process's share.

Within a process, candidates are promoted in ascending virtual-address
order, the sequential scan the paper's §2.3 criticises.
"""

from __future__ import annotations

from repro.kernel.kthread import RateLimiter
from repro.policies.base import HugePagePolicy
from repro.units import PAGES_PER_HUGE
from repro.vm.process import Process
from repro.vm.vma import VMA


class IngensPolicy(HugePagePolicy):
    """Adaptive utilisation-threshold promotion with proportional fairness."""

    name = "ingens"

    def __init__(
        self,
        kernel,
        util_threshold: float = 0.9,
        fmfi_threshold: float = 0.5,
        promote_per_sec: float = 10.0,
        idle_penalty: float = 1.0,
        adaptive: bool = True,
    ):
        super().__init__(kernel)
        self.util_threshold = util_threshold
        self.fmfi_threshold = fmfi_threshold
        self.idle_penalty = idle_penalty
        #: when False, always use the conservative threshold (the paper's
        #: "Ingens-90%" configuration); when True, relax under low
        #: fragmentation (aggressive phase).
        self.adaptive = adaptive
        self._limiter = RateLimiter(promote_per_sec, kernel.config.epoch_us)
        self.name = f"ingens-{int(util_threshold * 100)}"
        #: idle huge pages demoted for same-page merging under pressure.
        self.demotions_for_ksm = 0
        self._merger = None

    def fault_size(self, proc: Process, vma: VMA, vpn: int) -> str:
        """Always base pages; promotion is asynchronous in Ingens."""
        return "base"  # promotion is always asynchronous in Ingens

    # ------------------------------------------------------------------ #
    # promotion thread                                                    #
    # ------------------------------------------------------------------ #

    def current_threshold(self) -> float:
        """Residency fraction a region needs before it may be promoted."""
        if self.adaptive and self.kernel.fmfi() < self.fmfi_threshold:
            return 1.0 / PAGES_PER_HUGE  # aggressive: any faulted page
        return self.util_threshold

    def promotion_metric(self, proc: Process) -> float:
        """Proportional share of contiguity, penalised for idle huge pages.

        Smaller metric = less served = promoted first."""
        huge = 0
        idle_huge = 0
        for region in proc.regions.values():
            if region.is_huge:
                huge += 1
                if region.idle:
                    idle_huge += 1
        rss = max(proc.rss_pages(), 1)
        return (huge + self.idle_penalty * idle_huge) * PAGES_PER_HUGE / rss

    def _candidates(self, proc: Process, threshold: float) -> list[int]:
        # Regions demoted *for ksm* are excluded until they are accessed
        # again, so collapse does not fight the merger over them — the
        # counter-productive khugepaged/ksm interaction the paper cites
        # from [51].  Idle regions in general remain candidates: Figure 1
        # shows Ingens's aggressive phase does bloat around them.
        return sorted(
            r.hvpn
            for r in proc.regions.values()
            if not r.is_huge
            and not r.bloat_demoted
            and r.utilization() >= threshold
            and self.kernel.can_promote(proc, r.hvpn)
        )

    def on_epoch(self) -> None:
        """Promote up to budget, fairness-ordered, threshold per FMFI phase."""
        if self._merger is not None:
            self._merger.run_epoch()
        self._limiter.refill()
        threshold = self.current_threshold()
        per_proc = {p.pid: self._candidates(p, threshold) for p in self.kernel.processes}
        audited = (al := self.kernel.audit) is not None and al.enabled
        while self._limiter.available >= 1.0:
            eligible = [p for p in self.kernel.processes if per_proc[p.pid]]
            if not eligible:
                break
            proc = min(eligible, key=self.promotion_metric)
            hvpn = per_proc[proc.pid].pop(0)  # lowest VA first
            region = proc.regions.get(hvpn)
            util = 0.0 if region is None else region.utilization()
            if not self._limiter.take():
                if audited:
                    al.decide("promote", proc.name, proc.pid, hvpn,
                              "reject", "budget_exhausted", stage=2,
                              inputs={"budget_left": self._limiter.available,
                                      "threshold": threshold,
                                      "utilization": util})
                break
            if self.kernel.promote_region(proc, hvpn) is None:
                if audited:
                    al.decide("promote", proc.name, proc.pid, hvpn,
                              "reject", "promote_failed", stage=3,
                              inputs={"threshold": threshold,
                                      "utilization": util,
                                      "fmfi": self.kernel.fmfi()})
                break  # no contiguity even after compaction
            if audited:
                al.decide("promote", proc.name, proc.pid, hvpn,
                          "accept", "promoted", stage=4,
                          inputs={"threshold": threshold,
                                  "utilization": util,
                                  "fairness_metric":
                                      self.promotion_metric(proc)})

    def estimated_overhead(self, proc: Process) -> float:
        """Ingens has no overhead model; expose utilisation pressure."""
        candidates = [r for r in proc.regions.values() if not r.is_huge and r.resident > 0]
        return min(1.0, len(candidates) / 1024.0)

    # ------------------------------------------------------------------ #
    # ksm coordination (§3.2's characterisation of Ingens)                #
    # ------------------------------------------------------------------ #

    def enable_ksm(self, pages_per_sec: float) -> None:
        """Attach a background same-page merger (off by default).

        Merging proceeds at ksm speed; memory pressure only *exposes*
        idle huge pages to it by demoting them (below).  This is why the
        paper's Figure 1 Ingens still runs out of memory: the merger is
        far too slow to reclaim bloat at allocation speed, unlike
        HawkEye's targeted zero-scan.
        """
        from repro.mem.samepage import SamePageMerger

        self._merger = SamePageMerger(self.kernel, pages_per_sec=pages_per_sec)

    def on_memory_pressure(self, pages_needed: int) -> int:
        """Demote *idle* huge pages so same-page merging can reach them.

        The paper (§3.2) describes Ingens's coordinated mechanism: only
        infrequently-accessed huge pages are broken for ksm.  Demotion
        itself frees nothing — reclaim happens at the background merger's
        rate — so the immediate return is 0 and the kernel falls through
        to swap or OOM, matching the paper's Figure 1 outcome.
        """
        for proc in self.kernel.processes:
            for region in list(proc.regions.values()):
                if region.is_huge and region.idle:
                    self.kernel.demote_region(proc, region.hvpn)
                    region.bloat_demoted = True  # cooldown against re-collapse
                    self.demotions_for_ksm += 1
        return 0

    def on_sample(self, proc: Process) -> None:
        """Lift the ksm-demotion cooldown once a region is accessed again."""
        for region in proc.regions.values():
            if region.bloat_demoted and region.last_coverage > 0:
                region.bloat_demoted = False
