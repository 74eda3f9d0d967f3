"""The HawkEye policy: §3's four mechanisms behind the policy interface.

Fault path: like Linux THP, HawkEye maps a huge page at the *first* fault
in a region when contiguity allows — but because of async pre-zeroing the
fault does not pay the 452 µs synchronous clearing in the common case
(``trusts_zero_lists``).  Everything else is background work:

* the pre-zero thread refills the buddy allocator's zero lists;
* the access-bit sampler (kernel, every 30 s) feeds each process's
  access_map;
* the promotion engine consumes access_maps, ordered across processes by
  estimated (``variant='g'``) or measured (``variant='pmu'``) MMU
  overhead;
* bloat recovery runs between the memory watermarks, and also serves the
  kernel's allocation-failure path (``on_memory_pressure``).

``HawkEyeConfig`` collects every knob with the paper's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.access_map import AccessMap
from repro.core.bloat import BloatRecovery
from repro.core.limits import HugePageLimits
from repro.core.prezero import PreZeroThread
from repro.core.promotion import PromotionEngine
from repro.mem.watermarks import Watermarks
from repro.policies.base import HugePagePolicy
from repro.vm.process import Process
from repro.vm.vma import VMA

#: smoothing for the per-epoch PMU overhead samples.
PMU_EMA_ALPHA = 0.5


@dataclass
class HawkEyeConfig:
    """Tunables, defaulting to the paper's prototype values."""

    variant: str = "g"                      # 'g' or 'pmu'
    promote_per_sec: float = 10.0           # huge-page promotions per second
    prezero_pages_per_sec: float = 100_000.0
    non_temporal: bool = True
    prezero_enabled: bool = True
    watermark_high: float = 0.85            # §3.2 bloat-recovery trigger
    watermark_low: float = 0.70
    bloat_scan_pages_per_sec: float = 100_000.0
    bloat_zero_threshold: float = 0.5       # zero fraction to demote
    pmu_stop_threshold: float = 0.02        # PMU variant stops below 2 %
    #: map huge at first fault (the paper's behaviour).  False gives the
    #: "HawkEye-4KB" configuration of Tables 1 and 8 (pre-zeroing only).
    huge_faults: bool = True
    #: §3.5 extension — per-process huge-page caps (name or "prefix*" ->
    #: max huge pages); None disables limiting.
    huge_page_limits: dict | None = None
    #: §3.5 extension — cgroup-like group caps ("prefix*" -> max huge
    #: pages summed across every live matching process).
    huge_page_group_limits: dict | None = None
    #: §3.5 extension — adapt the bloat-recovery watermarks to allocation
    #: volatility instead of using the static 85/70 thresholds.
    dynamic_watermarks: bool = False


class HawkEyePolicy(HugePagePolicy):
    """HawkEye-G / HawkEye-PMU."""

    trusts_zero_lists = True

    def __init__(self, kernel, config: HawkEyeConfig | None = None, **overrides):
        super().__init__(kernel)
        if config is None:
            config = HawkEyeConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides")
        self.config = config
        self.name = f"hawkeye-{config.variant}"
        self.access_maps: dict[int, AccessMap] = {}
        #: smoothed per-process measured MMU overhead (PMU variant).
        self.measured: dict[int, float] = {}
        self.prezero = PreZeroThread(
            kernel,
            pages_per_sec=config.prezero_pages_per_sec,
            non_temporal=config.non_temporal,
        )
        if config.dynamic_watermarks:
            from repro.mem.watermarks import DynamicWatermarks

            watermarks = DynamicWatermarks(config.watermark_high, config.watermark_low)
        else:
            watermarks = Watermarks(config.watermark_high, config.watermark_low)
        self.bloat = BloatRecovery(
            kernel,
            overhead_of=self.estimated_overhead,
            watermarks=watermarks,
            scan_pages_per_sec=config.bloat_scan_pages_per_sec,
            zero_threshold=config.bloat_zero_threshold,
        )
        self.limits = None
        if (config.huge_page_limits is not None
                or config.huge_page_group_limits is not None):
            self.limits = HugePageLimits(config.huge_page_limits,
                                         config.huge_page_group_limits)
            self.limits.bind(kernel)
        self.engine = PromotionEngine(
            kernel,
            self.access_maps,
            promote_per_sec=config.promote_per_sec,
            variant=config.variant,
            measured_overhead=self.measured_overhead,
            pmu_stop_threshold=config.pmu_stop_threshold,
            skip_bloat_demoted=lambda: self.bloat.active,
            limits=self.limits,
        )

    # ------------------------------------------------------------------ #
    # fault path                                                          #
    # ------------------------------------------------------------------ #

    def fault_size(self, proc: Process, vma: VMA, vpn: int) -> str:
        """Huge at first fault, unless disabled, hinted off, or over a cap."""
        if not self.config.huge_faults:
            return "base"
        if self.limits is not None and not self.limits.may_promote(proc):
            # Rare path: only processes with a §3.5 cap ever land here, so
            # the per-fault audit test stays off the common huge path.
            if (al := self.kernel.audit) is not None and al.enabled:
                al.decide("fault_size", proc.name, proc.pid, vpn >> 9,
                          "reject", "limit_cap", stage=1,
                          inputs={"limit": self.limits.limit_for(proc),
                                  "held": self.limits.held(proc)})
            return "base"
        return "huge"

    # ------------------------------------------------------------------ #
    # background work                                                     #
    # ------------------------------------------------------------------ #

    def on_epoch(self) -> None:
        """Run one epoch of pre-zeroing, promotion and bloat recovery."""
        for proc in self.kernel.processes:
            sample = self.kernel.pmu[proc.pid].sample()
            old = self.measured.get(proc.pid, 0.0)
            self.measured[proc.pid] = PMU_EMA_ALPHA * sample + (1 - PMU_EMA_ALPHA) * old
        if self.config.prezero_enabled:
            self.prezero.run_epoch()
        self.engine.run_epoch()
        self.bloat.run_epoch()

    #: access-coverage discount for regions resident off the owner's home
    #: node: a remote promotion saves less than a local one (the walk it
    #: eliminates was cheap relative to the remote accesses that remain),
    #: and knumad may be about to move — and demote — the region anyway.
    NUMA_REMOTE_COVERAGE_PENALTY = 0.5

    def on_sample(self, proc: Process) -> None:
        """Fresh access-bit sample: rebuild the process's access_map entries.

        The vectorized path computes the drop/keep partition, the
        bloat-demoted clear and the NUMA coverage discount as array masks
        over the region table, then applies them through the access_map's
        bulk entry points.  Removals and updates touch *distinct* keys, so
        splitting the scalar loop's interleaved remove/update sequence
        into all-removals-then-all-updates (each in region order) leaves
        every bucket's contents and internal order identical.
        """
        if not self.kernel.vectorized:
            self._on_sample_scalar(proc)
            return
        amap = self.access_maps.setdefault(proc.pid, AccessMap())
        table = proc.regions
        if not len(table):
            return
        numa = self.kernel.numa
        cross_node = numa is not None and not numa.replicated_pt
        hvpns = table.hvpn_arr()
        drop = table.is_huge_arr() | (table.resident_arr() == 0)
        keep = ~drop
        # Regions in use again may be re-promoted once pressure subsides.
        bloat_demoted = table.bloat_demoted_arr()
        bloat_demoted[keep & bloat_demoted
                      & (table.last_coverage_arr() > 0)] = False
        keep_hvpns = hvpns[keep]
        coverage = table.coverage_ema_arr()[keep].copy()
        if cross_node:
            nodes = numa.region_nodes_arr(proc, keep_hvpns)
            remote = (nodes >= 0) & (nodes != proc.home_node)
            coverage[remote] *= self.NUMA_REMOTE_COVERAGE_PENALTY
        amap.remove_many(hvpns[drop])
        amap.update_many(keep_hvpns, coverage)

    def _on_sample_scalar(self, proc: Process) -> None:
        """Reference sample pass: per-region dict work, one update each."""
        amap = self.access_maps.setdefault(proc.pid, AccessMap())
        numa = self.kernel.numa
        cross_node = numa is not None and not numa.replicated_pt
        for hvpn, region in proc.regions.items():
            if region.is_huge or region.resident == 0:
                amap.remove(hvpn)
                continue
            if region.bloat_demoted and region.last_coverage > 0:
                # The region is in use again: it may be re-promoted once
                # memory pressure subsides.
                region.bloat_demoted = False
            coverage = region.coverage_ema
            if cross_node and numa.region_node(proc, hvpn) not in (
                    None, proc.home_node):
                coverage *= self.NUMA_REMOTE_COVERAGE_PENALTY
            amap.update(hvpn, coverage)

    # ------------------------------------------------------------------ #
    # memory pressure                                                     #
    # ------------------------------------------------------------------ #

    def on_memory_pressure(self, pages_needed: int) -> int:
        """Allocation-failure hook: run emergency bloat recovery (par. 3.2)."""
        return self.bloat.emergency(pages_needed)

    def on_madvise_free(self, proc: Process, vpn: int, npages: int) -> None:
        """Drop freed regions from the access_map."""
        amap = self.access_maps.get(proc.pid)
        if amap is None:
            return
        for hvpn in range(vpn >> 9, (vpn + npages - 1 >> 9) + 1):
            region = proc.regions.get(hvpn)
            if region is None or region.resident <= 0:
                amap.remove(hvpn)

    def on_process_exit(self, proc: Process) -> None:
        """Forget the exiting process's access_map and PMU samples."""
        self.access_maps.pop(proc.pid, None)
        self.measured.pop(proc.pid, None)

    # ------------------------------------------------------------------ #
    # overhead beliefs                                                    #
    # ------------------------------------------------------------------ #

    def measured_overhead(self, proc: Process) -> float:
        """Smoothed Table 4 counter reading (HawkEye-PMU's signal)."""
        return self.measured.get(proc.pid, 0.0)

    def estimated_overhead(self, proc: Process) -> float:
        """The variant's belief about a process's MMU overhead.

        HawkEye-G converts the access_map's TLB-entry demand into a
        saturating pressure score; HawkEye-PMU reads the emulated
        counters.  Used for promotion ordering (PMU), and by bloat
        recovery to pick the least-afflicted victim first (both)."""
        if self.config.variant == "pmu":
            return self.measured_overhead(proc)
        amap = self.access_maps.get(proc.pid)
        if amap is None:
            return 0.0
        demand = amap.pressure_estimate()
        capacity = self.kernel.mmu.tlb.l1_base + self.kernel.mmu.tlb.l2_shared
        return demand / (demand + capacity)
