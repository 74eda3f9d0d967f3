"""Per-epoch MMU overhead computation.

Each epoch, every running process presents the hardware model with a set
of :class:`RegionLoad` records describing what its access profile touched:
how many huge-page-sized regions, at what access-coverage, what fraction
of them are currently mapped huge, and with what pattern.  The model
computes

* TLB demand per page-size class and capacity miss fractions
  (:class:`repro.tlb.tlb.TLBConfig`),
* a per-pattern miss ratio — random reuse pays the capacity term,
  sequential streams miss once per page regardless of TLB size,
* walker cycles per useful cycle ``x`` from the walk-cost tables, and
* the saturating overhead ``x / (1 + x)``, the fraction of wall cycles the
  page walker keeps the pipeline stalled — the quantity the paper's
  Table 4 methodology measures via performance counters.

This is the "actual" overhead in the paper's terms.  HawkEye-G never sees
it; it estimates from access-coverage alone, and the gap between the two
is precisely what the HawkEye-PMU variant exploits (paper §2.4, Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.patterns import Pattern
from repro.tlb.perf import PMUCounters
from repro.tlb.tlb import TLBConfig
from repro.tlb.walk import blended_walk_cycles, pattern_latency_factor
from repro.units import BASE_PAGE_SIZE, CYCLES_PER_USEC, HUGE_PAGE_SIZE

#: Miss-frequency discount for strided reuse relative to random.
STRIDED_MISS_FACTOR = 0.6


@dataclass(frozen=True)
class RegionLoad:
    """One access-profile region's contribution to TLB load this epoch."""

    touched_regions: int          # huge-page-sized regions touched
    coverage: float               # base pages accessed per touched region (0..512)
    promoted_fraction: float      # fraction of touched regions mapped huge
    weight: float                 # share of the process's accesses
    pattern: Pattern = Pattern.RANDOM
    stride: int = 8               # bytes between consecutive accesses (sequential)
    #: fraction of this load's pages resident on a remote NUMA node; walks
    #: into those pages pay ``remote_penalty`` (SLIT distance ratio).
    #: Zero on single-node kernels, keeping the cost math untouched.
    remote_fraction: float = 0.0
    remote_penalty: float = 1.0


@dataclass
class MMUEpoch:
    """Result of one epoch's overhead computation for one process."""

    overhead: float = 0.0             # fraction of cycles spent walking
    walk_cycles_per_useful: float = 0.0
    demand_base: float = 0.0
    demand_huge: float = 0.0
    miss_base: float = 0.0
    miss_huge: float = 0.0
    tlb_miss_rate: float = 0.0        # misses per access (Table 3 column)
    #: share of walk cycles attributable to remote-node memory (the extra
    #: cost *and* the remote portion of the base cost).
    remote_walk_fraction: float = 0.0

    def charge(self, pmu: PMUCounters, useful_us: float) -> tuple[float, float]:
        """Feed the PMU with this epoch's walker activity.

        Returns ``(walk_cycles, total_cycles)`` for process accounting.
        """
        useful_cycles = useful_us * CYCLES_PER_USEC
        walk = self.walk_cycles_per_useful * useful_cycles
        total = useful_cycles + walk
        pmu.record(walk, total)
        return walk, total


@dataclass
class MMUModel:
    """The analytic hardware model shared by all processes of a kernel."""

    tlb: TLBConfig = field(default_factory=TLBConfig)

    def epoch(
        self,
        loads: list[RegionLoad],
        access_rate: float,
        host_huge_fraction: float | None = None,
    ) -> MMUEpoch:
        """Compute the epoch's MMU overhead.

        ``access_rate`` is the process's memory accesses per useful
        microsecond; ``host_huge_fraction`` switches walk costs to the
        nested tables when the process runs inside a VM.
        """
        result = MMUEpoch()
        if not loads or access_rate <= 0:
            return result

        for load in loads:
            huge_touched = load.touched_regions * load.promoted_fraction
            base_touched = load.touched_regions - huge_touched
            result.demand_base += base_touched * load.coverage
            result.demand_huge += huge_touched
        result.miss_base, result.miss_huge = self.tlb.miss_fractions(
            result.demand_base, result.demand_huge
        )

        walk_per_us = 0.0
        misses_per_us = 0.0
        remote_walk_per_us = 0.0
        total_weight = sum(load.weight for load in loads)
        for load in loads:
            accesses = access_rate * load.weight
            for size, share, capacity_miss in (
                ("4k", 1.0 - load.promoted_fraction, result.miss_base),
                ("2m", load.promoted_fraction, result.miss_huge),
            ):
                if share <= 0:
                    continue
                miss_ratio = self._miss_ratio(load, size, capacity_miss)
                cost = blended_walk_cycles(size, host_huge_fraction)
                cost *= pattern_latency_factor(load.pattern)
                if load.remote_fraction > 0.0:
                    # Walks into remote pages pay the SLIT distance ratio;
                    # guarded so single-node float math stays untouched.
                    rf = load.remote_fraction
                    remote_cost = cost * rf * load.remote_penalty
                    cost = cost * (1.0 - rf) + remote_cost
                    remote_walk_per_us += accesses * share * miss_ratio * remote_cost
                walk_per_us += accesses * share * miss_ratio * cost
                misses_per_us += accesses * share * miss_ratio

        x = walk_per_us / CYCLES_PER_USEC
        result.walk_cycles_per_useful = x
        result.overhead = x / (1.0 + x)
        if remote_walk_per_us > 0.0:
            result.remote_walk_fraction = remote_walk_per_us / walk_per_us
        # misses per access: normalise by the total access stream, which
        # is access_rate spread over the loads' weights
        result.tlb_miss_rate = misses_per_us / (access_rate * total_weight)
        return result

    @staticmethod
    def _miss_ratio(load: RegionLoad, size: str, capacity_miss: float) -> float:
        """Fraction of this load's accesses that miss the TLB."""
        if load.pattern is Pattern.SEQUENTIAL:
            # One compulsory miss per page streamed through, amortised over
            # the accesses that page receives; capacity is irrelevant.
            page = BASE_PAGE_SIZE if size == "4k" else HUGE_PAGE_SIZE
            return min(1.0, load.stride / page)
        if load.pattern is Pattern.STRIDED:
            return STRIDED_MISS_FACTOR * capacity_miss
        return capacity_miss
