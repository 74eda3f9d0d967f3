"""Per-tenant-class QoS accounting.

Each tenant contributes one sample per lifetime, recorded at exit while
its page table is still live: average fault latency (into the existing
log2 :class:`~repro.trace.LatencyHistogram`, so p50/p99 *across tenant
lifetimes* fall out of the standard quantile machinery), promotions,
huge coverage and bloat.  The per-class histograms are exactly the
fairness instrument the paper's Fig. 7/8 comparison needs: a policy
that serves every tenant alike has a tight histogram; one that starves
latecomers grows a tail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.trace import LatencyHistogram
from repro.units import BASE_PAGE_SIZE, MB
from repro.vm.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class ClassQoS:
    """Accumulated per-lifetime samples for one tenant class."""

    def __init__(self, name: str):
        self.name = name
        #: one sample per tenant lifetime: its average fault latency.
        self.fault_us = LatencyHistogram()
        self.tenants = 0
        self.oom_kills = 0
        self.faults = 0
        self.promotions = 0
        self.huge_cov_sum = 0.0
        self.bloat_mb_sum = 0.0

    def to_dict(self) -> dict:
        """JSON-able per-class summary (means are derived, not stored)."""
        n = max(self.tenants, 1)
        return {
            "tenants": self.tenants,
            "oom_kills": self.oom_kills,
            "faults": self.faults,
            "promotions": self.promotions,
            "mean_huge_coverage": round(self.huge_cov_sum / n, 4),
            "mean_bloat_mb": round(self.bloat_mb_sum / n, 4),
            "fault_us": self.fault_us.to_dict(),
        }


class TenantQoS:
    """Fleet-wide QoS ledger, one :class:`ClassQoS` per tenant class."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassQoS] = {}

    def record_exit(self, kernel: "Kernel", proc: Process,
                    class_name: str, reason: str) -> None:
        """Fold one finished tenant into its class (call *before* teardown)."""
        cq = self.classes.setdefault(class_name, ClassQoS(class_name))
        stats = proc.stats
        cq.tenants += 1
        cq.faults += int(stats.faults)
        cq.promotions += int(stats.promotions)
        cq.fault_us.add(stats.fault_time_us / max(stats.faults, 1))
        rss = proc.rss_pages()
        huge_pages = proc.page_table.huge_mapped_pages()
        cq.huge_cov_sum += huge_pages / max(rss, 1)
        from repro.experiments import useful_bytes

        bloat = rss * BASE_PAGE_SIZE - useful_bytes(kernel, proc)
        cq.bloat_mb_sum += max(bloat, 0) / MB
        if reason == "oom":
            cq.oom_kills += 1

    def overall(self) -> LatencyHistogram:
        """All classes' lifetime histograms merged bucket-wise."""
        merged = LatencyHistogram()
        for cq in self.classes.values():
            hist = cq.fault_us
            if not hist.count:
                continue
            merged.count += hist.count
            merged.total_us += hist.total_us
            merged.min_us = min(merged.min_us, hist.min_us)
            merged.max_us = max(merged.max_us, hist.max_us)
            for idx, count in hist.buckets.items():
                merged.buckets[idx] = merged.buckets.get(idx, 0) + count
        return merged

    def fairness_spread(self) -> float:
        """Relative spread of per-class mean fault latency (0 = perfectly fair).

        ``(max - min) / max`` over classes with at least one finished
        tenant — the scalar the fleet experiment compares across
        policies (paper Fig. 7/8's fairness axis).
        """
        means = [cq.fault_us.mean_us for cq in self.classes.values() if cq.tenants]
        if len(means) < 2 or max(means) <= 0:
            return 0.0
        return (max(means) - min(means)) / max(means)

    def snapshot(self) -> dict:
        """JSON-able per-class map, sorted for deterministic artifacts."""
        return {name: self.classes[name].to_dict()
                for name in sorted(self.classes)}
