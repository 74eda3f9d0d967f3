"""Working-set-size estimation — the §2.4 strawman, made concrete.

The paper's §2.4 argues that the *common* way to rank processes for huge
pages — estimate working-set size from access-bit samples, assume bigger
WSS ⇒ bigger MMU overhead — is unreliable on modern hardware, because
access *pattern* dominates (mg.D: 24 GB WSS, 1 % overhead; cg.D: 7.5 GB
WSS, 39 %).

This module implements that estimator faithfully so the claim can be
tested rather than asserted: :class:`WSSEstimator` integrates the same
access-bit samples HawkEye's access_map uses into a per-process
working-set size, and :func:`wss_overhead_belief` converts it into the
naive "overhead ∝ WSS beyond TLB reach" belief.  The ablation benchmark
plugs it into the promotion engine in place of measured overheads and
shows it misordering exactly the workload pairs of Table 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.units import BASE_PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.vm.process import Process


class WSSEstimator:
    """Access-bit-sample-based working-set size, per process."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    def wss_pages(self, proc: "Process") -> float:
        """Estimated working set in base pages (EMA of sampled coverage).

        Exactly the information HawkEye-G has — the sum of per-region
        EMA coverage — read as a *size* instead of a TLB-entry demand.

        The resident regions' EMAs are gathered straight off the region
        table's column arrays instead of materializing one proxy object
        per region; the final addition stays sequential in region order,
        so the float result is bit-identical to a per-region generator
        sum (``np.sum``'s pairwise reduction would not be).
        """
        table = proc.regions
        ema = table.coverage_ema[: table.n]
        return sum(ema[table.resident_arr() > 0].tolist())

    def wss_bytes(self, proc: "Process") -> float:
        """Estimated working set in bytes."""
        return self.wss_pages(proc) * BASE_PAGE_SIZE


def wss_overhead_belief(kernel: "Kernel", proc: "Process") -> float:
    """The naive belief §2.4 criticises: overhead grows with WSS beyond
    TLB reach, saturating like the real overhead does.

    Deliberately ignores access pattern and measured walk activity.
    """
    estimator = WSSEstimator(kernel)
    demand = estimator.wss_pages(proc)
    capacity = kernel.mmu.tlb.l1_base + kernel.mmu.tlb.l2_shared
    if demand <= capacity:
        return 0.0
    excess = demand - capacity
    return excess / (excess + capacity)
