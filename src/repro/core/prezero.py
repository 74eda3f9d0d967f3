"""Asynchronous page pre-zeroing (paper §3.1).

A rate-limited background thread drains the buddy allocator's non-zero
free lists, clears the frames with non-temporal stores, and moves the
blocks to the zero lists, so that anonymous faults — base or huge — can
map memory without synchronous clearing.  This removes 25 % of base-fault
latency and 97 % of huge-fault latency (Table 1) in the common case.

Cache interference (Figure 10): zeroing through the cache evicts the
co-running workloads' data.  The thread publishes an interference factor
proportional to its achieved zeroing bandwidth; with non-temporal hints
the factor drops to the residual memory-bandwidth cost.  Calibration
anchors to the paper's worst-case experiment — zeroing at 1 GB/s slows
omnetpp (cache sensitivity 1.0) by 27 % with caching stores and 6 % with
non-temporal stores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import trace
from repro.kernel.kthread import RateLimiter
from repro.units import BASE_PAGE_SIZE, GB, SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: slowdown per GB/s of zeroing traffic for a cache-sensitivity-1.0
#: workload (Figure 10: omnetpp, 27 % cached vs 6 % non-temporal).
INTERFERENCE_PER_GBPS_CACHED = 0.27
INTERFERENCE_PER_GBPS_NT = 0.06


class PreZeroThread:
    """The rate-limited asynchronous pre-zeroing kthread."""

    def __init__(
        self,
        kernel: "Kernel",
        pages_per_sec: float = 100_000.0,
        non_temporal: bool = True,
    ):
        self.kernel = kernel
        self.non_temporal = non_temporal
        self._limiter = RateLimiter(pages_per_sec, kernel.config.epoch_us)

    def run_epoch(self) -> int:
        """Zero as many free dirty blocks as this epoch's budget allows."""
        kernel = self.kernel
        self._limiter.refill()
        cpu_before = kernel.stats.prezero_cpu_us
        zeroed = 0
        while True:
            block = kernel.buddy.pop_nonzero_block()
            if block is None:
                break
            start, order = block
            pages = 1 << order
            if order > 9 or (not self._affordable(pages) and order > 0):
                # Work at huge-page granularity: blocks above order 9 are
                # split (order-9 zero blocks serve every fault size), and
                # blocks the budget can never cover are split further.
                self._split(start, order)
                continue
            if not self._limiter.take(pages):
                kernel.buddy.reinsert_dirty(start, order)
                break
            kernel.buddy.reinsert_zeroed(start, order)
            zeroed += pages
            kernel.stats.pages_prezeroed += pages
            kernel.stats.prezero_cpu_us += kernel.costs.zero_block_us(order)
        self._publish_interference(zeroed)
        if zeroed and (tp := kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.PREZERO, "kzerod",
                    kernel.stats.prezero_cpu_us - cpu_before,
                    detail=f"pages={zeroed}")
        return zeroed

    def _affordable(self, pages: int) -> bool:
        """Can the limiter ever accumulate enough tokens for this block?"""
        return pages <= max(2.0 * self._limiter.per_epoch, 2.0)

    def _split(self, start: int, order: int) -> None:
        half = 1 << (order - 1)
        self.kernel.buddy.reinsert_dirty(start, order - 1)
        self.kernel.buddy.reinsert_dirty(start + half, order - 1)

    def _publish_interference(self, pages_zeroed: int) -> None:
        """Expose this epoch's cache-pollution factor to the executor."""
        epoch_sec = self.kernel.config.epoch_us / SEC
        gbps = pages_zeroed * BASE_PAGE_SIZE / GB / epoch_sec if epoch_sec > 0 else 0.0
        per_gbps = INTERFERENCE_PER_GBPS_NT if self.non_temporal else INTERFERENCE_PER_GBPS_CACHED
        self.kernel.prezero_interference = gbps * per_gbps
