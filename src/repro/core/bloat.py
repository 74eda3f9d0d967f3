"""Memory-bloat recovery (paper §3.2).

HawkEye promotes huge pages aggressively at fault time, accepting that a
sparsely-used huge page wastes its untouched (still zero-filled) base
pages.  Under memory pressure this thread recovers the waste:

* It activates when allocated memory exceeds the **high** watermark
  (85 %) and runs, rate-limited, until allocation falls below the **low**
  watermark (70 %).
* Applications are scanned in order of *lowest* estimated MMU overhead —
  the process that least needs huge pages loses them first, consistent
  with the allocation policy in §3.4.
* For each huge page it counts zero-filled base pages by scanning until
  the first non-zero byte of each page (≈10 bytes on average for in-use
  pages, Figure 3), so scan cost is proportional to the number of bloat
  pages, not to total memory.
* Huge pages whose zero-filled fraction reaches the threshold are
  demoted, and the zero pages are remapped copy-on-write onto the
  canonical zero frame, returning their frames to the allocator.

``emergency`` is the same scan without rate limiting, invoked from the
kernel's allocation-failure path — this is why HawkEye's Figure 1 Redis
run survives where Linux and Ingens hit OOM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro import audit, trace
from repro.kernel.kthread import RateLimiter
from repro.mem.watermarks import Watermarks
from repro.units import PAGES_PER_HUGE
from repro.vm.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class BloatRecovery:
    """Watermark-gated, rate-limited zero-page recovery thread."""

    def __init__(
        self,
        kernel: "Kernel",
        overhead_of: Callable[[Process], float],
        watermarks: Watermarks | None = None,
        scan_pages_per_sec: float = 100_000.0,
        zero_threshold: float = 0.5,
    ):
        self.kernel = kernel
        #: the policy's per-process MMU-overhead belief (estimated or
        #: measured); victims are scanned lowest-overhead first.
        self.overhead_of = overhead_of
        self.watermarks = watermarks or Watermarks()
        self.zero_threshold = zero_threshold
        self._limiter = RateLimiter(scan_pages_per_sec, kernel.config.epoch_us)
        self.regions_demoted = 0
        #: scan position, so rate-limited epochs make progress through
        #: the candidate list instead of rescanning its head.
        self._cursor = 0

    @property
    def active(self) -> bool:
        return self.watermarks.active

    def run_epoch(self) -> int:
        """One rate-limited recovery step; returns pages recovered."""
        kernel = self.kernel
        self._limiter.refill()
        if not self.watermarks.update(kernel.allocated_fraction()):
            return 0
        candidates = list(self._scan_order())
        if not candidates:
            return 0
        if self._cursor >= len(candidates):
            self._cursor = 0
        recovered = 0
        while self._cursor < len(candidates):
            if not self._limiter.take(PAGES_PER_HUGE):
                proc, hvpn = candidates[self._cursor]
                self._decide(proc, hvpn, "reject", "budget_exhausted",
                             stage=2,
                             inputs={"budget_left": self._limiter.available,
                                     "need": PAGES_PER_HUGE})
                break
            proc, hvpn = candidates[self._cursor]
            self._cursor += 1
            recovered += self._consider(proc, hvpn)
            if not self.watermarks.update(kernel.allocated_fraction()):
                break
        return recovered

    def emergency(self, pages_needed: int) -> int:
        """Unbounded recovery on the allocation-failure path."""
        recovered = 0
        for proc, hvpn in self._scan_order():
            recovered += self._consider(proc, hvpn)
            if recovered >= pages_needed:
                break
        return recovered

    def _scan_order(self):
        """(process, huge region) pairs, least-overhead process first."""
        procs = sorted(self.kernel.processes, key=self.overhead_of)
        for proc in procs:
            table = proc.regions
            hvpns = table.hvpn[: table.n][table.is_huge_arr()]
            for hvpn in hvpns.tolist():
                yield proc, hvpn

    def _decide(self, proc: Process, hvpn: int, outcome: str, reason: str,
                stage: int, inputs: dict | None = None) -> None:
        """Record one bloat-victim-selection decision when audited."""
        if (al := self.kernel.audit) is not None and al.enabled:
            al.decide("bloat", proc.name, proc.pid, hvpn, outcome, reason,
                      stage=stage, inputs=inputs)

    def _consider(self, proc: Process, hvpn: int) -> int:
        """Scan one huge page; demote and dedup if it is mostly bloat."""
        kernel = self.kernel
        if hvpn not in proc.regions or not proc.page_table.region_huge(hvpn):
            self._decide(proc, hvpn, "reject", "region_gone", stage=1)
            return 0
        zeros, scanned = kernel.count_zero_pages(proc, hvpn)
        kernel.stats.bloat_cpu_us += kernel.costs.scan_page_us(scanned)
        if (tp := kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.BLOAT_SCAN, proc.name,
                    kernel.costs.scan_page_us(scanned), hvpn,
                    f"zeros={zeros}")
        if zeros < self.zero_threshold * PAGES_PER_HUGE:
            self._decide(
                proc, hvpn, "reject", "below_threshold", stage=3,
                inputs={"zeros": zeros,
                        "threshold_pages":
                            self.zero_threshold * PAGES_PER_HUGE,
                        "overhead": self.overhead_of(proc)})
            return 0
        kernel.demote_region(proc, hvpn)
        recovered, dedup_scanned = kernel.dedup_zero_pages(proc, hvpn)
        kernel.stats.bloat_cpu_us += kernel.costs.scan_page_us(dedup_scanned)
        table = proc.regions
        table.bloat_demoted[table.slot(hvpn)] = True
        self.regions_demoted += 1
        self._decide(proc, hvpn, "accept", "demoted", stage=4,
                     inputs={"zeros": zeros, "recovered": recovered,
                             "overhead": self.overhead_of(proc)})
        if (tp := kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.BLOAT_RECOVER, proc.name,
                    kernel.costs.scan_page_us(dedup_scanned), hvpn,
                    f"recovered={recovered}")
        return recovered
