"""Cross-process huge-page promotion (paper §3.4).

Both HawkEye variants promote, within a process, in the access_map's
order (hottest bucket first, head to tail).  They differ in how the next
*process* is chosen:

* **HawkEye-G** promotes from the globally highest non-empty
  access_map bucket, round-robin among the processes that have a region
  at that index — the paper's Figure 4 example order
  ``A1,B1,C1,C2,B2,C3,C4,B3,B4,A2,C5,A3``.
* **HawkEye-PMU** picks the process with the highest *measured* MMU
  overhead (emulated Table 4 counters), round-robin among processes with
  similar overheads, and stops promoting entirely when every process is
  below a 2 % threshold — the efficiency edge Figure 5 (right) reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro import audit, trace
from repro.core.access_map import AccessMap, bucket_of
from repro.kernel.kthread import RateLimiter
from repro.vm.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: processes whose measured overheads differ by less than this are
#: considered tied and served round-robin (HawkEye-PMU).
PMU_TIE_MARGIN = 0.005


class PromotionEngine:
    """Rate-limited promotion driven by access_maps."""

    def __init__(
        self,
        kernel: "Kernel",
        access_maps: dict[int, AccessMap],
        promote_per_sec: float = 10.0,
        variant: str = "g",
        measured_overhead: Callable[[Process], float] | None = None,
        pmu_stop_threshold: float = 0.02,
        skip_bloat_demoted: Callable[[], bool] = lambda: False,
        limits=None,
    ):
        if variant not in ("g", "pmu"):
            raise ValueError(f"variant must be 'g' or 'pmu', got {variant!r}")
        self.kernel = kernel
        self.access_maps = access_maps
        self.variant = variant
        self.measured_overhead = measured_overhead or (lambda proc: 0.0)
        self.pmu_stop_threshold = pmu_stop_threshold
        #: optional HugePageLimits (§3.5 starvation mitigation).
        self.limits = limits
        #: while true (memory pressure), regions demoted by bloat recovery
        #: are not re-promoted, preventing promote/demote thrash.
        self.skip_bloat_demoted = skip_bloat_demoted
        self._limiter = RateLimiter(promote_per_sec, kernel.config.epoch_us)
        #: pid served last; round-robin resumes after it.
        self._rr_last_pid: int | None = None
        #: hoisted once per run_epoch — the _decide call sites build their
        #: inputs dicts eagerly, so they must stay off the disabled path.
        self._audited = False

    def _round_robin(self, candidates: list[Process]) -> list[Process]:
        """Rotate candidates so the process after the last-served is first."""
        if self._rr_last_pid is not None:
            pids = [p.pid for p in candidates]
            if self._rr_last_pid in pids:
                idx = pids.index(self._rr_last_pid) + 1
                candidates = candidates[idx:] + candidates[:idx]
            else:
                # keep global order stable relative to the full process list
                later = [p for p in candidates if p.pid > self._rr_last_pid]
                earlier = [p for p in candidates if p.pid <= self._rr_last_pid]
                candidates = later + earlier
        return candidates

    def _decide(self, proc: Process | None, hvpn: int, outcome: str,
                reason: str, stage: int, inputs: dict | None = None) -> None:
        """Record one promotion-scoring decision when audited."""
        if (al := self.kernel.audit) is not None and al.enabled:
            name = "khugepaged" if proc is None else proc.name
            pid = -1 if proc is None else proc.pid
            al.decide("promote", name, pid, hvpn, outcome, reason,
                      stage=stage, inputs=inputs)

    def run_epoch(self) -> int:
        """Promote up to this epoch's budget; returns promotions done."""
        self._audited = (al := self.kernel.audit) is not None and al.enabled
        audited = self._audited
        self._limiter.refill()
        done = 0
        while self._limiter.available >= 1.0:
            picked = self._pick()
            if picked is None:
                break
            proc, hvpn = picked
            amap = self.access_maps[proc.pid]
            slot = proc.regions.slot(hvpn)
            ema = 0.0 if slot is None else proc.regions.coverage_ema.item(slot)
            if self.kernel.promote_region(proc, hvpn) is None:
                # Region unpromotable (gone, or no contiguity): drop it
                # from the candidate set and keep going.  No token is
                # charged — a stale access_map entry must not burn the
                # epoch's budget and starve real candidates.
                if audited:
                    self._decide(proc, hvpn, "reject", "promote_failed",
                                 stage=3,
                                 inputs={"coverage_ema": ema,
                                         "bucket": bucket_of(ema),
                                         "fmfi": self.kernel.fmfi()})
                amap.remove(hvpn)
                continue
            if audited:
                self._decide(proc, hvpn, "accept", "promoted", stage=4,
                             inputs={"coverage_ema": ema,
                                     "bucket": bucket_of(ema),
                                     "budget_left": self._limiter.available,
                                     "variant": self.variant})
            self._limiter.take()
            amap.remove(hvpn)
            done += 1
        if done and self._limiter.available < 1.0 and audited:
            # The epoch ended on budget, not on candidate exhaustion.
            self._decide(None, -1, "reject", "budget_exhausted", stage=2,
                         inputs={"budget_left": self._limiter.available,
                                 "promoted": done})
        if done and (tp := self.kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.KTHREAD_EPOCH, "khugepaged",
                    detail=f"promoted={done}")
        return done

    # ------------------------------------------------------------------ #
    # candidate selection                                                 #
    # ------------------------------------------------------------------ #

    def _pick(self) -> tuple[Process, int] | None:
        if self.variant == "pmu":
            return self._pick_pmu()
        return self._pick_g()

    def _head_for(self, proc: Process, idx: int | None = None) -> int | None:
        """Next eligible region of ``proc`` (from bucket ``idx`` or any)."""
        amap = self.access_maps.get(proc.pid)
        if amap is None:
            return None
        audited = self._audited
        if self.limits is not None and not self.limits.may_promote(proc):
            if audited:
                self._decide(proc, -1, "reject", "limit_cap", stage=1,
                             inputs={"limit": self.limits.limit_for(proc),
                                     "held": self.limits.held(proc)})
            return None
        skip_bloat = self.skip_bloat_demoted()
        order = (
            amap.buckets[idx] if idx is not None else amap.iter_promotion_order()
        )
        table = proc.regions
        for hvpn in list(order):
            slot = table.slot(hvpn)
            if slot is None or proc.page_table.region_huge(hvpn):
                if audited:
                    self._decide(proc, hvpn, "reject",
                                 "region_gone" if slot is None
                                 else "already_huge", stage=1)
                amap.remove(hvpn)
                continue
            if skip_bloat and table.bloat_demoted.item(slot):
                if audited:
                    self._decide(proc, hvpn, "reject", "bloat_demoted",
                                 stage=1,
                                 inputs={"coverage_ema":
                                         table.coverage_ema.item(slot)})
                continue
            if self.kernel.can_promote(proc, hvpn):
                return hvpn
            if audited:
                self._decide(proc, hvpn, "reject", "not_promotable", stage=1,
                             inputs={"coverage_ema":
                                     table.coverage_ema.item(slot),
                                     "resident":
                                     proc.page_table.region_resident(hvpn)})
            amap.remove(hvpn)
        return None

    def _pick_g(self) -> tuple[Process, int] | None:
        """Globally highest access-coverage bucket, round-robin on ties."""
        best_idx = None
        for proc in self.kernel.processes:
            amap = self.access_maps.get(proc.pid)
            if amap is None:
                continue
            idx = amap.highest_nonempty()
            if idx is not None and (best_idx is None or idx > best_idx):
                best_idx = idx
        if best_idx is None:
            return None
        # Round-robin among the processes populated at best_idx.  Buckets
        # may hold stale/huge entries, so fall back to scanning down.
        candidates = []
        for proc in self.kernel.processes:
            amap = self.access_maps.get(proc.pid)
            if amap is not None and amap.buckets[best_idx]:
                candidates.append(proc)
        for proc in self._round_robin(candidates):
            hvpn = self._head_for(proc, best_idx)
            if hvpn is not None:
                self._rr_last_pid = proc.pid
                return proc, hvpn
        # Stale bucket entries only: clean them up by trying any region.
        for proc in self.kernel.processes:
            hvpn = self._head_for(proc)
            if hvpn is not None:
                # Cleanup picks still serve a process: record it so the
                # next round-robin resumes after it instead of resetting
                # fairness to the head of the process list.
                self._rr_last_pid = proc.pid
                return proc, hvpn
        return None

    def _pick_pmu(self) -> tuple[Process, int] | None:
        """Highest measured MMU overhead above the stop threshold."""
        overheads = [
            (self.measured_overhead(proc), proc) for proc in self.kernel.processes
        ]
        overheads = [(o, p) for o, p in overheads if o >= self.pmu_stop_threshold]
        if not overheads:
            return None
        best = max(o for o, _ in overheads)
        tied = [p for o, p in overheads if best - o <= PMU_TIE_MARGIN]
        for proc in self._round_robin(tied):
            hvpn = self._head_for(proc)
            if hvpn is not None:
                self._rr_last_pid = proc.pid
                return proc, hvpn
        # The most-afflicted processes have nothing promotable; try others
        # in overhead order.
        for _, proc in sorted(overheads, key=lambda t: -t[0]):
            if proc in tied:
                continue
            hvpn = self._head_for(proc)
            if hvpn is not None:
                self._rr_last_pid = proc.pid
                return proc, hvpn
        return None
