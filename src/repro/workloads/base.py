"""Workload framework: operations, phases, access profiles and the executor.

A workload is a list of :class:`Phase` objects.  Each phase optionally

* executes *operations* — mmap, touch (fault-driven allocation with a
  content model), free (madvise), sleep — whose time cost is dominated by
  page-fault latency, and then
* retires *useful work* (``work_us``) or *serves requests* for a fixed
  wall duration (``duration_us``), while an :class:`AccessProfile`
  describes the memory accesses the hardware model prices each epoch.

The executor (:class:`WorkloadRun`) steps a phase machine once per kernel
epoch.  Wall time splits into fault time (from the operations), walker
stalls (the MMU overhead of the current mapping state) and useful
compute, so a policy that promotes the right regions sooner finishes the
same work in less wall time — the execution-time differences the paper's
evaluation reports.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.patterns import Pattern
from repro.tlb.mmu_model import RegionLoad
from repro.units import CYCLES_PER_USEC, PAGES_PER_HUGE, SEC
from repro.vm.process import Process
from repro.vm.vma import VMA, VMAKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


# ---------------------------------------------------------------------- #
# access profiles                                                         #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RegionAccessSpec:
    """Steady-state access behaviour over (part of) one named VMA."""

    region: str
    #: base pages accessed per sample interval within each touched huge
    #: region (0..512) — the paper's access-coverage metric.
    coverage: int = PAGES_PER_HUGE
    #: share of the process's accesses going to this spec.
    weight: float = 1.0
    pattern: Pattern = Pattern.RANDOM
    #: hot range within the VMA, as fractions of its length.  Figure 6 of
    #: the paper shows Graph500/XSBench hot-spots concentrated in *high*
    #: virtual addresses — expressed here as hot_start close to 1-hot_len.
    hot_start: float = 0.0
    hot_len: float = 1.0
    stride: int = 8

    def hot_hvpns(self, vma: VMA) -> range:
        """Huge regions the hot range overlaps."""
        lo = vma.start + int(self.hot_start * vma.npages)
        hi = vma.start + int((self.hot_start + self.hot_len) * vma.npages)
        hi = min(hi, vma.end)
        if hi <= lo:
            return range(0)
        return range(lo >> 9, ((hi - 1) >> 9) + 1)


@dataclass
class AccessProfile:
    """What a process's accesses look like while a phase computes."""

    specs: list[RegionAccessSpec]
    #: memory accesses per useful microsecond (calibrated per workload so
    #: the model reproduces the paper's measured MMU overheads).
    access_rate: float = 20.0
    #: susceptibility to cache pollution from the pre-zeroing thread
    #: (Figure 10 interference model); 1.0 ≈ omnetpp's worst case.
    cache_sensitivity: float = 0.3

    def loads(self, kernel: "Kernel", proc: Process) -> list[RegionLoad]:
        """Convert specs into hardware-model loads for the current epoch."""
        out: list[RegionLoad] = []
        numa = kernel.numa
        for spec in self.specs:
            vma = _try_vma(proc, spec.region)
            if vma is None:
                continue
            hvpns = spec.hot_hvpns(vma)
            if not hvpns:
                continue
            promoted = proc.page_table.huge_count_in_range(hvpns.start, hvpns.stop)
            remote_fraction, remote_penalty = (
                numa.load_remoteness(proc, hvpns) if numa is not None
                else (0.0, 1.0)
            )
            out.append(
                RegionLoad(
                    touched_regions=len(hvpns),
                    coverage=float(min(spec.coverage, PAGES_PER_HUGE)),
                    promoted_fraction=promoted / len(hvpns),
                    weight=spec.weight,
                    pattern=spec.pattern,
                    stride=spec.stride,
                    remote_fraction=remote_fraction,
                    remote_penalty=remote_penalty,
                )
            )
        return out

    def region_coverage(self, kernel: "Kernel", proc: Process) -> dict[int, int]:
        """Per-huge-region access-coverage ground truth for bit sampling."""
        coverage: dict[int, int] = {}
        for spec in self.specs:
            vma = _try_vma(proc, spec.region)
            if vma is None:
                continue
            for hvpn in spec.hot_hvpns(vma):
                coverage[hvpn] = max(coverage.get(hvpn, 0), spec.coverage)
        return coverage

    def coverage_array(self, kernel: "Kernel", proc: Process,
                       hvpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`region_coverage` lookup over an hvpn array.

        Returns the access-coverage sample for each requested region
        (0 for regions outside every spec's hot range) — the same max
        composition over specs as the dict form, computed with range
        masks instead of per-region dict entries.
        """
        out = np.zeros(hvpns.shape[0], dtype=np.int64)
        for spec in self.specs:
            vma = _try_vma(proc, spec.region)
            if vma is None:
                continue
            hot = spec.hot_hvpns(vma)
            if not hot:
                continue
            mask = (hvpns >= hot.start) & (hvpns < hot.stop)
            np.maximum(out, np.where(mask, spec.coverage, 0), out=out)
        return out


def _try_vma(proc: Process, name: str) -> VMA | None:
    for vma in proc.vmas:
        if vma.name == name:
            return vma
    return None


# ---------------------------------------------------------------------- #
# operations                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ContentSpec:
    """What a touch writes into each page.

    ``first_nonzero`` defaults to 9 bytes — the measured mean distance to
    the first non-zero byte across the paper's 56 workloads (Figure 3,
    mean 9.11) — so bloat-recovery scan costs are realistic by default.
    ``zero`` leaves pages zero-filled (reads, or writes of zeroes);
    ``shared_tag`` gives every page identical content for KSM experiments.
    """

    zero: bool = False
    first_nonzero: int = 9
    shared_tag: Optional[int] = None


class Op(abc.ABC):
    """One resumable workload operation."""

    @abc.abstractmethod
    def execute(self, kernel: "Kernel", run: "WorkloadRun", budget_us: float) -> tuple[float, bool]:
        """Run until done or out of budget; returns (time consumed, done)."""

    def reset(self) -> None:
        """Clear resume state so the op can run again (repeated workloads)."""


@dataclass
class MmapOp(Op):
    """Create a named anonymous (or file-backed) mapping."""

    region: str
    nbytes: int
    kind: VMAKind = VMAKind.ANON

    def execute(self, kernel, run, budget_us):
        """Create the named VMA; completes instantly."""
        kernel.mmap(run.proc, self.nbytes, self.region, self.kind)
        run.invalidate_vma_cache()
        return 1.0, True


@dataclass
class TouchOp(Op):
    """Touch (fault + write) pages of a region.

    ``stride_pages`` > 1 touches every k-th base page — the sparse-access
    pattern that turns huge-at-fault allocation into memory bloat.
    ``rate_pages_per_sec`` paces the touches (client-driven workloads);
    ``work_per_page_us`` adds application CPU per touched page.
    """

    region: str
    start_page: int = 0
    npages: Optional[int] = None
    stride_pages: int = 1
    content: ContentSpec = field(default_factory=ContentSpec)
    rate_pages_per_sec: Optional[float] = None
    work_per_page_us: float = 0.0
    _pos: int = field(default=0, repr=False)

    def reset(self) -> None:
        """Clear resume state (fresh run of the same op object)."""
        self._pos = 0

    def total_touches(self, vma: VMA) -> int:
        """Number of pages this op will touch in the given VMA."""
        span = self.npages if self.npages is not None else vma.npages - self.start_page
        return max(0, -(-span // self.stride_pages))

    def execute(self, kernel, run, budget_us):
        """Fault and write pages until done, paced, or out of budget."""
        proc = run.proc
        vma = run.vma(self.region)
        total = self.total_touches(vma)
        max_this_call = total - self._pos
        if self.rate_pages_per_sec is not None:
            max_this_call = min(max_this_call, int(self.rate_pages_per_sec * budget_us / SEC) + 1)
        pace_us = SEC / self.rate_pages_per_sec if self.rate_pages_per_sec else 0.0
        vpn = vma.start + self.start_page + self._pos * self.stride_pages
        # The bulk fault path, scalar-equivalent to faulting and writing
        # page by page, including the budget stop, per-page work and rate
        # pacing.
        consumed, pages = kernel.fault_range(
            proc, vpn, max_this_call, budget_us, self.content, vma,
            work_us=self.work_per_page_us, pace_us=pace_us, stride=self.stride_pages,
        )
        self._pos += pages
        return consumed, self._pos >= total


@dataclass
class FreeOp(Op):
    """madvise(DONTNEED) part of a region back to the kernel.

    ``stride_regions``/``keep_fraction`` express the random-deletion
    patterns of the paper's Redis experiments: free ``npages`` pages
    starting at ``start_page``, or with ``sparse`` free every page whose
    index hashes below the fraction (deterministic pseudo-random).
    """

    region: str
    start_page: int = 0
    npages: Optional[int] = None
    sparse_fraction: Optional[float] = None
    seed: int = 11
    _rng: Optional[random.Random] = field(default=None, repr=False, compare=False)

    def execute(self, kernel, run, budget_us):
        """Release the configured range (or sparse subset) via madvise."""
        proc = run.proc
        vma = run.vma(self.region)
        span = self.npages if self.npages is not None else vma.npages - self.start_page
        base = vma.start + self.start_page
        if self.sparse_fraction is None:
            cost = kernel.madvise_free(proc, base, span)
            return cost, True
        # One RNG per op instance, re-seeded per run so repeated executions
        # free the same deterministic subset.
        if self._rng is None:
            self._rng = random.Random(self.seed)
        else:
            self._rng.seed(self.seed)
        draw = self._rng.random
        frac = self.sparse_fraction
        drop = [draw() < frac for _ in range(span)]
        cost = 0.0
        i = 0
        while i < span:
            if drop[i]:
                j = i + 1
                while j < span and drop[j]:
                    j += 1
                cost += kernel.madvise_free(proc, base + i, j - i)
                i = j
            else:
                i += 1
        return cost, True


@dataclass
class SleepOp(Op):
    """Idle wall time (the 'after some time gap' of Figure 1's phase 3)."""

    duration_us: float
    _elapsed: float = field(default=0.0, repr=False)

    def reset(self) -> None:
        """Clear accumulated sleep time."""
        self._elapsed = 0.0

    def execute(self, kernel, run, budget_us):
        """Consume idle wall time from the epoch budget."""
        use = min(budget_us, self.duration_us - self._elapsed)
        self._elapsed += use
        return use, self._elapsed >= self.duration_us - 1e-9


# ---------------------------------------------------------------------- #
# phases and workloads                                                    #
# ---------------------------------------------------------------------- #


@dataclass
class Phase:
    """One stage of a workload's life."""

    name: str
    ops: list[Op] = field(default_factory=list)
    #: useful compute to retire after the ops complete.
    work_us: float = 0.0
    #: fixed wall duration to spend serving (mutually exclusive with work).
    duration_us: float = 0.0
    profile: Optional[AccessProfile] = None
    #: request-serving model for duration phases.
    request_rate: float = 0.0        # offered requests per second
    request_cost_us: float = 0.0     # CPU per request

    def __post_init__(self) -> None:
        if self.work_us and self.duration_us:
            raise ValueError(f"phase {self.name!r}: work_us and duration_us are exclusive")


class Workload(abc.ABC):
    """Base class: a named generator of phases."""

    name = "workload"

    @abc.abstractmethod
    def build_phases(self) -> list[Phase]:
        """Construct this workload's phase list (fresh op state)."""


class WorkloadRun:
    """Executor driving one process through its workload, epoch by epoch."""

    def __init__(self, kernel: "Kernel", proc: Process, workload: Workload):
        self.kernel = kernel
        self.proc = proc
        self.workload = workload
        self.phases = workload.build_phases()
        self.finished = False
        self.finish_time_us: Optional[float] = None
        self.start_time_us = kernel.now_us
        #: requests served per duration phase name.
        self.served: dict[str, float] = {}
        #: wall time consumed by operations (faults, frees, pacing, and
        #: per-page work) — finer-grained than epoch-quantised elapsed_us,
        #: which is what fault-bound experiments (Table 8) report.
        self.op_time_us = 0.0
        self._phase_idx = 0
        self._op_idx = 0
        self._work_done = 0.0
        self._phase_wall = 0.0
        self._vma_cache: dict[str, VMA] = {}

    # -- helpers --------------------------------------------------------- #

    def vma(self, name: str) -> VMA:
        """Resolve a region name to its VMA (cached)."""
        vma = self._vma_cache.get(name)
        if vma is None:
            vma = self.kernel.find_vma(self.proc, name)
            self._vma_cache[name] = vma
        return vma

    def invalidate_vma_cache(self) -> None:
        """Drop the name->VMA cache after mappings change."""
        self._vma_cache.clear()

    @property
    def current_phase(self) -> Optional[Phase]:
        if self._phase_idx < len(self.phases):
            return self.phases[self._phase_idx]
        return None

    @property
    def elapsed_us(self) -> float:
        end = self.finish_time_us if self.finish_time_us is not None else self.kernel.now_us
        return end - self.start_time_us

    def phase_name(self) -> str:
        """Name of the current phase ('done' after completion)."""
        phase = self.current_phase
        return phase.name if phase else "done"

    # -- epoch step ------------------------------------------------------ #

    def step(self, epoch_us: float) -> None:
        """Advance this workload by (up to) one epoch of wall time."""
        if self.finished:
            return
        proc = self.proc
        proc.fault_time_epoch_us = 0.0
        budget = epoch_us
        mmu_epoch = None  # cached per phase within this epoch
        mmu_phase = -1
        while budget > 1e-9:
            phase = self.current_phase
            if phase is None:
                self._finish()
                break
            proc.access_profile = phase.profile
            if self._op_idx < len(phase.ops):
                consumed, done = phase.ops[self._op_idx].execute(self.kernel, self, budget)
                budget -= consumed
                self.op_time_us += consumed
                self._charge_cycles(0.0, consumed)
                if done:
                    self._op_idx += 1
                    mmu_phase = -1  # mapping state changed: recompute
                continue
            if mmu_phase != self._phase_idx:
                mmu_epoch = self._compute_mmu_epoch(phase)
                mmu_phase = self._phase_idx
            if phase.work_us > self._work_done:
                budget = self._retire_work(phase, mmu_epoch, budget)
            elif self._phase_wall < phase.duration_us:
                budget = self._serve(phase, mmu_epoch, budget)
            else:
                self._next_phase()
                mmu_epoch = None
        proc.run_time_us += epoch_us - max(budget, 0.0)

    def _compute_mmu_epoch(self, phase: Phase):
        profile = phase.profile
        if profile is None:
            self.proc.mmu_overhead = 0.0
            return None
        loads = profile.loads(self.kernel, self.proc)
        host_frac = self.kernel.host_huge_fraction(self.proc)
        epoch = self.kernel.mmu.epoch(loads, profile.access_rate, host_frac)
        self.proc.mmu_overhead = epoch.overhead
        return epoch

    def _progress_rate(self, phase: Phase, mmu_epoch) -> float:
        """Useful-work microseconds retired per wall microsecond."""
        overhead = mmu_epoch.overhead if mmu_epoch is not None else 0.0
        sensitivity = phase.profile.cache_sensitivity if phase.profile else 0.0
        interference = self.kernel.prezero_interference * sensitivity
        slowdown = self.kernel.external_slowdown
        return (1.0 - overhead) / ((1.0 + interference) * (1.0 + slowdown))

    def _retire_work(self, phase: Phase, mmu_epoch, budget: float) -> float:
        rate = self._progress_rate(phase, mmu_epoch)
        needed_wall = (phase.work_us - self._work_done) / rate if rate > 0 else budget
        use = min(budget, needed_wall)
        useful = use * rate
        self._work_done += useful
        self._phase_wall += use
        self._charge_cycles(useful, use, mmu_epoch)
        if self._work_done >= phase.work_us - 1e-6:
            self._next_phase()
        return budget - use

    def _serve(self, phase: Phase, mmu_epoch, budget: float) -> float:
        use = min(budget, phase.duration_us - self._phase_wall)
        rate = self._progress_rate(phase, mmu_epoch)
        if phase.request_rate > 0 and phase.request_cost_us > 0:
            capacity = use * rate / phase.request_cost_us
            offered = phase.request_rate * use / SEC
            self.served[phase.name] = self.served.get(phase.name, 0.0) + min(capacity, offered)
        self._phase_wall += use
        self._charge_cycles(use * rate, use, mmu_epoch)
        if self._phase_wall >= phase.duration_us - 1e-9:
            self._next_phase()
        return budget - use

    def _charge_cycles(self, useful_us: float, wall_us: float, mmu_epoch=None) -> None:
        """Feed the process's PMU and cycle accounting."""
        pmu = self.kernel.pmu[self.proc.pid]
        if mmu_epoch is not None and useful_us > 0:
            walk, total = mmu_epoch.charge(pmu, useful_us)
        else:
            walk, total = 0.0, wall_us * CYCLES_PER_USEC
            pmu.record(walk, total)
        self.proc.stats.walk_cycles += walk
        self.proc.stats.total_cycles += total
        if walk > 0.0 and mmu_epoch is not None \
                and mmu_epoch.remote_walk_fraction > 0.0 \
                and (numa := self.kernel.numa) is not None:
            numa.charge_remote_walk(self.proc, walk * mmu_epoch.remote_walk_fraction)

    def _next_phase(self) -> None:
        self._phase_idx += 1
        self._op_idx = 0
        self._work_done = 0.0
        self._phase_wall = 0.0
        if self._phase_idx >= len(self.phases):
            self._finish()

    def _finish(self) -> None:
        if not self.finished:
            self.finished = True
            self.finish_time_us = self.kernel.now_us + self.kernel.config.epoch_us
            self.proc.finished = True
            self.proc.access_profile = None
