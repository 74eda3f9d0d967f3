"""Per-page and per-region reference loops for the kernel's fast paths.

The access-bit sample, the HawkEye access_map rebuild, the NUMA
candidate harvest, dense and strided faulting, madvise unmapping, the
set-up fragmenter and compaction's chunk evacuation each run as one
batched or vectorized pass that is exactly equivalent to a loop kept
here.
:func:`install` binds the loops onto one kernel instance; the
equivalence tests compare such a twin with a plain kernel.  The module
lives with the tests: nothing under ``src/repro`` imports it.
"""

from __future__ import annotations

import math
from types import MethodType
from typing import TYPE_CHECKING

import numpy as np

from repro import audit, trace
from repro.core.access_map import AccessMap
from repro.core.hawkeye import HawkEyePolicy
from repro.mem.compaction import CompactionStats, Compactor
from repro.mem.fragmentation import FILE_CACHE_OWNER, Fragmenter, fmfi
from repro.numa.allocator import NodeCompactor
from repro.units import HUGE_PAGE_ORDER, PAGES_PER_HUGE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.vm.process import Process


def sample_access_bits(self: "Kernel") -> None:
    """Scalar reference for ``Kernel._sample_access_bits`` (per-region loop)."""
    alpha = self.config.ema_alpha
    for proc in self.processes:
        profile = proc.access_profile
        coverage = profile.region_coverage(self, proc) if profile is not None else {}
        scanned = 0
        table = proc.regions
        for hvpn, slot in table.slot_of.items():
            if not proc.page_table.region_resident(hvpn):
                continue
            sample = min(coverage.get(hvpn, 0), PAGES_PER_HUGE)
            table.last_coverage[slot] = sample
            table.idle[slot] = sample == 0
            table.coverage_ema[slot] = (alpha * sample + (1.0 - alpha)
                                        * table.coverage_ema.item(slot))
            scanned += 1
        self.stats.sampler_cpu_us += scanned * self.costs.sample_region_us
        if (tp := self.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.KTHREAD_EPOCH, "ksampled",
                    scanned * self.costs.sample_region_us,
                    detail=f"proc={proc.name} regions={scanned}")
        self.policy.on_sample(proc)
        if self.numa is not None:
            self.numa.on_sample(proc)


def touch_pages(self: "Kernel", proc: "Process", vpn0: int, npages: int,
                budget_us: float = math.inf, content=None, vma=None,
                work_us: float = 0.0, pace_us: float = 0.0,
                stride: int = 1) -> tuple[float, int]:
    """Scalar reference for ``Kernel.fault_range``: fault, then write
    ``content`` (unless None) into, every ``stride``-th page from
    ``vpn0``, one page at a time, up to ``npages`` pages or until the
    consumed time reaches ``budget_us``.  Each page consumes
    ``max(fault_cost + work_us, pace_us)``."""
    consumed = 0.0
    done = 0
    frames = self.frames
    while done < npages and consumed < budget_us:
        vpn = vpn0 + done * stride
        cost = self.fault(proc, vpn)
        translated = proc.page_table.translate(vpn)
        if translated is not None and content is not None:
            frame, _ = translated
            if content.zero:
                frames.write_zero(frame)
            else:
                frames.write(frame, content.first_nonzero, content.shared_tag)
        consumed += max(cost + work_us, pace_us)
        done += 1
    return consumed, done


def unmap_base_pages(self: "Kernel", proc: "Process", vpn: int, npages: int) -> float:
    """Scalar reference for ``Kernel._unmap_base_batched`` (per-page unmap)."""
    pt = proc.page_table
    cost = 0.0
    for page in range(vpn, vpn + npages):
        if pt.base_mapped(page):
            self._unmap_base_page(proc, page)
            cost += 0.2
    return cost


def hawkeye_on_sample(self: HawkEyePolicy, proc: "Process") -> None:
    """Reference sample pass: per-region dict work, one update each."""
    amap = self.access_maps.setdefault(proc.pid, AccessMap())
    numa = self.kernel.numa
    cross_node = numa is not None and not numa.replicated_pt
    table, pt = proc.regions, proc.page_table
    for hvpn, slot in table.slot_of.items():
        if pt.region_huge(hvpn) or not pt.region_resident(hvpn):
            amap.remove(hvpn)
            continue
        if table.bloat_demoted.item(slot) and table.last_coverage.item(slot) > 0:
            # The region is in use again: it may be re-promoted once
            # memory pressure subsides.
            table.bloat_demoted[slot] = False
        coverage = table.coverage_ema.item(slot)
        if cross_node and numa.region_node(proc, hvpn) not in (
                None, proc.home_node):
            coverage *= self.NUMA_REMOTE_COVERAGE_PENALTY
        amap.update(hvpn, coverage)


def numa_harvest(self, proc: "Process") -> int:
    """Reference candidate harvest: one region_node call per region."""
    pid = proc.pid
    hints = 0
    table = proc.regions
    for hvpn, slot in sorted(table.slot_of.items()):
        last = table.last_coverage.item(slot)
        if not proc.page_table.region_resident(hvpn) or last == 0:
            continue
        policy = self.resolve_policy(
            proc, proc.vmas.try_find(hvpn << 9))
        if policy is not None and policy.strict:
            continue  # bound memory must not be balanced away
        node = self.region_node(proc, hvpn)
        if node is None or node == proc.home_node:
            continue
        hints += last
        self._candidates[(pid, hvpn)] = table.coverage_ema.item(slot)
    return hints


def fragment(self: Fragmenter, keep_fraction: float = 0.1,
             target_fmfi: float | None = None) -> float:
    """Reference for ``Fragmenter.fragment``: one buddy call per frame."""
    taken: list[int] = []
    while True:
        got = self.buddy.try_alloc(order=0, prefer_zero=False, owner=FILE_CACHE_OWNER)
        if got is None:
            break
        taken.append(got[0])
    self._rng.shuffle(taken)
    keep = int(len(taken) * keep_fraction)
    kept, to_free = taken[:keep], taken[keep:]
    self._cache_pages.update(kept)
    # The early-stop check used to recompute the index after every
    # freed frame.  Between frees that do not coalesce up to the huge
    # order, `usable` is constant while `free` grows, so the index is
    # non-decreasing — it can only drop below the target at a free
    # whose block reaches order >= HUGE_PAGE_ORDER.  Checking only at
    # those events (plus the first free, for degenerate targets that
    # are already met) stops at exactly the same frame as the
    # every-free scan.
    for i, frame in enumerate(to_free):
        end_order = self.buddy.free(frame, 0)
        if (
            target_fmfi is not None
            and (i == 0 or end_order >= HUGE_PAGE_ORDER)
            and fmfi(self.buddy) <= target_fmfi
        ):
            self._cache_pages.update(to_free[i + 1:])
            return fmfi(self.buddy)
    return fmfi(self.buddy)


def empty_chunk(self: Compactor, chunk_start: int,
                run_stats: CompactionStats) -> bool:
    """Reference for ``Compactor._empty_chunk``: one buddy call per page."""
    frames = self.buddy.frames
    chunk_end = chunk_start + PAGES_PER_HUGE
    occupied = np.flatnonzero(frames.allocated[chunk_start:chunk_end]) + chunk_start
    carved = self.buddy.carve_range(chunk_start, chunk_end)
    ok = True
    emptied: list[int] = []
    for old in occupied:
        new = _alloc_outside(self.buddy, chunk_start, chunk_end)
        if new is None:
            ok = False
            break
        old = int(old)
        if not self.migrate(old, new):
            self.buddy.free(new, 0)
            ok = False
            break
        # Content moves with the page.
        frames.first_nonzero[new] = frames.first_nonzero[old]
        frames.content_tag[new] = frames.content_tag[old]
        frames.owner[new] = frames.owner[old]
        # ... and so does its provenance (page_owner's
        # __folio_copy_owner); the migration itself is an event on
        # the destination frame, attributed to compaction.
        if (led := frames.ledger) is not None and led.enabled:
            led.copy_provenance(old, new)
            led.record(new, 1, audit.EV_COMPACTED, old)
            led.set_site(new, 1, audit.SITE_COMPACT)
        emptied.append(old)
    # Reassemble the hole only after all destinations are allocated,
    # so in-chunk frames never re-enter the free lists mid-migration.
    for start, order in carved:
        self.buddy.insert_free_block(start, order)
    for old in emptied:
        self.buddy.free(old, 0)
    run_stats.pages_moved += len(emptied)
    return ok


def _alloc_outside(buddy, lo: int, hi: int) -> int | None:
    """Allocate a destination frame outside ``[lo, hi)``.

    The caller carved the chunk's free blocks off the free lists, so
    a fresh allocation cannot land inside; the guard below is a
    safety net only.
    """
    got = buddy.try_alloc(order=0, prefer_zero=False)
    if got is None:
        return None
    frame = got[0]
    if lo <= frame < hi:  # pragma: no cover - carved chunks prevent this
        buddy.free(frame, 0)
        return None
    return frame


def install(kernel: "Kernel") -> None:
    """Bind the references over ``kernel``'s own attributes (and its
    HawkEye policy's, NUMA state's, fragmenter's and zone compactors');
    classes and other kernels keep the production paths."""
    kernel._sample_access_bits = MethodType(sample_access_bits, kernel)
    kernel.fault_range = MethodType(touch_pages, kernel)
    kernel._unmap_base_batched = MethodType(unmap_base_pages, kernel)
    if isinstance(kernel.policy, HawkEyePolicy):
        kernel.policy.on_sample = MethodType(hawkeye_on_sample, kernel.policy)
    if kernel.numa is not None:
        kernel.numa._harvest = MethodType(numa_harvest, kernel.numa)
    kernel.fragmenter.fragment = MethodType(fragment, kernel.fragmenter)
    compactors = (kernel.compactor.compactors
                  if isinstance(kernel.compactor, NodeCompactor)
                  else [kernel.compactor])
    for compactor in compactors:
        compactor._empty_chunk = MethodType(empty_chunk, compactor)
