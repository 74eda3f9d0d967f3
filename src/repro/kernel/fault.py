"""The page-fault path.

``handle_fault`` implements the fault handler all policies share, with
policy hooks at the decision points (mapping granularity, reserved
frames).  It returns the fault's latency in microseconds — the quantity
Table 1 of the paper decomposes — and charges it to the process's
per-epoch fault-time account.

Zeroing semantics follow the paper exactly: anonymous pages must be
zeroed before mapping; baselines zero synchronously in the fault path
(they do not track frame content), while a policy with
``trusts_zero_lists`` set skips the clearing when the buddy allocator
handed out a pre-zeroed frame (HawkEye §3.1).  Writes to shared-zero
mappings (created by bloat recovery, §3.2) take a copy-on-write fault.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from repro import audit, trace
from repro.policies.base import HugePagePolicy
from repro.units import PAGES_PER_HUGE
from repro.vm.page_table import ACCESSED, DIRTY, SHARED, SHARED_COW, SHARED_ZERO
from repro.vm.process import Process
from repro.vm.vma import VMA, HugePageHint, VMAKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


def handle_fault(kernel: "Kernel", proc: Process, vpn: int, vma: VMA | None = None) -> float:
    """Fault on ``vpn``; returns the fault latency in µs (0 if already mapped)."""
    pt = proc.page_table
    if vpn < pt.frame.shape[0] and pt.frame[vpn] >= 0:
        flags = pt.flags[vpn]
        if flags & SHARED_ZERO:
            return _cow_break(kernel, proc, vpn)
        if flags & SHARED_COW:
            return _cow_break_shared(kernel, proc, vpn)
        pt.flags[vpn] = flags | ACCESSED
        return 0.0
    hvpn = vpn >> 9
    if hvpn < pt.hframe.shape[0] and pt.hframe[hvpn] >= 0:
        pt.hflags[hvpn] |= ACCESSED
        return 0.0

    if vma is None:
        vma = proc.vmas.find(vpn)
    anon = vma.kind is VMAKind.ANON
    if _huge_at_fault(kernel.policy, proc, vma, vpn):
        latency = _try_huge_fault(kernel, proc, vma, hvpn, anon)
        if latency is not None:
            return latency

    return _base_fault(kernel, proc, vma, vpn, anon)


def _huge_at_fault(policy: HugePagePolicy, proc: Process, vma: VMA, vpn: int) -> bool:
    """Whether a fault on unmapped ``vpn`` tries a huge mapping.  Only a
    non-resident region its VMA covers can take one (Linux's empty-PMD
    rule), so only there are the madvise hint, then the policy, asked."""
    hvpn = vpn >> 9
    proc.regions.ensure(hvpn)
    if (proc.page_table.region_resident(hvpn)
            or not vma.covers(hvpn << 9, PAGES_PER_HUGE)):
        return False
    if vma.hint is HugePageHint.NEVER:
        return False
    if vma.hint is HugePageHint.ALWAYS:
        return True
    return policy.fault_size(proc, vma, vpn) == "huge"


def _numa_target(kernel: "Kernel", proc: Process, vma: VMA | None,
                 hvpn: int) -> tuple[int | None, bool]:
    """``(node, strict)`` for a fault, or ``(None, False)`` on single node."""
    if kernel.numa is None:
        return None, False
    return kernel.numa.fault_node(proc, vma, hvpn)


def _try_huge_fault(kernel: "Kernel", proc: Process, vma: VMA, hvpn: int, anon: bool) -> float | None:
    """Map a whole huge page at fault time; None when no block is available."""
    node, strict = _numa_target(kernel, proc, vma, hvpn)
    if node is None:
        got = kernel.buddy.try_alloc(order=9, prefer_zero=anon, owner=proc.pid)
    else:
        got = kernel.buddy.try_alloc(order=9, prefer_zero=anon, owner=proc.pid,
                                     node=node, strict=strict)
    if got is None:
        return None
    frame, zeroed = got
    backing_us = kernel.notify_alloc(frame, PAGES_PER_HUGE)
    needs_zero = anon and (not zeroed or not kernel.policy.trusts_zero_lists)
    if needs_zero:
        kernel.frames.zero_fill(frame, PAGES_PER_HUGE)
    proc.page_table.map_huge(hvpn, frame, accessed=True)
    kernel.rmap_add_huge(frame, proc, hvpn)
    latency = kernel.costs.huge_fault(needs_zero) + backing_us
    proc.stats.faults += 1
    proc.stats.huge_faults += 1
    proc.stats.fault_time_us += latency
    proc.fault_time_epoch_us += latency
    kernel.stats.faults += 1
    kernel.stats.huge_faults += 1
    kernel.policy.post_fault(proc, vma, hvpn << 9, huge=True)
    if (tp := kernel.trace) is not None and tp.enabled:
        tp.emit(trace.TraceKind.FAULT_HUGE, proc.name, latency, hvpn)
    return latency


def _base_fault(kernel: "Kernel", proc: Process, vma: VMA, vpn: int, anon: bool) -> float:
    """Map a single base page, from a reservation or the buddy allocator."""
    policy = kernel.policy
    frame = policy.reserved_frame(proc, vma, vpn)
    backing_us = 0.0
    if frame is not None:
        zeroed = kernel.frames.is_zero(frame)
    else:
        node, strict = _numa_target(kernel, proc, vma, vpn >> 9)
        frame, zeroed = kernel.alloc_base_frame(prefer_zero=anon, owner=proc.pid,
                                                node=node, strict=strict)
        backing_us = kernel.notify_alloc(frame, 1)
    swapped_in = kernel.swap is not None and kernel.swap.is_swapped(proc.pid, vpn)
    if swapped_in:
        swap_us = kernel.swap.swap_in(proc.pid, vpn)
        backing_us += swap_us
        # The page's old (non-zero) content comes back from swap.
        kernel.frames.write(frame, first_nonzero=9)
        if (al := kernel.audit) is not None and al.enabled:
            al.ledger.record(frame, 1, audit.EV_SWAPPED_IN)
        if (tp := kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.SWAP_IN, proc.name, swap_us, vpn)
    needs_zero = not swapped_in and anon and (not zeroed or not policy.trusts_zero_lists)
    if needs_zero:
        kernel.frames.zero_fill(frame, 1)
    proc.page_table.map_base(vpn, frame, accessed=True)
    kernel.rmap_add(frame, proc, vpn)
    latency = kernel.costs.base_fault(needs_zero) + backing_us
    proc.stats.faults += 1
    proc.stats.fault_time_us += latency
    proc.fault_time_epoch_us += latency
    kernel.stats.faults += 1
    policy.post_fault(proc, vma, vpn, huge=False)
    if (tp := kernel.trace) is not None and tp.enabled:
        tp.emit(trace.TraceKind.FAULT_BASE, proc.name, latency, vpn)
    return latency


def handle_fault_range(
    kernel: "Kernel",
    proc: Process,
    vpn0: int,
    npages: int,
    budget_us: float = math.inf,
    content=None,
    vma: VMA | None = None,
    work_us: float = 0.0,
    pace_us: float = 0.0,
    stride: int = 1,
) -> tuple[float, int]:
    """Batched equivalent of per-page ``handle_fault`` plus content writes.

    Touches ``npages`` pages ``stride`` apart from ``vpn0`` in ascending
    order and stops — like the per-page touch loop
    (:func:`repro.oracle.touch_pages`) — once the consumed time reaches
    ``budget_us`` (checked before each page, so the same one-page
    overshoot is possible).  Each page consumes ``max(fault_cost +
    work_us, pace_us)`` of budget, mirroring the touch loop's per-page
    work and client pacing; only the raw fault cost is charged to
    fault-time statistics.  Returns ``(consumed_us, pages_processed)``.

    The contract is *exact equivalence*: page tables, rmap, buddy
    free-list contents (including dict order, which drives future
    allocations), frame content descriptors and all counters end up
    identical to running ``handle_fault`` — and, when ``content`` is
    given, a per-page :meth:`FrameTable.write` — page by page.  Strided
    runs charge the budget and fault-time totals page by page too, so
    they match the loop exactly; dense runs charge them as ``count ×
    per-fault-cost`` per uniform run, which may differ in float rounding.

    Within one huge region, pages that cannot take a bulk path fall back
    to scalar ``handle_fault``: shared-zero / shared-COW mappings (write
    breaks), swapped-out pages, and the first page of a region eligible
    for a huge fault.  Policies with reservation or post-fault hooks
    (FreeBSD) and kernels with a ``frame_alloc_hook`` (virtualised
    setups) take the scalar path for the entire range.  ``content``
    duck-types :class:`repro.workloads.base.ContentSpec`.

    Bulk runs require ``policy.fault_size`` to be stable across a huge
    region for a fixed state (it is consulted once per run, not per
    page); every in-tree policy satisfies this.
    """
    pt = proc.page_table
    policy = kernel.policy
    scalar_only = (
        type(policy).reserved_frame is not HugePagePolicy.reserved_frame
        or type(policy).post_fault is not HugePagePolicy.post_fault
        or kernel.frame_alloc_hook is not None
    )
    swapped = kernel.swap.swapped if kernel.swap is not None else None
    pid = proc.pid
    # Budget increment for a page whose fault cost is zero (already mapped).
    flat_inc = work_us if work_us > pace_us else pace_us
    consumed = 0.0
    pos = 0
    while pos < npages and consumed < budget_us:
        vpn = vpn0 + pos * stride
        if vma is None or not vma.contains(vpn):
            vma = proc.vmas.find(vpn)
        if not scalar_only:
            hvpn = vpn >> 9
            # This region's pages of the run: vpn, vpn + stride, ... < seg_end.
            seg_end = min((hvpn + 1) << 9, vma.end, vpn0 + npages * stride)
            n = -(-(seg_end - vpn) // stride)
            if hvpn < pt.hframe.shape[0] and pt.hframe[hvpn] >= 0:
                # Whole tail of the region is huge-mapped: touch + write only.
                consumed, n = _charge(consumed, budget_us, flat_inc, n, stride)
                pt.hflags[hvpn] |= ACCESSED
                if content is not None:
                    frame0 = int(pt.hframe[hvpn]) + (vpn & (PAGES_PER_HUGE - 1))
                    _write_content_frames(
                        kernel, np.arange(frame0, frame0 + n * stride, stride), content)
                pos += n
                continue
            frames = pt.frame[vpn:seg_end:stride]
            if frames.shape[0] and frames[0] >= 0:
                if not pt.flags[vpn] & SHARED:
                    # Run of private already-mapped base pages: touch + write only.
                    flags = pt.flags[vpn:seg_end:stride]
                    stop = np.flatnonzero((frames < 0) | (flags & SHARED != 0))
                    n = int(stop[0]) if stop.shape[0] else frames.shape[0]
                    consumed, n = _charge(consumed, budget_us, flat_inc, n, stride)
                    flags[:n] |= ACCESSED
                    if content is not None:
                        _write_content_frames(kernel, frames[:n], content)
                    pos += n
                    continue
            elif not (swapped and (pid, vpn) in swapped):
                # A huge-fault-eligible page takes the scalar path: on
                # success the rest of the region takes the huge-mapped run
                # above, on fallback it becomes resident>0 and bulk base
                # faults apply.
                if not _huge_at_fault(policy, proc, vma, vpn):
                    # Unmapped, unswapped run: the bulk base-fault path.
                    mapped = np.flatnonzero(frames >= 0)
                    if mapped.shape[0]:
                        n = int(mapped[0])
                    if swapped:
                        n = next((i for i in range(1, n)
                                  if (pid, vpn + i * stride) in swapped), n)
                    consumed, pages = _bulk_base_fault(
                        kernel, proc, vma, vpn, n, consumed, budget_us,
                        content, work_us, pace_us, stride,
                    )
                    pos += pages
                    if pages < n:
                        break  # latency budget exhausted mid-run
                    continue
        # Per-page path: every page under scalar_only, shared pages (write
        # breaks), swapped-out pages and huge-fault-eligible pages.
        cost = handle_fault(kernel, proc, vpn, vma)
        if content is not None:
            _write_content_page(kernel, proc, vpn, content)
        consumed += max(cost + work_us, pace_us)
        pos += 1
    return consumed, pos


def _charge(consumed: float, budget_us: float, inc: float, n: int,
            stride: int) -> tuple[float, int]:
    """Charge up to ``n`` pages ``inc`` µs each while ``consumed`` is below
    ``budget_us`` (checked before each page, as the per-page loop checks
    it); returns ``(consumed, pages)``.  Dense runs (``stride`` 1) add
    ``pages × inc`` at once, the float order their blessed results
    encode; strided runs add page by page, the per-page loop's own."""
    if stride == 1:
        if inc > 0.0 and not math.isinf(budget_us):
            n = min(n, math.ceil((budget_us - consumed) / inc))
        return consumed + n * inc, n
    if n > 0 and (last := trace.repeat_add(consumed, inc, n - 1)) < budget_us:
        return last + inc, n
    pages = 0
    while pages < n and consumed < budget_us:
        consumed += inc
        pages += 1
    return consumed, pages


#: Slack on the peek test, far above the relative rounding of the 512
#: page-by-page additions a run can make: a budget above ``pages × dearest
#: per-page charge × slack`` cannot stop the run inside an extent.
_PEEK_SLACK = 1.0 + 2.0 ** -30


def _bulk_base_fault(
    kernel: "Kernel", proc: Process, vma: VMA, vpn0: int, npages: int,
    consumed: float, budget_us: float, content, work_us: float,
    pace_us: float, stride: int,
) -> tuple[float, int]:
    """Allocate, map, account and write a run of ``npages`` base faults
    ``stride`` apart from ``vpn0``, inside one huge region.

    Two phases.  Per buddy extent: pop exactly the frames the per-page
    loop takes before its budget stop (peeking the extent first where
    the budget could stop the run inside it), and charge the counters
    per :func:`_charge`.  Once per run, :func:`_write_extents` writes the
    page table, rmap, zeroing, content and tracepoints of every extent
    popped.  Only when the buddy runs dry are the pending extents written
    first and the kernel asked to relieve pressure, so reclaim, policy
    relief and swap see the page tables and rmap the scalar loop leaves.
    Returns ``(consumed, pages)``, consumption continuing from
    ``consumed``.
    """
    # Dense runs charge their budget from zero and hand the sum back.
    outer = 0.0
    if stride == 1:
        outer, consumed, budget_us = consumed, 0.0, budget_us - consumed
    anon = vma.kind is VMAKind.ANON
    trusts = kernel.policy.trusts_zero_lists
    base_fault = kernel.costs.base_fault
    buddy = kernel.buddy
    pid = proc.pid
    pstats = proc.stats
    kstats = kernel.stats
    done = 0
    written = 0
    #: (start, pages, needs_zero, per_page) popped but not yet written.
    pending: list[tuple[int, int, bool, float]] = []
    # Bulk runs never cross a huge-region boundary, so one placement
    # decision covers the whole run (interleave keys on the region).
    node, strict = _numa_target(kernel, proc, vma, vpn0 >> 9)
    where = {} if node is None else {"node": node, "strict": strict}
    # The dearest per-page charge: the extent is peeked only where the
    # budget could stop the run inside it.
    max_inc = max(max(base_fault(False), base_fault(True)) + work_us, pace_us)
    while done < npages and consumed < budget_us:
        want = npages - done
        peek = (consumed + want * max_inc) * _PEEK_SLACK >= budget_us
        got = (buddy.peek_run_extent(want, anon, **where) if peek
               else buddy.try_alloc_run_extent(want, anon, pid, **where))
        if got is None:
            _write_extents(kernel, proc, vpn0 + written * stride, pending,
                           content, stride)
            written = done
            pending = []
            kernel._relieve_pressure_or_oom()
            continue
        start, count, zeroed = got
        needs_zero = anon and (not zeroed or not trusts)
        per_page = base_fault(needs_zero)
        consumed, take = _charge(consumed, budget_us,
                                 max(per_page + work_us, pace_us), count, stride)
        if peek:
            buddy.try_alloc_run_extent(take, anon, pid, **where)
        pending.append((start, take, needs_zero, per_page))
        done += take
        pstats.faults += take
        kstats.faults += take
        if stride == 1:
            pstats.fault_time_us += take * per_page
            proc.fault_time_epoch_us += take * per_page
        else:
            pstats.fault_time_us = trace.repeat_add(pstats.fault_time_us, per_page, take)
            proc.fault_time_epoch_us = trace.repeat_add(
                proc.fault_time_epoch_us, per_page, take)
        if take < count:
            break
    _write_extents(kernel, proc, vpn0 + written * stride, pending, content, stride)
    return outer + consumed, done


def _write_extents(kernel: "Kernel", proc: Process, vpn0: int,
                   pending: list[tuple[int, int, bool, float]], content,
                   stride: int) -> None:
    """Write popped ``(start, pages, needs_zero, per_page)`` extents,
    mapped at ``vpn0`` on, ``stride`` apart: one pass over each structure
    for all of them.

    Every frame gets the events the per-extent order gives it (zeroed,
    then written), and content tags are minted extent by extent, frame
    by frame.  A stretch of consecutive extents with equal ``per_page``
    covers consecutive pages of the run, so one ``emit_run`` over it is
    the scalar loop's per-page stream (``per_page`` is exactly the scalar
    latency — the bulk path has no backing hook or swap).
    """
    if not pending:
        return
    frames = kernel.frames
    runs = [(start, count) for start, count, _, _ in pending]
    zero = [(start, count) for start, count, needs_zero, _ in pending if needs_zero]
    idx = _frames_of(runs)
    if zero:
        frames.zero_fill_frames(idx if len(zero) == len(runs) else _frames_of(zero))
    extents = [(start, count, False) for start, count in runs]
    proc.page_table.map_base_range(vpn0, extents, accessed=True, step=stride)
    kernel.rmap_add_range(proc, vpn0, idx, stride)
    if content is not None:
        if content.zero:
            frames.write_zero(idx)
        else:
            frames.write_frames(idx, content.first_nonzero, content.shared_tag)
    if (tp := kernel.trace) is not None and tp.enabled:
        vpn = vpn0
        for per_page, stretch in itertools.groupby(pending, operator.itemgetter(3)):
            n = sum(count for _, count, _, _ in stretch)
            tp.emit_run(trace.TraceKind.FAULT_BASE, proc.name, per_page, vpn, n, stride)
            vpn += n * stride


def _frames_of(runs: list[tuple[int, int]]) -> np.ndarray:
    """The frames of ``(start, count)`` runs, run after run, ascending in each."""
    return np.concatenate([np.arange(start, start + count) for start, count in runs])


def _write_content_frames(kernel: "Kernel", frames: np.ndarray, content) -> None:
    """Apply a ContentSpec to an array of frames (tags in array order)."""
    if not frames.shape[0]:
        return
    if content.zero:
        kernel.frames.write_zero(frames)
    else:
        kernel.frames.write_frames(frames, content.first_nonzero, content.shared_tag)


def _write_content_page(kernel: "Kernel", proc: Process, vpn: int, content) -> None:
    """Post-fault content write for one page (the scalar touch semantics)."""
    translated = proc.page_table.translate(vpn)
    if translated is None:
        return
    frame, _ = translated
    if content.zero:
        kernel.frames.write_zero(frame)
    else:
        kernel.frames.write(frame, content.first_nonzero, content.shared_tag)


def _cow_break_shared(kernel: "Kernel", proc: Process, vpn: int) -> float:
    """Write to a ksm-merged mapping: copy the content back out."""
    canonical = int(proc.page_table.frame[vpn])
    node, strict = _numa_target(kernel, proc, proc.vmas.try_find(vpn), vpn >> 9)
    frame, _ = kernel.alloc_base_frame(prefer_zero=False, owner=proc.pid,
                                       node=node, strict=strict)
    kernel.frames.first_nonzero[frame] = kernel.frames.first_nonzero[canonical]
    kernel.frames.content_tag[frame] = kernel.frames.content_tag[canonical]
    kernel.cow_registry.unshare(canonical)
    kernel.cow_registry.cow_breaks += 1
    proc.page_table.remap(vpn, frame, set_bits=DIRTY, clear_bits=SHARED_COW)
    kernel.rmap_add(frame, proc, vpn)
    latency = kernel.costs.cow_fault_us
    proc.stats.faults += 1
    proc.stats.cow_faults += 1
    proc.stats.fault_time_us += latency
    proc.fault_time_epoch_us += latency
    kernel.stats.faults += 1
    kernel.stats.cow_faults += 1
    if (tp := kernel.trace) is not None and tp.enabled:
        tp.emit(trace.TraceKind.FAULT_COW, proc.name, latency, vpn, "ksm")
    return latency


def _cow_break(kernel: "Kernel", proc: Process, vpn: int) -> float:
    """Write to a shared-zero mapping: allocate a private copy."""
    node, strict = _numa_target(kernel, proc, proc.vmas.try_find(vpn), vpn >> 9)
    frame, zeroed = kernel.alloc_base_frame(prefer_zero=True, owner=proc.pid,
                                            node=node, strict=strict)
    if not zeroed:
        kernel.frames.zero_fill(frame, 1)
    proc.page_table.remap(vpn, frame, set_bits=DIRTY, clear_bits=SHARED_ZERO)
    kernel.rmap_add(frame, proc, vpn)
    kernel.zero_registry.cow_break()
    latency = kernel.costs.cow_fault_us
    proc.stats.faults += 1
    proc.stats.cow_faults += 1
    proc.stats.fault_time_us += latency
    proc.fault_time_epoch_us += latency
    kernel.stats.faults += 1
    kernel.stats.cow_faults += 1
    if (tp := kernel.trace) is not None and tp.enabled:
        tp.emit(trace.TraceKind.FAULT_COW, proc.name, latency, vpn, "zero")
    return latency
