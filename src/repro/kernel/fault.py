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

import math
from typing import TYPE_CHECKING

from repro import audit, trace
from repro.policies.base import HugePagePolicy
from repro.units import PAGES_PER_HUGE
from repro.vm.process import Process
from repro.vm.vma import VMA, HugePageHint, VMAKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


def handle_fault(kernel: "Kernel", proc: Process, vpn: int, vma: VMA | None = None) -> float:
    """Fault on ``vpn``; returns the fault latency in µs (0 if already mapped)."""
    pt = proc.page_table
    pte = pt.base.get(vpn)
    if pte is not None:
        if pte.shared_zero:
            return _cow_break(kernel, proc, vpn)
        if pte.shared_cow:
            return _cow_break_shared(kernel, proc, vpn)
        pte.accessed = True
        return 0.0
    huge_pte = pt.huge.get(vpn >> 9)
    if huge_pte is not None:
        huge_pte.accessed = True
        return 0.0

    if vma is None:
        vma = proc.vmas.find(vpn)
    hvpn = vpn >> 9
    region = proc.region(hvpn)
    policy = kernel.policy
    anon = vma.kind is VMAKind.ANON

    # madvise hints trump the policy: NOHUGEPAGE forces base pages,
    # HUGEPAGE requests a huge mapping even from reluctant policies.
    if vma.hint is HugePageHint.NEVER:
        want_huge = False
    elif vma.hint is HugePageHint.ALWAYS:
        want_huge = True
    else:
        want_huge = policy.fault_size(proc, vma, vpn) == "huge"

    if (
        want_huge
        and region.resident == 0
        and vma.covers(hvpn << 9, PAGES_PER_HUGE)
    ):
        latency = _try_huge_fault(kernel, proc, vma, hvpn, anon)
        if latency is not None:
            return latency

    return _base_fault(kernel, proc, vma, vpn, region, anon)


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
    pt_entry = proc.page_table.map_huge(hvpn, frame)
    pt_entry.accessed = True
    kernel.rmap_add_huge(frame, proc, hvpn)
    region = proc.region(hvpn)
    region.is_huge = True
    region.resident = PAGES_PER_HUGE
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


def _base_fault(
    kernel: "Kernel", proc: Process, vma: VMA, vpn: int, region, anon: bool
) -> float:
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
    pte = proc.page_table.map_base(vpn, frame)
    pte.accessed = True
    kernel.rmap_add(frame, proc, vpn)
    region.resident += 1
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
) -> tuple[float, int]:
    """Batched equivalent of per-page ``handle_fault`` plus content writes.

    Touches ``[vpn0, vpn0 + npages)`` in ascending order and stops — like
    the scalar touch loop — once the consumed time reaches ``budget_us``
    (checked before each page, so the same one-page overshoot is
    possible).  Each page consumes ``max(fault_cost + work_us, pace_us)``
    of budget, mirroring the touch loop's per-page work and client pacing;
    only the raw fault cost is charged to fault-time statistics.  Returns
    ``(consumed_us, pages_processed)``.

    The contract is *exact equivalence*: page tables, rmap, buddy
    free-list contents (including dict order, which drives future
    allocations), frame content descriptors and all counters end up
    identical to running ``handle_fault`` — and, when ``content`` is
    given, a per-page :meth:`FrameTable.write` — page by page.  The only
    tolerated difference is float rounding in latency totals, which are
    charged as ``count × per-fault-cost`` per uniform run.

    Pages that cannot take the bulk path fall back to scalar
    ``handle_fault``: shared-zero / shared-COW mappings (write breaks),
    swapped-out pages, and the first page of a region eligible for a huge
    fault.  Policies with reservation or post-fault hooks (FreeBSD) and
    kernels with a ``frame_alloc_hook`` (virtualised setups) take the
    scalar path for the entire range.  ``content`` duck-types
    :class:`repro.workloads.base.ContentSpec`.

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
    base = pt.base
    huge = pt.huge
    swapped = kernel.swap.swapped if kernel.swap is not None else None
    pid = proc.pid
    # Budget increment for a page whose fault cost is zero (already mapped).
    flat_inc = work_us if work_us > pace_us else pace_us
    consumed = 0.0
    pos = 0
    while pos < npages and consumed < budget_us:
        vpn = vpn0 + pos
        if vma is None or not vma.contains(vpn):
            vma = proc.vmas.find(vpn)
        if scalar_only:
            cost = handle_fault(kernel, proc, vpn, vma)
            if content is not None:
                _write_content_page(kernel, proc, vpn, content)
            consumed += max(cost + work_us, pace_us)
            pos += 1
            continue
        hvpn = vpn >> 9
        seg_end = min((hvpn + 1) << 9, vma.end, vpn0 + npages)
        huge_pte = huge.get(hvpn)
        if huge_pte is not None:
            # Whole tail of the region is huge-mapped: touch + write only.
            n = seg_end - vpn
            if flat_inc > 0.0 and not math.isinf(budget_us):
                n = min(n, int(math.ceil((budget_us - consumed) / flat_inc)))
            huge_pte.accessed = True
            if content is not None:
                frame0 = huge_pte.frame + (vpn & (PAGES_PER_HUGE - 1))
                _write_content_run(kernel, frame0, n, content)
            consumed += n * flat_inc
            pos += n
            continue
        pte = base.get(vpn)
        if pte is not None:
            if pte.shared_zero or pte.shared_cow:
                cost = handle_fault(kernel, proc, vpn, vma)
                if content is not None:
                    _write_content_page(kernel, proc, vpn, content)
                consumed += max(cost + work_us, pace_us)
                pos += 1
                continue
            # Run of private already-mapped base pages: touch + write only.
            limit = seg_end
            if flat_inc > 0.0 and not math.isinf(budget_us):
                limit = min(limit, vpn + int(math.ceil((budget_us - consumed) / flat_inc)))
            run_frames = []
            v = vpn
            while v < limit:
                p = base.get(v)
                if p is None or p.shared_zero or p.shared_cow:
                    break
                p.accessed = True
                run_frames.append(p.frame)
                v += 1
            if content is not None:
                _write_content_frames(kernel, run_frames, content)
            consumed += (v - vpn) * flat_inc
            pos += v - vpn
            continue
        if swapped and (pid, vpn) in swapped:
            cost = handle_fault(kernel, proc, vpn, vma)
            if content is not None:
                _write_content_page(kernel, proc, vpn, content)
            consumed += max(cost + work_us, pace_us)
            pos += 1
            continue
        region = proc.region(hvpn)
        if vma.hint is HugePageHint.NEVER:
            want_huge = False
        elif vma.hint is HugePageHint.ALWAYS:
            want_huge = True
        else:
            want_huge = policy.fault_size(proc, vma, vpn) == "huge"
        if want_huge and region.resident == 0 and vma.covers(hvpn << 9, PAGES_PER_HUGE):
            # Huge-fault-eligible: scalar for this page; on success the
            # rest of the region takes the huge-mapped run above, on
            # fallback it becomes resident>0 and bulk base faults apply.
            cost = handle_fault(kernel, proc, vpn, vma)
            if content is not None:
                _write_content_page(kernel, proc, vpn, content)
            consumed += max(cost + work_us, pace_us)
            pos += 1
            continue
        # Contiguous unmapped, unswapped run: the bulk base-fault path.
        v = vpn + 1
        while v < seg_end and v not in base and not (swapped and (pid, v) in swapped):
            v += 1
        run_us, run_pages = _bulk_base_fault(
            kernel, proc, vma, region, vpn, v - vpn, budget_us - consumed, content,
            work_us, pace_us,
        )
        consumed += run_us
        pos += run_pages
        if run_pages < v - vpn:
            break  # latency budget exhausted mid-run
    return consumed, pos


def _bulk_base_fault(
    kernel: "Kernel", proc: Process, vma: VMA, region, vpn0: int, npages: int,
    budget_us: float, content, work_us: float = 0.0, pace_us: float = 0.0,
) -> tuple[float, int]:
    """Allocate, map, account and write a run of base faults in bulk.

    One buddy extent at a time (so a mid-run budget stop leaves the free
    lists exactly as the scalar loop would); per-extent fault latency is
    ``count × costs.base_fault(needs_zero)``, while the budget drains by
    ``count × max(cost + work_us, pace_us)``.  Returns ``(µs, pages)``
    where the µs are the budget consumption.
    """
    anon = vma.kind is VMAKind.ANON
    trusts = kernel.policy.trusts_zero_lists
    costs = kernel.costs
    pt = proc.page_table
    pstats = proc.stats
    kstats = kernel.stats
    total = 0.0
    done = 0
    # Bulk runs never cross a huge-region boundary, so one placement
    # decision covers the whole run (interleave keys on the region).
    node, strict = _numa_target(kernel, proc, vma, vpn0 >> 9)
    while done < npages and total < budget_us:
        start, count, zeroed = kernel.alloc_base_run_extent(
            npages - done, prefer_zero=anon, owner=proc.pid,
            node=node, strict=strict,
        )
        needs_zero = anon and (not zeroed or not trusts)
        per_page = costs.base_fault(needs_zero)
        inc = max(per_page + work_us, pace_us)
        left = budget_us - total
        # The scalar loop faults another page whenever the time consumed
        # so far is below budget, so this extent contributes exactly
        # ceil(left / inc) pages before the stop (capped by its size).
        take = count if math.isinf(left) else min(count, int(math.ceil(left / inc)))
        if take < count:
            # Return the surplus: scalar would never have allocated it.
            # free_range reinserts the identical maximal decomposition
            # (no buddy of a surplus piece can be free: the drained prefix
            # is allocated and the block's outer buddies were not free).
            kernel.buddy.free_range(start + take, count - take)
        if needs_zero:
            kernel.frames.zero_fill(start, take)
        ext = [(start, take, zeroed)]
        pt.map_base_range(vpn0 + done, ext, accessed=True)
        kernel.rmap_add_range(proc, vpn0 + done, ext)
        if content is not None:
            _write_content_run(kernel, start, take, content)
        if (tp := kernel.trace) is not None and tp.enabled:
            # One run of per-page events, equivalent to the scalar loop's
            # stream: same kind, process, vpn order and span (per_page is
            # exactly the scalar latency — the bulk path has no backing
            # hook or swap); emit_run builds only the events it keeps.
            tp.emit_run(trace.TraceKind.FAULT_BASE, proc.name, per_page,
                        vpn0 + done, take)
        run_us = take * per_page
        total += take * inc
        done += take
        region.resident += take
        pstats.faults += take
        pstats.fault_time_us += run_us
        proc.fault_time_epoch_us += run_us
        kstats.faults += take
        if take < count:
            break
    return total, done


def _write_content_run(kernel: "Kernel", frame0: int, count: int, content) -> None:
    """Apply a ContentSpec to ``count`` consecutive frames."""
    if content.zero:
        kernel.frames.zero_fill(frame0, count)
    else:
        kernel.frames.write_range(frame0, count, content.first_nonzero, content.shared_tag)


def _write_content_frames(kernel: "Kernel", frames: list[int], content) -> None:
    """Apply a ContentSpec to an arbitrary frame list (in list order)."""
    if not frames:
        return
    if content.zero:
        for frame in frames:
            kernel.frames.write_zero(frame)
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
    pte = proc.page_table.base[vpn]
    canonical = pte.frame
    node, strict = _numa_target(kernel, proc, proc.vmas.try_find(vpn), vpn >> 9)
    frame, _ = kernel.alloc_base_frame(prefer_zero=False, owner=proc.pid,
                                       node=node, strict=strict)
    kernel.frames.first_nonzero[frame] = kernel.frames.first_nonzero[canonical]
    kernel.frames.content_tag[frame] = kernel.frames.content_tag[canonical]
    kernel.cow_registry.unshare(canonical)
    kernel.cow_registry.cow_breaks += 1
    pte.frame = frame
    pte.shared_cow = False
    pte.dirty = True
    proc.page_table.sync_pte(vpn, pte)
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
    pte = proc.page_table.base[vpn]
    node, strict = _numa_target(kernel, proc, proc.vmas.try_find(vpn), vpn >> 9)
    frame, zeroed = kernel.alloc_base_frame(prefer_zero=True, owner=proc.pid,
                                            node=node, strict=strict)
    if not zeroed:
        kernel.frames.zero_fill(frame, 1)
    pte.frame = frame
    pte.shared_zero = False
    pte.dirty = True
    proc.page_table.shared_zero_count -= 1
    proc.page_table.sync_pte(vpn, pte)
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
