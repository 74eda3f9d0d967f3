"""/proc-style snapshots of simulator state.

``meminfo`` / ``vmstat`` / ``smaps`` analogues: human-readable, stable
key sets, built only from public kernel state.  Examples and the CLI use
these to show what the machine looks like mid-experiment, the way an
operator would inspect a real system while reproducing the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.units import BASE_PAGE_SIZE, KB, PAGES_PER_HUGE
from repro.vm.page_table import SHARED_ZERO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry
    from repro.vm.process import Process
    from repro.vm.vma import VMA


def meminfo(kernel: "Kernel") -> dict[str, int]:
    """A /proc/meminfo-like snapshot, values in KiB."""
    pk = BASE_PAGE_SIZE // KB
    total = kernel.buddy.total_pages
    free = kernel.buddy.free_pages
    huge_mapped = sum(p.page_table.huge_mapped_pages() for p in kernel.processes)
    return {
        "MemTotal": total * pk,
        "MemFree": free * pk,
        "MemAllocated": (total - free) * pk,
        "FileCache": kernel.fragmenter.cache_pages * pk,
        "AnonHugePages": huge_mapped * pk,
        "ZeroedFree": kernel.buddy.free_zeroed_pages() * pk,
        "ZeroPageShared": kernel.zero_registry.mappings * pk,
        "SwapUsed": (len(kernel.swap.swapped) * pk) if kernel.swap else 0,
    }


def vmstat(kernel: "Kernel") -> dict[str, float]:
    """Counter snapshot in the spirit of /proc/vmstat.

    The three ``trace_*`` keys expose the tracer's health: whether one
    is attached, how many events it has counted, and how many the ring
    buffer dropped — so ``repro top`` (and any scraper) can tell when a
    recorded trace is lossy.  All are 0 with no tracer attached;
    ``trace_attached`` is point-in-time state, the other two are
    cumulative like every other key.  The ``audit_*`` keys do the same
    for the decision audit: ``audit_decisions`` counts every decision
    ever recorded, ``audit_dropped`` the ones that aged out of the
    replay ring (the funnel stays exact regardless).
    """
    s = kernel.stats
    tracer = kernel.trace
    audit_log = kernel.audit
    return {
        "pgfault": s.faults,
        "pgfault_huge": s.huge_faults,
        "pgfault_cow": s.cow_faults,
        "thp_collapse_alloc": s.collapse_promotions,
        "thp_promote_inplace": s.inplace_promotions,
        "thp_split": s.demotions,
        "pages_prezeroed": s.pages_prezeroed,
        "bloat_pages_recovered": s.bloat_pages_recovered,
        "compact_pages_moved": s.compaction_pages_moved,
        "ksm_pages_merged": s.ksm_merged_pages,
        "pgreclaim_file": s.reclaimed_file_pages,
        "oom_kill": s.oom_kills,
        "pswpout": kernel.swap.swap_outs if kernel.swap else 0,
        "pswpin": kernel.swap.swap_ins if kernel.swap else 0,
        "trace_attached": 1 if tracer is not None else 0,
        "trace_events": sum(tracer.counts.values()) if tracer is not None else 0,
        "trace_dropped": tracer.dropped if tracer is not None else 0,
        "audit_attached": 1 if audit_log is not None else 0,
        "audit_decisions": audit_log.recorded if audit_log is not None else 0,
        "audit_dropped": audit_log.dropped if audit_log is not None else 0,
    }


#: vmstat keys that are point-in-time state, not cumulative counters.
VMSTAT_GAUGES = frozenset({"trace_attached", "audit_attached"})


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish the core families (vmstat, meminfo, buddy, per-process),
    declared on every kernel; the per-process ones carry live processes
    only."""
    vm_counters = registry.counter(
        "vmstat", "cumulative kernel counters (/proc/vmstat analogue)",
        labelnames=("name",))
    vm_gauges = registry.gauge(
        "vmstat_state", "point-in-time vmstat keys (e.g. trace_attached)",
        labelnames=("name",))
    for name, value in vmstat(kernel).items():
        if name in VMSTAT_GAUGES:
            vm_gauges.labels(name=name).set(value)
        else:
            vm_counters.labels(name=name).sync(value)
    mem = registry.gauge(
        "meminfo_kb", "memory gauges in KiB (/proc/meminfo analogue)",
        labelnames=("field",))
    for fieldname, value in meminfo(kernel).items():
        mem.labels(field=fieldname).set(value)
    registry.gauge(
        "fmfi", "free memory fragmentation index at order 9",
    ).child().set(kernel.fmfi())
    registry.gauge(
        "allocated_fraction", "fraction of physical memory allocated",
    ).child().set(kernel.allocated_fraction())
    free_blocks = registry.gauge(
        "buddy_free_blocks", "free blocks per buddy order",
        labelnames=("order",))
    for order, count in enumerate(kernel.buddy.free_block_counts()):
        free_blocks.labels(order=str(order)).set(count)
    rss = registry.gauge(
        "process_rss_pages", "resident pages per process",
        labelnames=("process",))
    mmu = registry.gauge(
        "process_mmu_overhead", "lifetime MMU overhead per process",
        labelnames=("process",))
    live = set()
    for proc in kernel.processes:
        live.add(proc.name)
        rss.labels(process=proc.name).set(proc.rss_pages())
        pmu = kernel.pmu.get(proc.pid)
        if pmu is not None:
            mmu.labels(process=proc.name).set(pmu.read_overhead())
    # An exited process's series ends (its lifetime totals live on in
    # the fleet and heat sections).
    for family in (rss, mmu):
        for name in [name for name in family.children if name not in live]:
            family.remove(name)


def numastat(kernel: "Kernel") -> dict[str, int]:
    """A /sys/devices/system/node + /proc/vmstat NUMA counter snapshot.

    Meaningful (non-trivial) on multi-node kernels but defined for every
    kernel, so callers need no topology check: a single-node machine
    reports one node holding everything with zero cross-node traffic.
    It is a *separate* view — the frozen ``vmstat`` key set is untouched.
    """
    s = kernel.stats
    out: dict[str, int] = {"numa_nodes": kernel.config.topology.nodes}
    numa = kernel.numa
    if numa is None:
        # One zone holding everything; allocation-placement counters are
        # only tracked by the multi-node allocator, so they read 0.
        buddy = kernel.buddy
        zones = [(0, buddy.total_pages)]
        per_zone = [buddy]
        hit = miss = foreign = [0]
    else:
        zones = numa.allocator.node_map.ranges
        per_zone = numa.allocator.zones
        hit = numa.allocator.numa_hit
        miss = numa.allocator.numa_miss
        foreign = numa.allocator.numa_foreign
    for node, ((start, end), zone) in enumerate(zip(zones, per_zone)):
        out[f"node{node}_total_pages"] = end - start
        out[f"node{node}_free_pages"] = zone.free_pages
        out[f"node{node}_allocated_pages"] = zone.allocated_pages
        out[f"node{node}_numa_hit"] = hit[node]
        out[f"node{node}_numa_miss"] = miss[node]
        out[f"node{node}_numa_foreign"] = foreign[node]
    out["numa_hint_faults"] = s.numa_hint_faults
    out["numa_pages_migrated"] = s.numa_pages_migrated
    out["numa_huge_migrated"] = s.numa_huge_migrated
    out["numa_split_migrations"] = s.numa_split_migrations
    out["numa_pt_replica_pages"] = (
        numa.replica_overhead_pages() if numa is not None else 0
    )
    return out


def _resident_frames(proc: "Process", vma: "VMA") -> np.ndarray:
    """The frame behind each resident page of a VMA, as RSS counts them
    (:meth:`PageTable.resident_pages`: shared-zero mappings excluded)."""
    frames = proc.page_table.translate_range(vma.start, vma.npages)
    zero = proc.page_table.flags[vma.start : vma.end] & SHARED_ZERO != 0
    frames[: zero.shape[0]][zero] = -1
    return frames[frames >= 0]


def numa_maps(kernel: "Kernel", proc: "Process") -> list[dict[str, object]]:
    """Per-VMA NUMA placement, one row per mapping (/proc/pid/numa_maps)."""
    numa = kernel.numa
    nodes = numa.nodes if numa is not None else 1
    node_of = numa.allocator.node_of_arr if numa is not None else np.zeros_like
    rows = []
    for vma in proc.vmas:
        counts = np.bincount(node_of(_resident_frames(proc, vma)), minlength=nodes)
        policy = vma.mempolicy if vma.mempolicy is not None else proc.mempolicy
        row: dict[str, object] = {
            "name": vma.name,
            "start_page": vma.start,
            "policy": policy.kind.value if policy is not None else "default",
        }
        row.update((f"node{node}_pages", n) for node, n in enumerate(counts.tolist()))
        rows.append(row)
    return rows


def smaps(kernel: "Kernel", proc: "Process") -> list[dict[str, object]]:
    """Per-VMA summary, one row per mapping (a compact /proc/pid/smaps)."""
    rows = []
    for vma in proc.vmas:
        huge_count = proc.page_table.huge_count_in_range(
            vma.start >> 9, ((vma.end - 1) >> 9) + 1)
        resident = _resident_frames(proc, vma).shape[0]
        rows.append({
            "name": vma.name,
            "start_page": vma.start,
            "size_kb": vma.npages * (BASE_PAGE_SIZE // KB),
            "rss_kb": resident * (BASE_PAGE_SIZE // KB),
            "anon_huge_kb": huge_count * PAGES_PER_HUGE * (BASE_PAGE_SIZE // KB),
            "kind": vma.kind.value,
            "hint": vma.hint.value,
        })
    return rows


def format_meminfo(kernel: "Kernel") -> str:
    """Render :func:`meminfo` in the classic aligned-kB layout."""
    info = meminfo(kernel)
    width = max(len(k) for k in info)
    return "\n".join(f"{k + ':':<{width + 1}} {v:>12} kB" for k, v in info.items())
