"""Unit tests for /proc-style snapshots."""

import pytest

from repro.kernel import procfs
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.vma import HugePageHint
from tests.test_fault import make_proc


def test_meminfo_accounts_consistently(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)
    info = procfs.meminfo(kernel_thp)
    assert info["MemTotal"] == info["MemFree"] + info["MemAllocated"]
    assert info["AnonHugePages"] == 2048  # one 2 MiB mapping in KiB
    assert info["SwapUsed"] == 0


def test_meminfo_tracks_zero_lists(kernel_hawkeye):
    kernel_hawkeye.run_epochs(1)
    info = procfs.meminfo(kernel_hawkeye)
    assert info["ZeroedFree"] == info["MemFree"]  # boot memory pre-zeroed


def test_vmstat_counters(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)
    kernel_thp.demote_region(proc, vma.start >> 9)
    stats = procfs.vmstat(kernel_thp)
    assert stats["pgfault"] == 1
    assert stats["pgfault_huge"] == 1
    assert stats["thp_split"] == 1
    assert stats["oom_kill"] == 0


def test_smaps_rows(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    kernel_thp.madvise_hugepage(proc, "heap", HugePageHint.ALWAYS)
    kernel_thp.fault(proc, vma.start)
    rows = procfs.smaps(kernel_thp, proc)
    assert len(rows) == 1
    row = rows[0]
    assert row["name"] == "heap"
    assert row["size_kb"] == 8 * 1024
    assert row["rss_kb"] == 2 * 1024
    assert row["anon_huge_kb"] == 2 * 1024
    assert row["hint"] == "always"


def test_format_meminfo_layout(kernel4k):
    text = procfs.format_meminfo(kernel4k)
    assert "MemTotal:" in text
    assert text.strip().endswith("kB")


MEMINFO_KEYS = {
    "MemTotal", "MemFree", "MemAllocated", "FileCache", "AnonHugePages",
    "ZeroedFree", "ZeroPageShared", "SwapUsed",
}

VMSTAT_KEYS = {
    "pgfault", "pgfault_huge", "pgfault_cow", "thp_collapse_alloc",
    "thp_promote_inplace", "thp_split", "pages_prezeroed",
    "bloat_pages_recovered", "compact_pages_moved", "ksm_pages_merged",
    "pgreclaim_file", "oom_kill", "pswpout", "pswpin",
    "trace_attached", "trace_events", "trace_dropped",
    "audit_attached", "audit_decisions", "audit_dropped",
}

SMAPS_KEYS = {
    "name", "start_page", "size_kb", "rss_kb", "anon_huge_kb", "kind", "hint",
}


def test_meminfo_key_set_is_stable(kernel4k):
    assert set(procfs.meminfo(kernel4k)) == MEMINFO_KEYS


def test_vmstat_key_set_is_stable(kernel4k):
    assert set(procfs.vmstat(kernel4k)) == VMSTAT_KEYS


def test_smaps_key_set_is_stable(kernel4k):
    proc, _vma = make_proc(kernel4k)
    rows = procfs.smaps(kernel4k, proc)
    assert rows and all(set(row) == SMAPS_KEYS for row in rows)


def test_meminfo_invariants_hold_under_churn(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    for offset in range(0, 3 * PAGES_PER_HUGE, 7):
        kernel_thp.fault(proc, vma.start + offset)
    kernel_thp.madvise_free(proc, vma.start, PAGES_PER_HUGE + 5)
    info = procfs.meminfo(kernel_thp)
    assert info["MemTotal"] == info["MemFree"] + info["MemAllocated"]
    assert 0 <= info["ZeroedFree"] <= info["MemFree"]
    assert info["AnonHugePages"] <= info["MemAllocated"]
    assert all(v >= 0 for v in info.values())


def test_vmstat_counters_never_negative(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)
    kernel_thp.demote_region(proc, vma.start >> 9)
    kernel_thp.run_epochs(3)
    assert all(v >= 0 for v in procfs.vmstat(kernel_thp).values())


def test_smaps_rss_bounded_by_size(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    for offset in range(0, vma.npages, 11):
        kernel_thp.fault(proc, vma.start + offset)
    for row in procfs.smaps(kernel_thp, proc):
        assert 0 <= row["rss_kb"] <= row["size_kb"]
        assert row["anon_huge_kb"] <= row["size_kb"]


def test_swap_accounting_in_meminfo_and_vmstat():
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.policies.linux import Linux4KPolicy

    kernel = Kernel(
        KernelConfig(mem_bytes=4 * MB, swap_bytes=4 * MB), Linux4KPolicy)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    for offset in range(1200):
        kernel.fault(proc, vma.start + offset)
    info = procfs.meminfo(kernel)
    stats = procfs.vmstat(kernel)
    assert info["SwapUsed"] > 0
    assert stats["pswpout"] > 0
    assert info["SwapUsed"] == (stats["pswpout"] - stats["pswpin"]) * 4


def _numa_maps_pages(kernel, proc):
    return sum(v for row in procfs.numa_maps(kernel, proc)
               for k, v in row.items() if k.startswith("node"))


def test_smaps_and_numa_maps_drop_zero_deduplicated_pages(kernel_thp):
    # One zero-filled huge fault, split and fully zero-deduplicated: the
    # region keeps 512 mappings, but none of them is resident.
    proc, vma = make_proc(kernel_thp)
    kernel_thp.madvise_hugepage(proc, "heap", HugePageHint.ALWAYS)
    kernel_thp.fault(proc, vma.start)
    kernel_thp.demote_region(proc, vma.start >> 9)
    kernel_thp.dedup_zero_pages(proc, vma.start >> 9)
    assert proc.page_table.region_resident(vma.start >> 9) == PAGES_PER_HUGE
    assert proc.rss_pages() == 0
    assert sum(row["rss_kb"] for row in procfs.smaps(kernel_thp, proc)) // 4 == proc.rss_pages()
    assert _numa_maps_pages(kernel_thp, proc) == proc.rss_pages()


def test_smaps_and_numa_maps_count_ksm_shared_pages_on_two_nodes():
    from repro.kernel.kernel import Kernel
    from repro.mem.samepage import SamePageMerger
    from repro.numa.topology import NumaTopology
    from repro.policies.linux import Linux4KPolicy
    from tests.conftest import small_config

    kernel = Kernel(small_config(topology=NumaTopology(nodes=2)), Linux4KPolicy)
    procs = []
    for node in (0, 1):
        proc, vma = make_proc(kernel, nbytes=4 * MB)
        proc.home_node = node
        kernel.fault_range(proc, vma.start, 64)
        for i in range(64):
            frame, _ = proc.page_table.translate(vma.start + i)
            kernel.frames.write(frame, first_nonzero=0, tag=42)
        procs.append(proc)
    merger = SamePageMerger(kernel, pages_per_sec=1e9)
    assert sum(merger.run_epoch() for _ in range(3)) > 0
    for proc in procs:
        assert proc.page_table.shared_zero_count == 0
        assert _numa_maps_pages(kernel, proc) == proc.rss_pages() == 64
        assert sum(row["rss_kb"] for row in procfs.smaps(kernel, proc)) // 4 == 64
    # The canonical frames sit on one node, so some pages map remotely.
    pages = [procfs.numa_maps(kernel, p)[0] for p in procs]
    assert pages[1]["node0_pages"] > 0
