"""Unit tests for the Linux policies (4KB baseline and THP)."""

import pytest

from repro.kernel.kernel import Kernel
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config
from tests.test_fault import make_proc


def touch(kernel, proc, vma, n):
    for vpn in range(vma.start, vma.start + n):
        kernel.fault(proc, vpn)


def test_linux4k_never_maps_huge(kernel4k):
    proc, vma = make_proc(kernel4k)
    touch(kernel4k, proc, vma, 2 * PAGES_PER_HUGE)
    assert len(proc.page_table.huge) == 0
    kernel4k.run_epochs(5)
    assert kernel4k.stats.promotions == 0


def test_khugepaged_promotes_sparse_regions(kernel_thp):
    """Linux collapses around holes (max_ptes_none): 1 resident page
    is enough — the paper's bloat-by-promotion mechanism."""
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)  # force base faults
    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)  # a single base page
    assert proc.stats.huge_faults == 0
    kernel_thp.fragmenter.release_all()  # contiguity returns
    kernel_thp.run_epochs(3)
    assert proc.region(vma.start >> 9).is_huge
    assert kernel_thp.stats.promotions == 1


def test_khugepaged_scans_low_to_high_va(kernel_thp):
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    # fault one page in every region, high region first
    regions = list(range(vma.start >> 9, vma.end >> 9))
    for hvpn in reversed(regions):
        kernel_thp.fault(proc, hvpn << 9)
    kernel_thp.fragmenter.release_all()
    promoted_order = []
    original = kernel_thp.promote_region

    def spy(p, hvpn):
        result = original(p, hvpn)
        if result is not None:
            promoted_order.append(hvpn)
        return result

    kernel_thp.promote_region = spy
    kernel_thp.run_epochs(2)
    assert promoted_order == sorted(promoted_order)
    assert promoted_order[0] == regions[0]


def test_khugepaged_fcfs_across_processes():
    kernel = Kernel(small_config(128), lambda k: LinuxTHPPolicy(k, promote_per_sec=4.0))
    kernel.fragmenter.fragment(keep_fraction=0.02)
    first, vma1 = make_proc(kernel, nbytes=8 * MB)
    second, vma2 = make_proc(kernel, nbytes=8 * MB)
    for vma, proc in ((vma1, first), (vma2, second)):
        for hvpn in range(vma.start >> 9, vma.end >> 9):
            kernel.fault(proc, hvpn << 9)
    kernel.fragmenter.release_all()
    kernel.run_epochs(1)  # budget 4: all go to the first process
    assert first.stats.promotions == 4
    assert second.stats.promotions == 0
    kernel.run_epochs(1)  # first exhausted (4 regions), second starts
    assert second.stats.promotions == 4


def test_khugepaged_forgets_exited_process_cursor(kernel_thp):
    """An exited process leaves no scan cursor behind."""
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    gone, vma1 = make_proc(kernel_thp)
    kept, vma2 = make_proc(kernel_thp)
    kernel_thp.fault(gone, vma1.start)
    kernel_thp.fault(kept, vma2.start)
    kernel_thp.fragmenter.release_all()
    kernel_thp.run_epochs(1)
    cursor = kernel_thp.policy._cursor
    assert {gone.pid, kept.pid} <= set(cursor)
    kernel_thp.exit_process(gone)
    assert gone.pid not in cursor
    assert kept.pid in cursor


def test_khugepaged_rate_limited(kernel_thp):
    kernel_thp.policy._limiter.per_second = 2.0
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel_thp, nbytes=16 * MB)
    for hvpn in range(vma.start >> 9, vma.end >> 9):
        kernel_thp.fault(proc, hvpn << 9)
    kernel_thp.fragmenter.release_all()
    kernel_thp.run_epochs(1)
    assert proc.stats.promotions <= 4  # 2/s with ≤2 epochs of carryover


def test_khugepaged_disabled():
    kernel = Kernel(small_config(), lambda k: LinuxTHPPolicy(k, khugepaged=False))
    kernel.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    kernel.fragmenter.release_all()
    kernel.run_epochs(5)
    assert kernel.stats.promotions == 0
