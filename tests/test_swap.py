"""Unit tests for the swap device."""

import pytest

from repro.errors import OutOfMemoryError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.test_fault import make_proc


def make(mem_mb=8, swap_mb=32, policy=Linux4KPolicy):
    return Kernel(
        KernelConfig(mem_bytes=mem_mb * MB, swap_bytes=swap_mb * MB), policy
    )


def test_swap_extends_memory_past_ram():
    kernel = make()
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    for vpn in range(vma.start, vma.start + 3000):
        kernel.fault(proc, vpn)
    assert kernel.swap.swap_outs > 0
    assert kernel.stats.oom_kills == 0


def test_swapped_page_faults_back_with_io_cost():
    kernel = make()
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    for vpn in range(vma.start, vma.start + 3000):
        kernel.fault(proc, vpn)
    pid_vpn = next(iter(kernel.swap.swapped))
    assert pid_vpn[0] == proc.pid
    latency = kernel.fault(proc, pid_vpn[1])
    assert latency >= kernel.costs.swap_page_us
    assert not kernel.swap.is_swapped(*pid_vpn)
    assert kernel.swap.swap_ins == 1
    # the page's content returned from swap, not zero
    frame, _ = proc.page_table.translate(pid_vpn[1])
    assert not kernel.frames.is_zero(frame)


def test_victims_unmapped_fifo():
    kernel = make()
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    for vpn in range(vma.start, vma.start + 3000):
        kernel.fault(proc, vpn)
    # earliest-mapped pages are evicted first (FIFO)
    assert proc.page_table.translate(vma.start) is None
    assert proc.page_table.translate(vma.start + 2999) is not None


def test_huge_mappings_demoted_for_swap():
    kernel = make(mem_mb=8, policy=lambda k: LinuxTHPPolicy(k, khugepaged=False))
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    kernel.fault(proc, vma.start)  # huge fault: 512 pages
    kernel.fault(proc, vma.start + PAGES_PER_HUGE)  # another
    kernel.fault(proc, vma.start + 2 * PAGES_PER_HUGE)
    # now exhaust memory: swap must demote a huge page to find victims
    for vpn in range(vma.start + 3 * PAGES_PER_HUGE, vma.end):
        kernel.fault(proc, vpn)
    assert kernel.stats.demotions > 0
    assert kernel.swap.swap_outs > 0


def test_swap_capacity_limits_and_oom():
    kernel = make(mem_mb=4, swap_mb=1)
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    with pytest.raises(OutOfMemoryError):
        for vpn in range(vma.start, vma.end):
            kernel.fault(proc, vpn)
    assert len(kernel.swap.swapped) <= kernel.swap.capacity_pages


def test_io_time_accounted():
    kernel = make()
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    for vpn in range(vma.start, vma.start + 3000):
        kernel.fault(proc, vpn)
    assert kernel.swap.io_time_us == pytest.approx(
        kernel.swap.swap_outs * kernel.costs.swap_page_us
    )
