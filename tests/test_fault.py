"""Unit tests for the page-fault path."""

import pytest

from repro.errors import OutOfMemoryError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.page_table import SHARED_ZERO
from repro.vm.vma import VMAKind
from tests.conftest import small_config


def make_proc(kernel, nbytes=8 * MB, kind=VMAKind.ANON):
    from repro.vm.process import Process

    proc = Process("t")
    kernel.processes.append(proc)
    from repro.tlb.perf import PMUCounters

    kernel.pmu[proc.pid] = PMUCounters()
    vma = kernel.mmap(proc, nbytes, "heap", kind)
    return proc, vma


def test_base_fault_maps_and_charges(kernel4k):
    proc, vma = make_proc(kernel4k)
    latency = kernel4k.fault(proc, vma.start)
    assert latency == pytest.approx(3.5)  # sync zeroing baseline
    assert proc.page_table.translate(vma.start) is not None
    assert proc.stats.faults == 1
    assert proc.page_table.region_resident(vma.start >> 9) == 1


def test_repeat_fault_free(kernel4k):
    proc, vma = make_proc(kernel4k)
    kernel4k.fault(proc, vma.start)
    assert kernel4k.fault(proc, vma.start) == 0.0
    assert proc.stats.faults == 1


def test_thp_maps_huge_at_first_fault(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    latency = kernel_thp.fault(proc, vma.start + 7)
    assert latency == pytest.approx(465.0)  # huge fault with sync zeroing
    assert proc.stats.huge_faults == 1
    assert proc.page_table.region_huge(vma.start >> 9)
    assert proc.page_table.region_resident(vma.start >> 9) == PAGES_PER_HUGE
    # every page of the region is now mapped
    assert proc.page_table.translate(vma.start + 100) is not None


def test_thp_falls_back_to_base_when_fragmented(kernel_thp):
    kernel_thp.fragmenter.fragment(keep_fraction=0.05)
    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)
    assert proc.stats.huge_faults == 0
    assert proc.stats.faults == 1


def test_thp_no_huge_fault_when_vma_smaller_than_region(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=1 * MB)  # 256 pages < 512
    kernel_thp.fault(proc, vma.start)
    assert proc.stats.huge_faults == 0


def test_file_backed_fault_skips_zeroing(kernel4k):
    proc, vma = make_proc(kernel4k, kind=VMAKind.FILE)
    latency = kernel4k.fault(proc, vma.start)
    assert latency == pytest.approx(2.65)


def test_hawkeye_skips_zeroing_for_prezeroed_frames(kernel_hawkeye):
    proc, vma = make_proc(kernel_hawkeye)
    latency = kernel_hawkeye.fault(proc, vma.start)
    assert latency == pytest.approx(13.0)  # boot memory is pre-zeroed


def test_cow_break_on_shared_zero(kernel_hawkeye):
    proc, vma = make_proc(kernel_hawkeye)
    proc.page_table.map_base(vma.start, kernel_hawkeye.zero_registry.zero_frame,
                             shared_zero=True)
    kernel_hawkeye.zero_registry.share()
    latency = kernel_hawkeye.fault(proc, vma.start)
    assert latency == pytest.approx(kernel_hawkeye.costs.cow_fault_us)
    assert not proc.page_table.flags[vma.start] & SHARED_ZERO
    assert proc.stats.cow_faults == 1
    assert kernel_hawkeye.zero_registry.cow_faults == 1


def test_oom_raised_when_memory_exhausted():
    kernel = Kernel(small_config(mem_mb=4), Linux4KPolicy)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    with pytest.raises(OutOfMemoryError):
        for vpn in range(vma.start, vma.end):
            kernel.fault(proc, vpn)
    assert kernel.stats.oom_kills == 1


def test_fault_outside_vma_raises(kernel4k):
    proc, vma = make_proc(kernel4k)
    from repro.errors import InvalidAddressError

    with pytest.raises(InvalidAddressError):
        kernel4k.fault(proc, vma.end + 10_000)
