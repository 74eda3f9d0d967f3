"""Edge cases and failure injection across the kernel stack."""

import pytest

from repro.errors import AllocationError, InvalidAddressError, OutOfMemoryError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE, SEC
from repro.workloads.base import MmapOp, Phase, TouchOp, Workload
from tests.conftest import small_config
from tests.test_fault import make_proc


class TestTinyMachines:
    def test_kernel_with_minimal_memory(self):
        # 4 MB: one order-10 block; the zero page takes one frame
        kernel = Kernel(small_config(4), Linux4KPolicy)
        assert kernel.buddy.free_pages == 1023

    def test_huge_fault_without_contiguity_falls_back(self):
        kernel = Kernel(small_config(8), lambda k: LinuxTHPPolicy(k, khugepaged=False))
        # consume every order-9-capable block so only smaller ones remain
        while kernel.buddy.try_alloc(order=9, owner=-9) is not None:
            pass
        proc, vma = make_proc(kernel, nbytes=2 * MB)
        kernel.fault(proc, vma.start)
        assert proc.stats.huge_faults == 0
        assert proc.page_table.translate(vma.start) is not None


class TestWorkloadEdges:
    def test_empty_phase_list_finishes_immediately(self, kernel4k):
        class Empty(Workload):
            name = "empty"

            def build_phases(self):
                return []

        run = kernel4k.spawn(Empty())
        kernel4k.run_epochs(1)
        assert run.finished

    def test_zero_page_touch(self, kernel4k):
        class Zero(Workload):
            name = "zero"

            def build_phases(self):
                return [Phase("a", ops=[MmapOp("h", 4096), TouchOp("h", npages=0)])]

        run = kernel4k.spawn(Zero())
        kernel4k.run_epochs(2)
        assert run.finished
        assert run.proc.stats.faults == 0

    def test_touch_beyond_vma_raises(self, kernel4k):
        class Overrun(Workload):
            name = "overrun"

            def build_phases(self):
                return [Phase("a", ops=[MmapOp("h", 1 * MB),
                                        TouchOp("h", start_page=200, npages=100)])]

        kernel4k.spawn(Overrun())
        with pytest.raises(InvalidAddressError):
            kernel4k.run_epochs(2)

    def test_multiple_vmas_get_guard_gaps(self, kernel4k):
        proc, _ = make_proc(kernel4k, nbytes=1 * MB)
        vma2 = kernel4k.mmap(proc, 1 * MB, "second")
        vmas = list(proc.vmas)
        assert len(vmas) == 2
        # no two VMAs may share a huge region (guard gap invariant)
        assert (vmas[0].end - 1) >> 9 < vmas[1].start >> 9


class TestMadviseEdges:
    def test_madvise_empty_range_noop(self, kernel4k):
        proc, vma = make_proc(kernel4k)
        kernel4k.madvise_free(proc, vma.start, 0)
        assert proc.rss_pages() == 0

    def test_madvise_unmapped_range_noop(self, kernel4k):
        proc, vma = make_proc(kernel4k)
        cost = kernel4k.madvise_free(proc, vma.start, 100)
        assert proc.rss_pages() == 0
        assert cost == 0.0

    def test_madvise_spanning_huge_boundary(self, kernel_thp):
        proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
        kernel_thp.fault(proc, vma.start)
        kernel_thp.fault(proc, vma.start + PAGES_PER_HUGE)
        # free a range straddling the two huge regions
        kernel_thp.madvise_free(proc, vma.start + 500, 24)
        assert kernel_thp.stats.demotions == 2
        assert proc.page_table.translate(vma.start + 510) is None
        assert proc.page_table.translate(vma.start + 515) is None
        assert proc.page_table.translate(vma.start) is not None

    def test_double_madvise_idempotent(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        kernel_thp.madvise_free(proc, vma.start, 512)
        free_after_first = kernel_thp.buddy.free_pages
        kernel_thp.madvise_free(proc, vma.start, 512)
        assert kernel_thp.buddy.free_pages == free_after_first


class TestPromotionEdges:
    def test_promote_twice_fails_second_time(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        assert kernel_thp.promote_region(proc, vma.start >> 9) is None

    def test_demote_then_partial_free_then_promote(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        hvpn = vma.start >> 9
        kernel_thp.demote_region(proc, hvpn)
        kernel_thp.madvise_free(proc, vma.start, 10)
        # collapse must refill the freed holes with zero pages
        cost = kernel_thp.promote_region(proc, hvpn)
        assert cost is not None
        zeros, _ = kernel_thp.count_zero_pages(proc, hvpn)
        assert zeros >= 10

    def test_promotion_with_memory_full_fails_gracefully(self):
        kernel = Kernel(small_config(4), lambda k: LinuxTHPPolicy(k, khugepaged=False))
        proc, vma = make_proc(kernel, nbytes=2 * MB)
        for i in range(300):
            kernel.fault(proc, vma.start + i)
        # eat the remaining memory so collapse cannot allocate a block
        hog, hog_vma = make_proc(kernel, nbytes=4 * MB)
        taken = 0
        for vpn in range(hog_vma.start, hog_vma.end):
            try:
                kernel.fault(hog, vpn)
                taken += 1
            except OutOfMemoryError:
                break
        assert kernel.promote_region(proc, vma.start >> 9) is None
        assert proc.page_table.translate(vma.start) is not None, "mappings intact after failure"


class TestSwapEdges:
    def test_swap_disabled_by_default(self, kernel4k):
        assert kernel4k.swap is None

    def test_zero_capacity_swap_oomes(self):
        kernel = Kernel(KernelConfig(mem_bytes=4 * MB, swap_bytes=0), Linux4KPolicy)
        proc, vma = make_proc(kernel, nbytes=8 * MB)
        with pytest.raises(OutOfMemoryError):
            for vpn in range(vma.start, vma.end):
                kernel.fault(proc, vpn)


class TestBuddyEdges:
    def test_single_frame_machine(self):
        from repro.mem.buddy import BuddyAllocator
        from repro.mem.frames import FrameTable

        buddy = BuddyAllocator(FrameTable(1))
        start, zeroed = buddy.alloc(0)
        assert start == 0 and zeroed
        assert buddy.try_alloc(0) is None
        buddy.free(0, 0)
        assert buddy.free_pages == 1

    def test_carve_empty_range(self):
        from repro.mem.buddy import BuddyAllocator
        from repro.mem.frames import FrameTable

        buddy = BuddyAllocator(FrameTable(1024))
        while buddy.try_alloc(0) is not None:
            pass
        assert buddy.carve_range(0, 512) == []
