"""Unit tests for kernel mechanisms: promotion, demotion, dedup, madvise."""

import pytest

from repro.errors import InvalidAddressError
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import spawn_simple
from tests.test_fault import make_proc


def touch_region(kernel, proc, vma, n=PAGES_PER_HUGE):
    for vpn in range(vma.start, vma.start + n):
        kernel.fault(proc, vpn)


class TestPromotion:
    def test_in_place_promotion_of_demoted_region(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)  # huge fault
        hvpn = vma.start >> 9
        kernel_thp.demote_region(proc, hvpn)
        assert not proc.page_table.region_huge(hvpn)
        cost = kernel_thp.promote_region(proc, hvpn)
        assert cost == pytest.approx(kernel_thp.costs.remap_us)
        assert kernel_thp.stats.inplace_promotions == 1
        assert proc.page_table.region_huge(hvpn)

    def test_collapse_promotion_copies_and_zero_fills(self, kernel4k):
        proc, vma = make_proc(kernel4k)
        # fault only half the region with base pages
        touch_region(kernel4k, proc, vma, n=256)
        frame = int(proc.page_table.frame[vma.start])
        kernel4k.frames.write(frame, first_nonzero=3, tag=777)
        hvpn = vma.start >> 9
        cost = kernel4k.promote_region(proc, hvpn)
        assert cost is not None and cost > kernel4k.costs.remap_us
        assert kernel4k.stats.collapse_promotions == 1
        block = int(proc.page_table.hframe[hvpn])
        # copied page keeps its content, the rest is zero-filled (bloat!)
        assert kernel4k.frames.content_tag[block] == 777
        assert kernel4k.frames.is_zero(block + 300)
        # only one page holds data; the 511 others (255 never-written
        # touched pages + 256 zero-filled by collapse) are zero
        zeros, _ = kernel4k.count_zero_pages(proc, hvpn)
        assert zeros == 511

    def test_promotion_requires_residency(self, kernel4k):
        proc, vma = make_proc(kernel4k)
        assert kernel4k.promote_region(proc, vma.start >> 9) is None

    def test_promotion_charges_stall_to_process(self, kernel4k):
        proc, vma = make_proc(kernel4k)
        touch_region(kernel4k, proc, vma)
        proc.fault_time_epoch_us = 0.0
        kernel4k.promote_region(proc, vma.start >> 9)
        assert proc.fault_time_epoch_us == pytest.approx(
            kernel4k.costs.promotion_stall_us
        )


class TestDemotionAndDedup:
    def test_demote_breaks_mapping_not_frames(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        hvpn = vma.start >> 9
        block = int(proc.page_table.hframe[hvpn])
        kernel_thp.demote_region(proc, hvpn)
        assert proc.page_table.translate(vma.start + 5) == (block + 5, False)
        assert kernel_thp.stats.demotions == 1

    def test_dedup_zero_pages_recover_memory(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)  # huge-mapped, all zero content
        hvpn = vma.start >> 9
        # application wrote into 10 pages only
        block = int(proc.page_table.hframe[hvpn])
        for i in range(10):
            kernel_thp.frames.write(block + i, first_nonzero=0)
        free_before = kernel_thp.buddy.free_pages
        kernel_thp.demote_region(proc, hvpn)
        recovered, scanned = kernel_thp.dedup_zero_pages(proc, hvpn)
        assert recovered == PAGES_PER_HUGE - 10
        assert kernel_thp.buddy.free_pages == free_before + recovered
        # RSS excludes the shared-zero mappings now
        assert proc.rss_pages() == 10
        # but the pages are still mapped (reads hit the zero frame)
        assert proc.page_table.translate(vma.start + 500) is not None

    def test_dedup_scan_cost_proportional_to_bloat(self, kernel_thp):
        """§3.2: in-use pages cost ~10 bytes, bloat pages 4096."""
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        hvpn = vma.start >> 9
        block = int(proc.page_table.hframe[hvpn])
        for i in range(500):  # 500 in-use, 12 bloat pages
            kernel_thp.frames.write(block + i, first_nonzero=9)
        kernel_thp.demote_region(proc, hvpn)
        _, scanned = kernel_thp.dedup_zero_pages(proc, hvpn)
        assert scanned == 500 * 10 + 12 * 4096


class TestMadvise:
    def test_madvise_breaks_huge_and_frees(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        free_before = kernel_thp.buddy.free_pages
        kernel_thp.madvise_free(proc, vma.start, 100)
        assert kernel_thp.buddy.free_pages == free_before + 100
        hvpn = vma.start >> 9
        assert not proc.page_table.region_huge(hvpn)
        assert proc.page_table.region_resident(hvpn) == PAGES_PER_HUGE - 100
        assert proc.page_table.translate(vma.start + 50) is None
        assert proc.page_table.translate(vma.start + 200) is not None

    def test_madvised_frames_land_on_dirty_lists(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.fault(proc, vma.start)
        block = int(proc.page_table.hframe[vma.start >> 9])
        for i in range(100):
            kernel_thp.frames.write(block + i, first_nonzero=0)
        zeroed_before = kernel_thp.buddy.free_zeroed_pages()
        kernel_thp.madvise_free(proc, vma.start, 100)
        # freed dirty pages must not appear on the zero lists
        assert kernel_thp.buddy.free_zeroed_pages() == zeroed_before


class TestEpochLoop:
    def test_run_completes_workload(self, kernel_hawkeye):
        run = spawn_simple(kernel_hawkeye, heap_mb=8, work_s=3.0)
        epochs = kernel_hawkeye.run(max_epochs=100)
        assert run.finished
        assert epochs < 100
        assert kernel_hawkeye.stats.epochs == epochs

    def test_sampler_updates_region_coverage(self, kernel_hawkeye):
        run = spawn_simple(kernel_hawkeye, heap_mb=8, work_s=120.0)
        kernel_hawkeye.run_epochs(31)
        proc = run.proc
        sampled = proc.regions.coverage_ema[:proc.regions.n] > 0
        assert sampled.any(), "30-second sampling must have recorded coverage"

    def test_epoch_hooks_called(self, kernel4k):
        seen = []
        kernel4k.epoch_hooks.append(lambda k: seen.append(k.stats.epochs))
        kernel4k.run_epochs(3)
        assert seen == [1, 2, 3]

    def test_allocated_fraction_and_fmfi(self, kernel4k):
        assert kernel4k.allocated_fraction() < 0.01
        # the reserved zero frame breaks exactly one order-10 block
        assert kernel4k.fmfi() < 0.05


class TestConfigValidation:
    def test_rejects_tiny_memory(self):
        from repro.errors import ConfigError
        from repro.kernel.kernel import KernelConfig

        with pytest.raises(ConfigError):
            KernelConfig(mem_bytes=1024)

    def test_rejects_bad_epoch(self):
        from repro.errors import ConfigError
        from repro.kernel.kernel import KernelConfig

        with pytest.raises(ConfigError):
            KernelConfig(mem_bytes=64 * MB, epoch_us=0)

    def test_rejects_bad_alpha(self):
        from repro.errors import ConfigError
        from repro.kernel.kernel import KernelConfig

        with pytest.raises(ConfigError):
            KernelConfig(mem_bytes=64 * MB, ema_alpha=1.5)

    def test_rejects_negative_swap(self):
        from repro.errors import ConfigError
        from repro.kernel.kernel import KernelConfig

        with pytest.raises(ConfigError):
            KernelConfig(mem_bytes=64 * MB, swap_bytes=-1)

    def test_rejects_zero_sample_period(self):
        from repro.errors import ConfigError
        from repro.kernel.kernel import KernelConfig

        with pytest.raises(ConfigError):
            KernelConfig(mem_bytes=64 * MB, sample_period=0)


class TestRmapCheck:
    """``check_rmap`` holds through the mechanisms and catches corruption."""

    def _setup(self, kernel):
        proc, vma = make_proc(kernel, nbytes=4 * MB)
        kernel.fault_range(proc, vma.start, 600)
        kernel.promote_region(proc, vma.start >> 9)
        kernel.madvise_free(proc, vma.start + 520, 10)
        kernel.check_rmap()
        return proc, vma

    def test_missing_entry(self, kernel4k):
        proc, vma = self._setup(kernel4k)
        frame, _ = proc.page_table.translate(vma.start + 530)
        kernel4k.rmap_remove(frame)
        with pytest.raises(InvalidAddressError):
            kernel4k.check_rmap()

    def test_stale_entry(self, kernel4k):
        proc, vma = self._setup(kernel4k)
        kernel4k.rmap_add(kernel4k.buddy.alloc(0)[0], proc, vma.start + 1000)
        with pytest.raises(InvalidAddressError):
            kernel4k.check_rmap()

    def test_wrong_vpn(self, kernel4k):
        proc, vma = self._setup(kernel4k)
        frame, _ = proc.page_table.translate(vma.start + 530)
        kernel4k.rmap_vpn[frame] += 1
        with pytest.raises(InvalidAddressError):
            kernel4k.check_rmap()

    def test_duplicate_seq(self, kernel4k):
        proc, vma = self._setup(kernel4k)
        a, _ = proc.page_table.translate(vma.start + 530)
        b, _ = proc.page_table.translate(vma.start + 531)
        kernel4k.rmap_seq[b] = kernel4k.rmap_seq[a]
        with pytest.raises(InvalidAddressError):
            kernel4k.check_rmap()

    def test_huge_head_missing(self, kernel4k):
        proc, vma = self._setup(kernel4k)
        kernel4k.rmap_remove_huge(int(proc.page_table.hframe[vma.start >> 9]))
        with pytest.raises(InvalidAddressError):
            kernel4k.check_rmap()
