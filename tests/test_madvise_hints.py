"""Tests for per-VMA huge-page hints and khugepaged's max_ptes_none."""

import pytest

from repro.kernel.kernel import Kernel
from repro.policies.linux import LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.vma import HugePageHint
from tests.conftest import small_config
from tests.test_fault import make_proc


class TestHints:
    def test_nohugepage_forces_base_under_thp(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.madvise_hugepage(proc, "heap", HugePageHint.NEVER)
        kernel_thp.fault(proc, vma.start)
        assert proc.stats.huge_faults == 0

    def test_nohugepage_blocks_promotion(self, kernel_thp):
        proc, vma = make_proc(kernel_thp)
        kernel_thp.madvise_hugepage(proc, "heap", HugePageHint.NEVER)
        for i in range(PAGES_PER_HUGE):
            kernel_thp.fault(proc, vma.start + i)
        assert not kernel_thp.can_promote(proc, vma.start >> 9)
        kernel_thp.run_epochs(3)
        assert kernel_thp.stats.promotions == 0

    def test_hugepage_hint_overrides_base_only_policy(self, kernel4k):
        """MADV_HUGEPAGE maps huge even under a policy that prefers base."""
        proc, vma = make_proc(kernel4k)
        kernel4k.madvise_hugepage(proc, "heap", HugePageHint.ALWAYS)
        kernel4k.fault(proc, vma.start)
        assert proc.stats.huge_faults == 1

    def test_default_hint_defers_to_policy(self, kernel4k):
        proc, vma = make_proc(kernel4k)
        kernel4k.fault(proc, vma.start)
        assert proc.stats.huge_faults == 0

    def test_madvise_unknown_region_raises(self, kernel4k):
        from repro.errors import InvalidAddressError

        proc, _ = make_proc(kernel4k)
        with pytest.raises(InvalidAddressError):
            kernel4k.madvise_hugepage(proc, "nope", HugePageHint.ALWAYS)


class TestMaxPtesNone:
    def make(self, max_ptes_none):
        return Kernel(
            small_config(64),
            lambda k: LinuxTHPPolicy(k, promote_per_sec=100.0,
                                     max_ptes_none=max_ptes_none),
        )

    def fault_partial(self, kernel, resident):
        kernel.fragmenter.fragment(keep_fraction=0.02)
        proc, vma = make_proc(kernel)
        for i in range(resident):
            kernel.fault(proc, vma.start + i)
        kernel.fragmenter.release_all()
        return proc, vma

    def test_default_collapses_around_holes(self):
        kernel = self.make(511)
        proc, vma = self.fault_partial(kernel, resident=1)
        kernel.run_epochs(2)
        assert proc.page_table.region_huge(vma.start >> 9)

    def test_zero_requires_full_population(self):
        kernel = self.make(0)
        proc, vma = self.fault_partial(kernel, resident=511)
        kernel.run_epochs(2)
        assert not proc.page_table.region_huge(vma.start >> 9)
        for i in range(511, PAGES_PER_HUGE):
            kernel.fault(proc, vma.start + i)
        kernel.run_epochs(2)
        assert proc.page_table.region_huge(vma.start >> 9)

    def test_intermediate_threshold(self):
        kernel = self.make(64)
        proc, vma = self.fault_partial(kernel, resident=400)  # 112 holes > 64
        kernel.run_epochs(2)
        assert not proc.page_table.region_huge(vma.start >> 9)
        for i in range(400, 460):  # holes: 52 <= 64
            kernel.fault(proc, vma.start + i)
        kernel.run_epochs(2)
        assert proc.page_table.region_huge(vma.start >> 9)
