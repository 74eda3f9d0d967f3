"""Unit tests for the Ingens policy."""

import pytest

from repro.kernel.kernel import Kernel
from repro.policies.ingens import IngensPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config
from tests.test_fault import make_proc


def make(util=0.9, adaptive=True, rate=100.0):
    return Kernel(
        small_config(128),
        lambda k: IngensPolicy(k, util_threshold=util, adaptive=adaptive,
                               promote_per_sec=rate),
    )


def fill_region(kernel, proc, vma, hvpn_offset=0, pages=PAGES_PER_HUGE):
    base = vma.start + hvpn_offset * PAGES_PER_HUGE
    for i in range(pages):
        kernel.fault(proc, base + i)


def test_faults_always_base():
    kernel = make()
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    assert proc.stats.huge_faults == 0


def test_aggressive_phase_promotes_sparse_regions():
    """FMFI < 0.5: behave like Linux, promote at first opportunity."""
    kernel = make(util=0.9)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)  # 1/512 resident
    assert kernel.policy.current_threshold() < 0.01
    kernel.run_epochs(1)
    assert proc.page_table.region_huge(vma.start >> 9)


def test_conservative_phase_requires_utilization():
    kernel = make(util=0.9)
    kernel.fragmenter.fragment(keep_fraction=0.3)  # FMFI stays high
    assert kernel.fmfi() > 0.5
    proc, vma = make_proc(kernel)
    fill_region(kernel, proc, vma, pages=256)  # 50% utilised
    assert kernel.policy.current_threshold() == 0.9
    kernel.run_epochs(2)
    assert not proc.page_table.region_huge(vma.start >> 9)


def test_non_adaptive_always_conservative():
    kernel = make(util=0.9, adaptive=False)
    assert kernel.fmfi() < 0.5
    assert kernel.policy.current_threshold() == 0.9


def test_utilization_threshold_variants():
    """Ingens-50 promotes half-full regions that Ingens-90 refuses."""
    for util, expect_promoted in ((0.5, True), (0.9, False)):
        kernel = make(util=util, adaptive=False)
        proc, vma = make_proc(kernel)
        fill_region(kernel, proc, vma, pages=300)  # ~59% utilised
        kernel.run_epochs(2)
        assert proc.page_table.region_huge(vma.start >> 9) is expect_promoted


def test_proportional_fairness_prefers_less_served_process():
    kernel = make(util=0.5, adaptive=False, rate=1.0)
    rich, vma_r = make_proc(kernel, nbytes=8 * MB)
    poor, vma_p = make_proc(kernel, nbytes=8 * MB)
    for i in range(4):
        fill_region(kernel, rich, vma_r, hvpn_offset=i)
        fill_region(kernel, poor, vma_p, hvpn_offset=i)
    # give `rich` two huge pages up front
    kernel.promote_region(rich, vma_r.start >> 9)
    kernel.promote_region(rich, (vma_r.start >> 9) + 1)
    assert kernel.policy.promotion_metric(rich) > kernel.policy.promotion_metric(poor)
    kernel.run_epochs(1)  # budget ~2: both should go to `poor`
    assert poor.stats.promotions >= 1
    assert rich.stats.promotions == 2  # unchanged this epoch


def test_idle_penalty_lowers_priority():
    kernel = make()
    busy, vma_b = make_proc(kernel, nbytes=8 * MB)
    idle, vma_i = make_proc(kernel, nbytes=8 * MB)
    for proc, vma in ((busy, vma_b), (idle, vma_i)):
        fill_region(kernel, proc, vma)
        kernel.promote_region(proc, vma.start >> 9)
    busy.regions.idle[busy.regions.slot(vma_b.start >> 9)] = False
    idle.regions.idle[idle.regions.slot(vma_i.start >> 9)] = True
    policy = kernel.policy
    assert policy.promotion_metric(idle) > policy.promotion_metric(busy)


def test_promotion_low_va_first():
    kernel = make(util=0.5, adaptive=False, rate=1.0)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    for i in (3, 1, 0, 2):
        fill_region(kernel, proc, vma, hvpn_offset=i)
    promoted = []
    original = kernel.promote_region

    def spy(p, hvpn):
        r = original(p, hvpn)
        if r is not None:
            promoted.append(hvpn)
        return r

    kernel.promote_region = spy
    kernel.run_epochs(4)
    assert promoted == sorted(promoted)


def test_name_reflects_threshold():
    kernel = make(util=0.9)
    assert kernel.policy.name == "ingens-90"


class TestKsmCoordination:
    """§3.2: Ingens demotes only *idle* huge pages for merging."""

    def test_idle_huge_pages_demoted_under_pressure(self):
        kernel = make()
        proc, vma = make_proc(kernel, nbytes=8 * MB)
        for offset in range(2):
            fill_region(kernel, proc, vma, hvpn_offset=offset, pages=1)
            kernel.run_epochs(1)  # aggressive promote (FMFI low)
        hot, cold = (vma.start >> 9), (vma.start >> 9) + 1
        assert proc.page_table.region_huge(hot)
        assert proc.page_table.region_huge(cold)
        proc.regions.idle[proc.regions.slot(hot)] = False
        proc.regions.idle[proc.regions.slot(cold)] = True
        freed = kernel.policy.on_memory_pressure(100)
        # only the idle region was demoted; demotion itself frees nothing
        # (reclaim happens at the background merger's pace), so Ingens
        # still OOMs in Figure 1
        assert freed == 0
        assert not proc.page_table.region_huge(cold)
        assert proc.page_table.region_huge(hot)
        assert kernel.policy.demotions_for_ksm == 1

    def test_background_merger_reclaims_exposed_bloat(self):
        kernel = make()
        kernel.policy.enable_ksm(pages_per_sec=1e9)
        proc, vma = make_proc(kernel, nbytes=8 * MB)
        fill_region(kernel, proc, vma, pages=1)
        kernel.run_epochs(1)  # aggressive promotion of the sparse region
        assert proc.page_table.region_huge(vma.start >> 9)
        proc.regions.idle[proc.regions.slot(vma.start >> 9)] = True
        kernel.policy.on_memory_pressure(100)  # demote for ksm
        free_before = kernel.buddy.free_pages
        kernel.run_epochs(2)  # merger passes reclaim the zero pages
        assert kernel.buddy.free_pages > free_before + 400

    def test_pressure_with_no_idle_pages_demotes_nothing(self):
        kernel = make()
        proc, vma = make_proc(kernel)
        fill_region(kernel, proc, vma)
        kernel.run_epochs(1)
        proc.regions.idle[:] = False
        assert kernel.policy.on_memory_pressure(100) == 0
        assert kernel.policy.demotions_for_ksm == 0
