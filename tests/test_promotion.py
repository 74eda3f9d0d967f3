"""Unit tests for the cross-process promotion engine (§3.4)."""

import pytest

from repro.core.access_map import AccessMap
from repro.core.promotion import PromotionEngine
from repro.kernel.kernel import Kernel
from repro.policies.linux import LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config
from tests.test_fault import make_proc


def make_kernel():
    # khugepaged off: only the engine under test promotes
    return Kernel(small_config(128), lambda k: LinuxTHPPolicy(k, khugepaged=False))


def resident_proc(kernel, nregions=4, nbytes=16 * MB, name="p"):
    """Process with base-mapped regions (fragmented-at-alloc shape)."""
    kernel.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel, nbytes=nbytes)
    proc.name = name
    for r in range(nregions):
        base = vma.start + r * PAGES_PER_HUGE
        for i in range(PAGES_PER_HUGE):
            kernel.fault(proc, base + i)
    kernel.fragmenter.release_all()
    return proc, vma


def engine_for(kernel, maps, variant="g", measured=None, rate=100.0):
    measured = measured or {}
    return PromotionEngine(
        kernel,
        maps,
        promote_per_sec=rate,
        variant=variant,
        measured_overhead=lambda proc: measured.get(proc.name, 0.0),
    )


def test_invalid_variant_rejected():
    kernel = make_kernel()
    with pytest.raises(ValueError):
        PromotionEngine(kernel, {}, variant="bogus")


def test_g_promotes_hottest_bucket_first():
    kernel = make_kernel()
    proc, vma = resident_proc(kernel)
    amap = AccessMap()
    hvpn0 = vma.start >> 9
    amap.update(hvpn0 + 0, 30)    # cold
    amap.update(hvpn0 + 1, 480)   # hot
    amap.update(hvpn0 + 2, 250)   # warm
    engine = engine_for(kernel, {proc.pid: amap}, rate=1.0)
    engine.run_epoch()
    assert proc.page_table.region_huge(hvpn0 + 1)
    assert not proc.page_table.region_huge(hvpn0 + 0)


def test_g_round_robin_at_same_level():
    kernel = make_kernel()
    a, vma_a = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="a")
    b, vma_b = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="b")
    maps = {}
    for proc, vma in ((a, vma_a), (b, vma_b)):
        amap = AccessMap()
        for r in range(2):
            amap.update((vma.start >> 9) + r, 480)
        maps[proc.pid] = amap
    engine = engine_for(kernel, maps, rate=2.0)
    engine.run_epoch()  # budget 2 at the same bucket: one promotion each
    assert a.stats.promotions == 1
    assert b.stats.promotions == 1


def test_pmu_prefers_highest_measured_overhead():
    kernel = make_kernel()
    light, vma_l = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="light")
    heavy, vma_h = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="heavy")
    maps = {}
    for proc, vma in ((light, vma_l), (heavy, vma_h)):
        amap = AccessMap()
        for r in range(2):
            amap.update((vma.start >> 9) + r, 480)
        maps[proc.pid] = amap
    engine = engine_for(kernel, maps, variant="pmu",
                        measured={"light": 0.05, "heavy": 0.40}, rate=2.0)
    engine.run_epoch()
    assert heavy.stats.promotions == 2
    assert light.stats.promotions == 0


def test_pmu_stops_below_threshold():
    """Figure 5 (right): PMU stops promoting under 2% measured overhead."""
    kernel = make_kernel()
    proc, vma = resident_proc(kernel, nregions=2, nbytes=8 * MB)
    amap = AccessMap()
    amap.update(vma.start >> 9, 480)
    engine = engine_for(kernel, {proc.pid: amap}, variant="pmu",
                        measured={"p": 0.01}, rate=100.0)
    assert engine.run_epoch() == 0
    assert proc.stats.promotions == 0


def test_stale_entries_cleaned_up():
    kernel = make_kernel()
    proc, vma = resident_proc(kernel, nregions=1, nbytes=8 * MB)
    amap = AccessMap()
    hvpn = vma.start >> 9
    amap.update(hvpn, 480)
    kernel.promote_region(proc, hvpn)  # promoted behind the engine's back
    amap.update(hvpn + 100, 300)       # nonexistent region
    engine = engine_for(kernel, {proc.pid: amap}, rate=10.0)
    engine.run_epoch()
    assert hvpn not in amap
    assert hvpn + 100 not in amap


def test_rate_limit_respected():
    kernel = make_kernel()
    proc, vma = resident_proc(kernel, nregions=8, nbytes=32 * MB)
    amap = AccessMap()
    for r in range(8):
        amap.update((vma.start >> 9) + r, 480)
    engine = engine_for(kernel, {proc.pid: amap}, rate=3.0)
    done = engine.run_epoch()
    assert done <= 6  # 3/s with up to 2 epochs of carryover


def test_failed_promotion_does_not_burn_budget(monkeypatch):
    """A candidate that fails promote_region must not charge the limiter.

    Regression: the limiter used to be charged before promote_region, so
    a failing pick burned the epoch's budget and starved real candidates.
    """
    kernel = make_kernel()
    proc, vma = resident_proc(kernel, nregions=2, nbytes=8 * MB)
    hvpn = vma.start >> 9
    amap = AccessMap()
    amap.update(hvpn, 480)      # hottest: picked first, made to fail
    amap.update(hvpn + 1, 250)  # the real candidate
    engine = engine_for(kernel, {proc.pid: amap}, rate=1.0)
    real_promote = kernel.promote_region

    def flaky(p, h):
        return None if h == hvpn else real_promote(p, h)

    monkeypatch.setattr(kernel, "promote_region", flaky)
    assert engine.run_epoch() == 1, "budget of 1 must survive the failed pick"
    assert proc.page_table.region_huge(hvpn + 1)
    assert hvpn not in amap, "failed candidate dropped from the map"


def test_cleanup_pick_preserves_round_robin():
    """A stale-bucket cleanup pick must count as serving that process.

    Regression: the fallback path in _pick_g bypassed _rr_last_pid, so a
    cleanup pick reset round-robin fairness to the head of the process
    list and the same process was served twice in a row.
    """
    kernel = make_kernel()
    a, vma_a = resident_proc(kernel, nregions=3, nbytes=8 * MB, name="a")
    b, vma_b = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="b")
    a_h, b_h = vma_a.start >> 9, vma_b.start >> 9
    kernel.promote_region(a, a_h)  # promoted behind the engine's back
    amap_a, amap_b = AccessMap(), AccessMap()
    amap_a.update(a_h, 480)        # top bucket: stale entry only
    amap_a.update(a_h + 1, 250)
    amap_a.update(a_h + 2, 250)
    amap_b.update(b_h, 250)
    amap_b.update(b_h + 1, 250)
    engine = engine_for(kernel, {a.pid: amap_a, b.pid: amap_b}, rate=2.0)
    engine.run_epoch()
    # pick 1 is a cleanup pick serving A; pick 2 must round-robin to B.
    assert b.stats.promotions == 1
    assert a.stats.promotions == 2  # the behind-the-back one + pick 1


def test_pmu_fallback_pick_records_round_robin():
    """_pick_pmu's below-tie fallback must record the served pid too."""
    kernel = make_kernel()
    heavy, _ = resident_proc(kernel, nregions=1, nbytes=8 * MB, name="heavy")
    l1, vma1 = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="l1")
    l2, vma2 = resident_proc(kernel, nregions=2, nbytes=8 * MB, name="l2")
    maps = {heavy.pid: AccessMap()}  # nothing promotable for heavy
    for proc, vma in ((l1, vma1), (l2, vma2)):
        amap = AccessMap()
        for r in range(2):
            amap.update((vma.start >> 9) + r, 480)
        maps[proc.pid] = amap
    measured = {"heavy": 0.40, "l1": 0.10, "l2": 0.10}
    engine = engine_for(kernel, maps, variant="pmu", measured=measured, rate=1.0)
    engine.run_epoch()  # heavy tied alone, empty -> fallback serves l1
    assert l1.stats.promotions == 1
    measured["heavy"] = 0.0  # drops below the stop threshold
    engine.run_epoch()  # tie {l1, l2}: round-robin must resume after l1
    assert l2.stats.promotions == 1, "fallback pick reset round-robin"
    assert l1.stats.promotions == 1


def test_skip_bloat_demoted_during_pressure():
    kernel = make_kernel()
    proc, vma = resident_proc(kernel, nregions=2, nbytes=8 * MB)
    hvpn = vma.start >> 9
    amap = AccessMap()
    amap.update(hvpn, 480)
    amap.update(hvpn + 1, 480)
    proc.regions.bloat_demoted[proc.regions.slot(hvpn)] = True
    engine = PromotionEngine(
        kernel, {proc.pid: amap}, promote_per_sec=10.0, variant="g",
        skip_bloat_demoted=lambda: True,
    )
    engine.run_epoch()
    assert not proc.page_table.region_huge(hvpn), "bloat-demoted region spared"
    assert proc.page_table.region_huge(hvpn + 1)
