"""Unit tests for the integrated HawkEye policy."""

import pytest

from repro.core.hawkeye import HawkEyeConfig, HawkEyePolicy
from repro.kernel.kernel import Kernel
from repro.units import MB, PAGES_PER_HUGE, SEC
from repro.vm.vma import HugePageHint
from tests.conftest import small_config, spawn_simple
from tests.test_fault import make_proc


def make(variant="g", promote_per_sec=100.0, **overrides):
    return Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(
            k, variant=variant, promote_per_sec=promote_per_sec,
            prezero_pages_per_sec=1e6, **overrides
        ),
    )


def test_config_and_overrides_exclusive():
    kernel = make()
    with pytest.raises(ValueError):
        HawkEyePolicy(kernel, HawkEyeConfig(), variant="pmu")


def test_name_reflects_variant():
    assert make("g").policy.name == "hawkeye-g"
    assert make("pmu").policy.name == "hawkeye-pmu"


def test_huge_fault_without_sync_zeroing():
    kernel = make()
    kernel.run_epochs(2)  # pre-zero boot memory (already zero, no-op)
    proc, vma = make_proc(kernel)
    latency = kernel.fault(proc, vma.start)
    assert latency == pytest.approx(13.0)


def test_huge_faults_disabled_variant():
    kernel = make(huge_faults=False)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    assert proc.stats.huge_faults == 0


def test_sampling_populates_access_map():
    # tiny promotion budget so the sampled candidates are still visible
    kernel = make(promote_per_sec=0.001)
    kernel.fragmenter.fragment(keep_fraction=0.02)  # force base mappings
    run = spawn_simple(kernel, heap_mb=8, work_s=600.0)
    kernel.run_epochs(31)
    amap = kernel.policy.access_maps.get(run.proc.pid)
    assert amap is not None and len(amap) > 0


def test_promotion_happens_after_sampling():
    kernel = make()
    kernel.fragmenter.fragment(keep_fraction=0.02)
    run = spawn_simple(kernel, heap_mb=8, work_s=600.0)
    kernel.run_epochs(2)  # allocation faults land while fragmented
    assert run.proc.stats.huge_faults == 0
    kernel.fragmenter.release_all()  # contiguity returns
    kernel.run_epochs(40)
    assert run.proc.stats.promotions > 0


def test_memory_pressure_triggers_emergency_recovery():
    kernel = Kernel(
        small_config(16),
        lambda k: HawkEyePolicy(k, variant="g", prezero_pages_per_sec=1e6),
    )
    proc, vma = make_proc(kernel, nbytes=14 * MB)
    # fill memory with mostly-bloat huge pages
    for hvpn in range(vma.start >> 9, (vma.end >> 9)):
        kernel.fault(proc, hvpn << 9)
        block = int(proc.page_table.hframe[hvpn])
        kernel.frames.write(block, first_nonzero=0)
    # now allocate beyond free memory from a second process: the policy
    # must free bloat rather than OOM
    proc2, vma2 = make_proc(kernel, nbytes=4 * MB)
    for vpn in range(vma2.start, vma2.start + 600):
        kernel.fault(proc2, vpn)
    assert proc2.rss_pages() == 600
    assert kernel.stats.bloat_pages_recovered > 0
    assert kernel.stats.oom_kills == 0


def test_estimated_overhead_g_uses_access_map():
    kernel = make("g")
    proc, vma = make_proc(kernel)
    policy = kernel.policy
    assert policy.estimated_overhead(proc) == 0.0
    from repro.core.access_map import AccessMap

    amap = AccessMap()
    for r in range(20):
        amap.update(r, 480)
    policy.access_maps[proc.pid] = amap
    assert policy.estimated_overhead(proc) > 0.8


def test_estimated_overhead_pmu_uses_counters():
    kernel = make("pmu")
    proc, vma = make_proc(kernel)
    kernel.pmu[proc.pid].record(400.0, 1000.0)
    kernel.run_epochs(1)
    assert kernel.policy.estimated_overhead(proc) == pytest.approx(0.2, abs=0.01)
    kernel.run_epochs(3)  # EMA converges toward the 0.4 interval reading
    # no new activity: samples decay toward zero
    assert kernel.policy.estimated_overhead(proc) < 0.2


def test_bloat_demoted_flag_cleared_on_reuse():
    kernel = make()
    proc, vma = make_proc(kernel)
    vma.hint = HugePageHint.NEVER  # five base faults, no huge fault
    kernel.fault_range(proc, vma.start, 5)
    hvpn = vma.start >> 9
    table, slot = proc.regions, proc.regions.slot(hvpn)
    assert proc.page_table.region_resident(hvpn) == 5
    assert not proc.page_table.region_huge(hvpn)
    table.bloat_demoted[slot] = True
    table.last_coverage[slot] = 40
    kernel.policy.on_sample(proc)
    assert not table.bloat_demoted[slot]


def test_process_exit_cleans_state():
    kernel = make()
    proc, vma = make_proc(kernel)
    kernel.policy.access_maps[proc.pid] = object.__new__(
        __import__("repro.core.access_map", fromlist=["AccessMap"]).AccessMap
    )
    kernel.policy.measured[proc.pid] = 0.5
    kernel.policy.on_process_exit(proc)
    assert proc.pid not in kernel.policy.access_maps
    assert proc.pid not in kernel.policy.measured
