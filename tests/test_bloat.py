"""Unit tests for bloat recovery (§3.2)."""

import pytest

from repro.core.bloat import BloatRecovery
from repro.kernel.kernel import Kernel
from repro.mem.watermarks import Watermarks
from repro.policies.linux import LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config
from tests.test_fault import make_proc


def make(mem_mb=64):
    kernel = Kernel(small_config(mem_mb), lambda k: LinuxTHPPolicy(k, khugepaged=False))
    return kernel


def bloated_proc(kernel, regions=4, used_per_region=8, nbytes=16 * MB):
    """A process with huge pages that are mostly zero-filled bloat."""
    proc, vma = make_proc(kernel, nbytes=nbytes)
    for r in range(regions):
        vpn = vma.start + r * PAGES_PER_HUGE
        kernel.fault(proc, vpn)  # huge fault maps 512 zeroed pages
        block = int(proc.page_table.hframe[vpn >> 9])
        for i in range(used_per_region):
            kernel.frames.write(block + i, first_nonzero=9)
    return proc, vma


def recovery(kernel, overheads=None, **kw):
    overheads = overheads or {}
    return BloatRecovery(
        kernel,
        overhead_of=lambda proc: overheads.get(proc.name, 0.0),
        **kw,
    )


def test_inactive_below_watermark():
    kernel = make(mem_mb=256)
    bloated_proc(kernel)
    thread = recovery(kernel, scan_pages_per_sec=1e9)
    assert thread.run_epoch() == 0
    assert not thread.active


def test_recovers_when_watermark_crossed():
    kernel = make(mem_mb=16)  # 7 bloat regions = ~88% of memory
    proc, vma = bloated_proc(kernel, regions=7, nbytes=16 * MB)
    assert kernel.allocated_fraction() > 0.85
    thread = recovery(kernel, scan_pages_per_sec=1e9)
    recovered = thread.run_epoch()
    assert recovered > 0
    assert kernel.stats.bloat_pages_recovered == recovered
    # demoted regions are marked to avoid promote/demote thrash
    assert proc.regions.bloat_demoted[:proc.regions.n].any()


def test_recovery_stops_at_low_watermark():
    kernel = make(mem_mb=32)
    bloated_proc(kernel, regions=8, nbytes=16 * MB)
    thread = recovery(kernel, scan_pages_per_sec=1e9)
    thread.run_epoch()
    assert kernel.allocated_fraction() < 0.70
    # yet not everything was demoted unnecessarily
    assert thread.watermarks.active is False


def test_zero_threshold_spares_dense_regions():
    kernel = make(mem_mb=16)
    proc, vma = bloated_proc(kernel, regions=3, nbytes=8 * MB)
    # make one region dense (>50% written)
    dense_hvpn = vma.start >> 9
    block = int(proc.page_table.hframe[dense_hvpn])
    for i in range(300):
        kernel.frames.write(block + i, first_nonzero=9)
    thread = recovery(kernel, scan_pages_per_sec=1e9, zero_threshold=0.5)
    thread.run_epoch()
    assert proc.page_table.region_huge(dense_hvpn), "dense huge page must survive"


def test_victim_order_lowest_overhead_first():
    kernel = make(mem_mb=32)
    light, vma_l = bloated_proc(kernel, regions=2, nbytes=8 * MB)
    light.name = "light"
    heavy, vma_h = bloated_proc(kernel, regions=2, nbytes=8 * MB)
    heavy.name = "heavy"
    thread = recovery(kernel, overheads={"light": 0.01, "heavy": 0.4},
                      scan_pages_per_sec=PAGES_PER_HUGE * 2.0,
                      watermarks=Watermarks(high=0.2, low=0.05))
    thread.run_epoch()  # budget: scan ~2 regions, all from `light`
    assert light.stats.demotions > 0
    assert heavy.stats.demotions == 0


def test_emergency_ignores_rate_limit():
    kernel = make(mem_mb=32)
    proc, _ = bloated_proc(kernel, regions=6, nbytes=16 * MB)
    thread = recovery(kernel, scan_pages_per_sec=1.0)
    freed = thread.emergency(pages_needed=600)
    assert freed >= 600


def test_scan_cost_charged():
    kernel = make(mem_mb=16)
    bloated_proc(kernel, regions=7, nbytes=16 * MB)
    thread = recovery(kernel, scan_pages_per_sec=1e9)
    thread.run_epoch()
    assert kernel.stats.bloat_cpu_us > 0
    assert kernel.stats.bloat_scan_bytes > 0
