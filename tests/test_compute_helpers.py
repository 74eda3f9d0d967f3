"""Tests for compute-workload helpers and shared phase plumbing."""

import pytest

from repro.patterns import Pattern
from repro.units import GB, SEC
from repro.workloads.compute import ComputeWorkload, expected_overhead, seconds
from repro.workloads.microbench import SparseTouch


def test_seconds_helper():
    assert seconds(2.5) == 2.5 * SEC


def test_expected_overhead_back_of_envelope():
    """The helper must agree with the calibration notes in docs/."""
    # cg.D: rate 32, miss ~0.96 => ~39%
    assert expected_overhead(32.0) == pytest.approx(0.39, abs=0.02)
    # graph500: rate 7.5 => ~13%
    assert expected_overhead(7.5) == pytest.approx(0.13, abs=0.02)
    assert expected_overhead(0.0) == 0.0


def test_compute_workload_scales_footprint():
    wl = ComputeWorkload("x", footprint_bytes=64 * GB, work_us=1.0,
                         access_rate=1.0, scale=1 / 64)
    assert wl.footprint_bytes == 1 * GB


def test_compute_workload_phases_shape():
    wl = ComputeWorkload("x", footprint_bytes=1 * GB, work_us=5.0,
                         access_rate=1.0, hot_start=0.25, hot_len=0.5)
    init, compute = wl.build_phases()
    assert init.name == "init" and compute.name == "compute"
    assert compute.work_us == 5.0
    spec = compute.profile.specs[0]
    assert (spec.hot_start, spec.hot_len) == (0.25, 0.5)


def test_sparse_touch_generates_bloat_under_thp(kernel_thp):
    wl = SparseTouch(footprint_bytes=8 * 2 ** 20, stride_pages=8)
    run = kernel_thp.spawn(wl)
    kernel_thp.run_epochs(3)
    proc = run.proc
    # huge-at-fault maps whole regions while only 1/8 of pages are used
    assert proc.rss_pages() == 2048
    zeros = 0
    for hvpn in proc.page_table.huge_in_order().tolist():
        z, _ = kernel_thp.count_zero_pages(proc, hvpn)
        zeros += z
    assert zeros == 2048 - 256


def test_sparse_touch_no_bloat_under_4k(kernel4k):
    wl = SparseTouch(footprint_bytes=8 * 2 ** 20, stride_pages=8)
    run = kernel4k.spawn(wl)
    kernel4k.run_epochs(3)
    assert run.proc.rss_pages() == 256
