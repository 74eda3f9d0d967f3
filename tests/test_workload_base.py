"""Unit tests for the workload framework (ops, phases, executor)."""

import pytest

from repro.patterns import Pattern
from repro.units import MB, PAGES_PER_HUGE, SEC
from repro.workloads.base import (
    AccessProfile,
    ContentSpec,
    FreeOp,
    MmapOp,
    Phase,
    RegionAccessSpec,
    SleepOp,
    TouchOp,
    Workload,
)


class ListWorkload(Workload):
    name = "listed"

    def __init__(self, phases):
        self._phases = phases

    def build_phases(self):
        return self._phases


def run_workload(kernel, phases, max_epochs=300):
    run = kernel.spawn(ListWorkload(phases))
    kernel.run(max_epochs=max_epochs)
    return run


class TestOps:
    def test_mmap_then_touch(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[MmapOp("heap", 4 * MB), TouchOp("heap")]),
        ])
        assert run.finished
        assert run.proc.rss_pages() == 1024

    def test_touch_stride_skips_pages(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[MmapOp("heap", 4 * MB), TouchOp("heap", stride_pages=4)]),
        ])
        assert run.proc.rss_pages() == 256

    def test_touch_content_written(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[
                MmapOp("heap", 1 * MB),
                TouchOp("heap", content=ContentSpec(first_nonzero=5)),
            ]),
        ])
        frame = int(run.proc.page_table.frame[run.vma("heap").start])
        assert kernel4k.frames.first_nonzero[frame] == 5

    def test_touch_zero_content(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[
                MmapOp("heap", 1 * MB),
                TouchOp("heap", content=ContentSpec(zero=True)),
            ]),
        ])
        frame = int(run.proc.page_table.frame[run.vma("heap").start])
        assert kernel4k.frames.is_zero(frame)

    def test_touch_rate_limit_paces_faults(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[
                MmapOp("heap", 4 * MB),
                TouchOp("heap", rate_pages_per_sec=256.0),
            ]),
        ], max_epochs=10)
        # 1024 pages at 256/s: takes about 4 seconds of simulated time
        assert run.elapsed_us == pytest.approx(4 * SEC, rel=0.5)

    def test_free_op_releases(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[
                MmapOp("heap", 4 * MB),
                TouchOp("heap"),
                FreeOp("heap", npages=512),
            ]),
        ])
        assert run.proc.rss_pages() == 512

    def test_sparse_free(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[
                MmapOp("heap", 4 * MB),
                TouchOp("heap"),
                FreeOp("heap", sparse_fraction=0.5, seed=3),
            ]),
        ])
        assert run.proc.rss_pages() == pytest.approx(512, rel=0.15)

    def test_sleep_op_consumes_wall_time(self, kernel4k):
        run = run_workload(kernel4k, [
            Phase("a", ops=[SleepOp(3 * SEC)]),
        ], max_epochs=10)
        assert run.elapsed_us == pytest.approx(3 * SEC, abs=1.1 * SEC)


class TestPhases:
    def test_work_and_duration_exclusive(self):
        with pytest.raises(ValueError):
            Phase("bad", work_us=1.0, duration_us=1.0)

    def test_work_retired_across_epochs(self, kernel4k):
        run = run_workload(kernel4k, [Phase("w", work_us=2.5 * SEC)], max_epochs=10)
        assert run.finished
        assert run.elapsed_us == pytest.approx(3 * SEC, abs=0.1 * SEC)

    def test_mmu_overhead_slows_progress(self, kernel4k):
        profile = AccessProfile(
            specs=[RegionAccessSpec("heap", coverage=512)], access_rate=30.0
        )
        phases = [
            Phase("alloc", ops=[MmapOp("heap", 16 * MB), TouchOp("heap")]),
            Phase("compute", work_us=10 * SEC, profile=profile),
        ]
        run = run_workload(kernel4k, phases, max_epochs=100)
        # at ~37% overhead, 10s of work takes ~16 wall seconds
        assert run.proc.mmu_overhead > 0.3
        assert run.elapsed_us > 14 * SEC

    def test_serving_counts_requests(self, kernel4k):
        phases = [
            Phase("serve", duration_us=5 * SEC,
                  request_rate=1000.0, request_cost_us=10.0),
        ]
        run = run_workload(kernel4k, phases, max_epochs=10)
        assert run.served["serve"] == pytest.approx(5000, rel=0.05)

    def test_serving_capacity_bound(self, kernel4k):
        phases = [
            Phase("serve", duration_us=2 * SEC,
                  request_rate=1e9, request_cost_us=100.0),
        ]
        run = run_workload(kernel4k, phases, max_epochs=10)
        # capacity = 10k requests/s
        assert run.served["serve"] == pytest.approx(20_000, rel=0.05)

    def test_multi_phase_progression(self, kernel4k):
        phases = [
            Phase("p1", ops=[MmapOp("a", 1 * MB), TouchOp("a")]),
            Phase("p2", work_us=1 * SEC),
            Phase("p3", ops=[MmapOp("b", 1 * MB), TouchOp("b")]),
        ]
        run = run_workload(kernel4k, phases, max_epochs=20)
        assert run.finished
        assert run.proc.rss_pages() == 512


class TestAccessProfile:
    def test_loads_reflect_promotion_state(self, kernel_thp):
        profile = AccessProfile(specs=[RegionAccessSpec("heap", coverage=256)])
        phases = [
            Phase("alloc", ops=[MmapOp("heap", 8 * MB), TouchOp("heap")]),
            Phase("c", work_us=100 * SEC, profile=profile),
        ]
        run = run_workload(kernel_thp, phases, max_epochs=3)
        loads = profile.loads(kernel_thp, run.proc)
        assert len(loads) == 1
        assert loads[0].touched_regions == 4
        assert loads[0].promoted_fraction == 1.0  # THP mapped everything huge

    def test_hot_range_selects_regions(self, kernel4k):
        profile = AccessProfile(
            specs=[RegionAccessSpec("heap", hot_start=0.5, hot_len=0.5)]
        )
        phases = [
            Phase("alloc", ops=[MmapOp("heap", 8 * MB), TouchOp("heap")]),
            Phase("c", work_us=100 * SEC, profile=profile),
        ]
        run = run_workload(kernel4k, phases, max_epochs=3)
        vma = run.vma("heap")
        coverage = profile.region_coverage(kernel4k, run.proc)
        assert len(coverage) == 2  # upper half of 4 regions
        assert min(coverage) >= (vma.start >> 9) + 2

    def test_missing_region_ignored(self, kernel4k):
        profile = AccessProfile(specs=[RegionAccessSpec("nope")])
        from repro.vm.process import Process

        proc = Process("x")
        assert profile.loads(kernel4k, proc) == []
        assert profile.region_coverage(kernel4k, proc) == {}
