"""Unit tests for the batched fault fast path and its supporting layers."""

import math

import numpy as np
import pytest

from repro import audit, trace
from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.experiments import POLICIES, Scale
from repro.kernel.kernel import Kernel, KernelConfig
from repro.mem.buddy import BuddyAllocator
from repro.mem.frames import FrameTable
from repro.units import MB
from repro.vm.page_table import ACCESSED, DIRTY, PageTable
from repro.vm.process import Process
from repro.workloads.base import ContentSpec, FreeOp, Phase, Workload
from tests import oracle
from tests.conftest import LEDGER_COLUMNS, buddy_snapshot, mappings


# ---------------------------------------------------------------------- #
# buddy: bulk extent allocation                                           #
# ---------------------------------------------------------------------- #


def make_buddy(num_frames=4096):
    frames = FrameTable(num_frames)
    return frames, BuddyAllocator(frames)


def test_extent_consumes_uniform_block_wholesale():
    _, buddy = make_buddy(1024)
    got = buddy.try_alloc_run_extent(1024)
    assert got == (0, 1024, True)
    assert buddy.free_pages == 0


def test_extent_matches_scalar_frame_sequence():
    """The bulk extents hand out exactly the frames scalar allocs would."""
    _, buddy_a = make_buddy(512)
    _, buddy_b = make_buddy(512)
    scalar = [buddy_a.try_alloc(0)[0] for _ in range(300)]
    bulk = []
    for start, count, _ in buddy_b.try_alloc_run(300):
        bulk.extend(range(start, start + count))
    assert bulk == scalar


def test_partial_extent_reinserts_identical_remainder():
    """Stopping mid-block leaves the same free lists as scalar allocs."""
    _, buddy_a = make_buddy(256)
    _, buddy_b = make_buddy(256)
    for _ in range(37):
        buddy_a.try_alloc(0)
    buddy_b.try_alloc_run(37)
    for order in range(buddy_a.max_order + 1):
        assert list(buddy_a._zero[order]) == list(buddy_b._zero[order])
        assert list(buddy_a._nonzero[order]) == list(buddy_b._nonzero[order])
    assert buddy_a.free_pages == buddy_b.free_pages


def test_mixed_content_block_falls_back_to_single_page():
    """A non-uniform block cannot be drained in one extent."""
    frames, buddy = make_buddy(8)
    run = buddy.try_alloc_run(8)
    frames.write(1, first_nonzero=3)  # frame 1 non-zero, rest zero
    buddy.free_range(0, 8)            # one order-3 block, mixed content
    got = buddy.try_alloc_run_extent(8, prefer_zero=False)
    assert got[1] == 1, "mixed block must degrade to a scalar single-page alloc"


def test_run_dry_allocator_returns_short():
    _, buddy = make_buddy(16)
    extents = buddy.try_alloc_run(64)
    assert sum(c for _, c, _ in extents) == 16
    assert buddy.try_alloc_run_extent(1) is None


# ---------------------------------------------------------------------- #
# frames: vectorised content writes                                       #
# ---------------------------------------------------------------------- #


def test_write_frames_matches_scalar_writes():
    ft, ft2 = FrameTable(64), FrameTable(64)
    frames = [3, 9, 4, 50]
    ft.write_frames(frames, first_nonzero=7)
    for f in frames:
        ft2.write(f, first_nonzero=7)
    assert np.array_equal(ft.content_tag, ft2.content_tag)
    assert np.array_equal(ft.first_nonzero, ft2.first_nonzero)


# ---------------------------------------------------------------------- #
# page table: range mapping and the demotion dirty bit                    #
# ---------------------------------------------------------------------- #


def test_map_base_range_rejects_base_overlap():
    pt = PageTable()
    pt.map_base(5, 100)
    with pytest.raises(InvalidAddressError):
        pt.map_base_range(3, [(0, 4, True)])


def test_map_base_range_rejects_huge_overlap():
    pt = PageTable()
    pt.map_huge(1, 0)
    with pytest.raises(InvalidAddressError):
        pt.map_base_range(510, [(1024, 4, True)])


def test_map_base_range_installs_extent_frames():
    pt = PageTable()
    assert pt.map_base_range(10, [(100, 3, True), (200, 2, False)], accessed=True) == 5
    assert [int(pt.frame[10 + i]) for i in range(5)] == [100, 101, 102, 200, 201]
    assert (pt.flags[10:15] == ACCESSED).all()


def test_demote_preserves_dirty_and_accessed_bits():
    pt = PageTable()
    pt.map_huge(2, 512, accessed=True)
    pt.hflags[2] |= DIRTY  # a write through the huge mapping
    pt.demote_huge(2)
    assert pt.nbase == 512
    assert (pt.flags[pt.mapped_vpns()] == ACCESSED | DIRTY).all()


# ---------------------------------------------------------------------- #
# kernel: fault_range semantics                                           #
# ---------------------------------------------------------------------- #


class _Idle(Workload):
    name = "unit"

    def build_phases(self):
        return [Phase("idle", duration_us=1.0)]


def build_kernel(policy="linux-4kb", reference=False, mem_mb=32, heap_mb=16):
    Process._next_pid = 1
    kernel = Kernel(KernelConfig(mem_bytes=mem_mb * MB), POLICIES[policy](Scale(1 / 128)))
    if reference:
        oracle.install(kernel)
    run = kernel.spawn(_Idle())
    proc = run.proc
    kernel.mmap(proc, heap_mb * MB, "heap")
    vma = kernel.find_vma(proc, "heap")
    return kernel, proc, vma


def test_fault_range_counts_and_stats():
    kernel, proc, vma = build_kernel()
    consumed, pages = kernel.fault_range(proc, vma.start, 1000)
    assert pages == 1000
    assert proc.stats.faults == 1000
    assert kernel.stats.faults == 1000
    assert consumed == pytest.approx(proc.stats.fault_time_us)
    # Re-touching is free (already mapped) but still counts the pages.
    consumed2, pages2 = kernel.fault_range(proc, vma.start, 1000)
    assert (consumed2, pages2) == (0.0, 1000)


def test_fault_range_budget_stop_matches_scalar():
    """A mid-gap budget stops both paths after the same page count."""
    budget = 100.0  # 100 / 2.65 = 37.7 pages: nowhere near a float boundary
    kernel, proc, vma = build_kernel()
    _, pages = kernel.fault_range(proc, vma.start, 2000, budget_us=budget)
    ks, ps, vs = build_kernel(reference=True)
    _, scalar_pages = ks.fault_range(ps, vs.start, 2000, budget_us=budget)
    assert ps.stats.faults == scalar_pages
    assert pages == scalar_pages
    assert proc.page_table.nbase == ps.page_table.nbase


def test_fault_range_pacing_dominates_budget():
    """With pace > fault cost, pages per budget follow the pacing rate."""
    kernel, proc, vma = build_kernel()
    consumed, pages = kernel.fault_range(
        proc, vma.start, 2000, budget_us=100.0, pace_us=10.0
    )
    assert pages == 10
    assert consumed == pytest.approx(100.0)
    # Fault-time stats charge only the fault cost, not the pacing.
    assert proc.stats.fault_time_us < consumed


def test_fault_range_work_adds_to_budget_drain():
    kernel, proc, vma = build_kernel()
    # Already-mapped pages drain max(work, pace) per page.
    kernel.fault_range(proc, vma.start, 100)
    consumed, pages = kernel.fault_range(
        proc, vma.start, 100, budget_us=50.0, work_us=1.0
    )
    assert pages == 50
    assert consumed == pytest.approx(50.0)


def test_exit_process_uses_direct_run_lookup():
    kernel, proc, vma = build_kernel()
    boot_allocated = kernel.buddy.allocated_pages  # the canonical zero frame
    kernel.fault_range(proc, vma.start, 256)
    run = kernel._run_by_pid[proc.pid]
    kernel.exit_process(proc)
    assert run.finished
    assert proc.pid not in kernel._run_by_pid
    assert kernel.buddy.allocated_pages == boot_allocated


def test_freeop_reuses_seeded_rng():
    kernel, proc, vma = build_kernel()
    kernel.fault_range(proc, vma.start, 1024)
    op = FreeOp("heap", npages=1024, sparse_fraction=0.5, seed=3)
    run = kernel._run_by_pid[proc.pid]
    op.execute(kernel, run, math.inf)
    rng = op._rng
    assert rng is not None
    left = proc.page_table.nbase
    kernel.fault_range(proc, vma.start, 1024)
    op.execute(kernel, run, math.inf)
    assert op._rng is rng, "the op must reuse one RNG instance across runs"
    assert proc.page_table.nbase == left, "re-seeded RNG frees the same subset"


def test_batched_madvise_matches_scalar_unmap():
    kb, pb, vb = build_kernel()
    ks, ps, vs = build_kernel(reference=True)
    for kernel, proc, vma in ((kb, pb, vb), (ks, ps, vs)):
        for vpn in range(vma.start, vma.start + 900):
            kernel.fault(proc, vpn)
        kernel.madvise_free(proc, vma.start + 100, 600)
    assert np.array_equal(pb.page_table.mapped_vpns(), ps.page_table.mapped_vpns())
    for order in range(kb.buddy.max_order + 1):
        assert list(kb.buddy._zero[order]) == list(ks.buddy._zero[order])
        assert list(kb.buddy._nonzero[order]) == list(ks.buddy._nonzero[order])
    assert np.array_equal(kb.frames.allocated, ks.frames.allocated)


@pytest.mark.parametrize("policy", ["linux-4kb", "hawkeye-4kb"])
def test_budget_stop_inside_an_extent_pops_no_surplus(policy):
    """A budget stop inside a buddy extent allocates only the frames the
    per-page loop faults: popping the rest and freeing it again would
    reorder the free lists and wipe the surplus frames' ledger history."""
    states = []
    for reference in (True, False):
        kernel, proc, vma = build_kernel(policy, reference)
        ledger = audit.attach(kernel).ledger
        for _ in range(2):
            kernel.fault_range(proc, vma.start + 3, 2000, budget_us=100.0)
        states.append((buddy_snapshot(kernel.buddy),
                       {name: getattr(ledger, name).tolist() for name in LEDGER_COLUMNS}))
    assert states[1] == states[0]


def test_fault_size_is_asked_only_where_a_huge_fault_can_happen():
    """A §3.5 cap refuses a huge page once per region that could take one:
    once a region is resident no huge fault is possible, so the policy is
    not asked again (Linux considers THP only for an empty PMD).  The bulk
    run and the per-page loop ask it at the same pages."""
    from repro.core.hawkeye import HawkEyePolicy

    seen = []
    for reference in (True, False):
        Process._next_pid = 1
        kernel = Kernel(KernelConfig(mem_bytes=32 * MB), lambda k: HawkEyePolicy(
            k, variant="g", huge_page_limits={_Idle.name: 1}))
        if reference:
            oracle.install(kernel)
        log = audit.attach(kernel)
        proc = kernel.spawn(_Idle()).proc
        kernel.mmap(proc, 8 * MB, "heap")
        vma = kernel.find_vma(proc, "heap")
        kernel.fault_range(proc, vma.start, 4 * 512, content=ContentSpec())
        seen.append((kernel.policy.limits.refusals, log.recorded,
                     log.rejections, proc.stats.huge_faults, proc.stats.faults))
    assert seen[1] == seen[0] == (3, 3, {"fault_size": {"limit_cap": 3}}, 1, 1 + 3 * 512)


# ---------------------------------------------------------------------- #
# kernel: a bulk run that crosses memory pressure                         #
# ---------------------------------------------------------------------- #


def build_pressure_kernel(policy, reference, swap_mb):
    """A 4 MiB machine with swap, an 8 MiB heap, and a tracer and an audit
    log attached: bulk runs soon find the buddy allocator empty."""
    Process._next_pid = 1
    config = KernelConfig(mem_bytes=4 * MB, swap_bytes=swap_mb * MB)
    kernel = Kernel(config, POLICIES[policy](Scale(1 / 128)))
    if reference:
        oracle.install(kernel)
    tracer = trace.attach(kernel, warn_on_drop=False)
    audit.attach(kernel)
    proc = kernel.spawn(_Idle()).proc
    kernel.mmap(proc, 8 * MB, "heap")
    return kernel, proc, kernel.find_vma(proc, "heap"), tracer


def touch_under_pressure(kernel, proc, vma, content) -> bool:
    """A first region (huge-mapped where the policy faults huge pages),
    then runs past the free memory; returns whether the kernel ran out
    of memory."""
    try:
        kernel.fault_range(proc, vma.start, 100, content=content)
        kernel.fault_range(proc, vma.start + 512, 1536, content=content, work_us=1.0)
    except OutOfMemoryError:
        return True
    return False


def pressure_state(kernel, proc, tracer) -> dict:
    pt = proc.page_table
    order = pt.base_in_order().tolist()
    return {
        "base": [(vpn, int(pt.frame[vpn]), int(pt.flags[vpn])) for vpn in order],
        "huge": mappings(pt)[1],
        "rmap": [(f, owner.pid, v) for f in kernel.rmap_by_age().tolist()
                 for owner, v in [kernel.rmap_owner(f)]],
        "buddy": buddy_snapshot(kernel.buddy),
        "ledger": {name: getattr(kernel.audit.ledger, name).tolist()
                   for name in LEDGER_COLUMNS},
        "events": [(e.t_us, e.kind, e.process, e.span_us, e.page, e.detail)
                   for e in tracer.events],
        "counts": dict(tracer.counts),
        "spans": dict(tracer.spans),
        "histograms": {k: h.to_dict() for k, h in tracer.histograms.items()},
        "dropped": tracer.dropped,
        "swapped": sorted(kernel.swap.swapped),
        "faults": (kernel.stats.faults, proc.stats.faults, kernel.stats.oom_kills),
    }


@pytest.mark.parametrize("content", [ContentSpec(), ContentSpec(zero=True)],
                         ids=["data", "zeroes"])
@pytest.mark.parametrize("swap_mb, oom", [(8, False), (2, True)])
@pytest.mark.parametrize("policy", ["linux-2mb", "hawkeye-g", "hawkeye-4kb"])
def test_bulk_run_crossing_pressure_matches_scalar(policy, swap_mb, oom, content):
    """Reclaim, policy relief and swap run in the middle of a bulk run,
    and must see the page tables and rmap the per-page loop leaves: the
    earlier extents of the run are written before the kernel relieves
    pressure.  Where the first region is huge-mapped, swap-out must
    evict pages of the very run that ran dry before it demotes that
    region."""
    states = []
    for reference in (True, False):
        kernel, proc, vma, tracer = build_pressure_kernel(policy, reference, swap_mb)
        assert touch_under_pressure(kernel, proc, vma, content) is oom
        assert kernel.swap.swap_outs > 100
        states.append(pressure_state(kernel, proc, tracer))
    scalar, batched = states
    for key in scalar:
        assert batched[key] == scalar[key], key


def touch_strided_under_pressure(kernel, proc, vma, stride, budget_us):
    """A huge-mapped or dense first region and a dense stretch further
    on, then a strided touch of the whole heap, resumed call after call
    like ``TouchOp`` until done or out of memory.  Returns each call's
    ``(consumed, pages)`` and whether the kernel ran out of memory."""
    content = ContentSpec()
    calls = []
    try:
        kernel.fault_range(proc, vma.start, 100, content=content)
        kernel.fault_range(proc, vma.start + 1024, 600, content=content)
        # Only the strided calls' charges are compared exactly.
        proc.stats.fault_time_us = proc.fault_time_epoch_us = 0.0
        total = -(-(vma.npages - 3) // stride)
        pos = 0
        while pos < total:
            calls.append(kernel.fault_range(
                proc, vma.start + 3 + pos * stride, total - pos, budget_us,
                content, work_us=1.0, stride=stride))
            pos += calls[-1][1]
    except OutOfMemoryError:
        return calls, True
    return calls, False


@pytest.mark.parametrize("budget_us", [math.inf, 400.0], ids=["unbounded", "budget"])
@pytest.mark.parametrize("stride", [2, 3, 4, 7, 64, 511, 512])
@pytest.mark.parametrize("policy", ["linux-2mb", "hawkeye-g", "hawkeye-4kb",
                                    "linux-4kb", "ingens-90"])
def test_strided_run_crossing_pressure_matches_scalar(policy, stride, budget_us):
    """A strided run takes the bulk paths inside each huge region — huge
    tail, mapped pages, bulk base faults, with per-page swap-ins and huge
    faults between — and must leave what the per-page loop leaves, with
    the budget, ``fault_time_us`` and the epoch fault time charged page by
    page in the loop's float order, so they match exactly."""
    states = []
    for reference in (True, False):
        kernel, proc, vma, tracer = build_pressure_kernel(policy, reference, 2)
        calls, oom = touch_strided_under_pressure(kernel, proc, vma, stride, budget_us)
        state = pressure_state(kernel, proc, tracer)
        state["calls"] = (calls, oom)
        state["fault_time"] = (proc.stats.fault_time_us, proc.fault_time_epoch_us)
        states.append(state)
    scalar, batched = states
    for key in scalar:
        assert batched[key] == scalar[key], key


# ---------------------------------------------------------------------- #
# perf harness                                                            #
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def touch_result():
    from repro.perf import benchmark

    return benchmark("touch", size=1024, repeats=1)


def test_touch_benchmark_smoke(touch_result):
    from repro.perf import format_report

    assert touch_result["work"] == 2048
    assert touch_result["fast_s"] > 0 and touch_result["fast_per_calib"] > 0
    assert 1 <= touch_result["passes"] <= 32
    assert "fast_per_calib: " in format_report(touch_result)


def test_touch_benchmark_reports_strided_touch(touch_result):
    from repro.perf import TOUCH_STRIDE, format_report

    assert touch_result["stride"] == TOUCH_STRIDE == 4
    assert touch_result["strided_s"] > 0 and touch_result["strided_per_calib"] > 0
    assert "strided_per_calib: " in format_report(touch_result)


def test_epoch_target_smoke():
    from repro.perf import EPOCH_EPOCHS, benchmark, format_report

    result = benchmark("epoch", size=16, repeats=1)
    assert result["work"] == EPOCH_EPOCHS
    assert result["fast_per_calib"] > 0 and result["scan_per_calib"] > 0
    assert "scan_per_calib: " in format_report(result)


@pytest.mark.parametrize("target", ["touch", "epoch"])
def test_cli_bench_profile_prints_a_cprofile_report(target, capsys):
    from repro.cli import main

    assert main(["bench", target, "--profile"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"hot paths: {target} microbenchmark")
    assert "cumtime" in out and "run_epoch" in out


def test_cli_bench_accepts_touch_target():
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench"])
    assert args.target == "touch"
    args = build_parser().parse_args(
        ["bench", "touch", "--json", "--check", "b.json"]
    )
    assert args.json and args.check == "b.json"
    args = build_parser().parse_args(["bench", "tab1", "--profile"])
    assert args.target == "tab1" and args.profile
