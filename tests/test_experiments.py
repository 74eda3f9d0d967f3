"""Unit tests for the experiment infrastructure."""

import pytest

from repro.experiments import (
    DEFAULT,
    POLICIES,
    Scale,
    fragment,
    gb,
    make_hypervisor,
    make_kernel,
    make_vm,
    rss_bytes,
    scaled_tlb,
    speedup,
    useful_bytes,
)
from repro.units import GB, MB, SEC


def test_scale_bytes_and_rates():
    scale = Scale(1 / 64)
    assert scale.bytes(64 * GB) == 1 * GB
    assert scale.rate(6400.0) == 100.0
    assert DEFAULT.factor == 1 / 64


def test_policy_registry_complete():
    expected = {
        "linux-4kb", "linux-2mb", "freebsd", "ingens-90", "ingens-50",
        "ingens-90-fixed", "ingens-50-fixed",
        "hawkeye-g", "hawkeye-pmu", "hawkeye-4kb",
    }
    assert expected <= set(POLICIES)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_builds_and_runs(policy):
    kernel = make_kernel(1 * GB, policy, Scale(1 / 16))
    kernel.run_epochs(2)
    assert kernel.stats.epochs == 2


def test_make_kernel_unknown_policy():
    with pytest.raises(KeyError):
        make_kernel(1 * GB, "nonsense")


def test_make_kernel_coarse_epoch_keeps_30s_sampling():
    kernel = make_kernel(1 * GB, "linux-4kb", Scale(1 / 16), epoch_us=2 * SEC)
    assert kernel.config.sample_period == 15


def test_scaled_tlb_shrinks_with_memory():
    tlb = scaled_tlb(Scale(1 / 64))
    assert tlb.l1_base == 1
    assert tlb.l2_shared == 16
    full = scaled_tlb(Scale(1.0))
    assert (full.l1_base, full.l1_huge, full.l2_shared) == (64, 8, 1024)


def test_fragment_helper(kernel4k):
    assert fragment(kernel4k) > 0.9


def test_measurement_helpers(kernel_thp):
    from tests.test_fault import make_proc

    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)
    assert rss_bytes(proc) == 2 * MB
    # only one page was actually written
    block = int(proc.page_table.hframe[vma.start >> 9])
    kernel_thp.frames.write(block, first_nonzero=0)
    assert useful_bytes(kernel_thp, proc) == 4096
    assert speedup(100.0, 50.0) == 2.0
    assert gb(2 * GB) == 2.0


def test_make_hypervisor_and_vm():
    scale = Scale(1 / 256)
    hyp = make_hypervisor(32 * GB, "linux-2mb", scale)
    vm = make_vm(hyp, "v", 8 * GB, "hawkeye-g", scale)
    assert vm.guest.policy.name == "hawkeye-g"
    assert vm.ram_pages == scale.bytes(8 * GB) // 4096
    assert hyp.host.config.tlb.l2_shared == 8  # scaled TLB floor


def test_coarse_epochs_preserve_rates():
    """2 s epochs must not change per-second promotion throughput."""
    from repro.experiments import fragment
    from repro.units import SEC
    from repro.workloads.compute import ComputeWorkload

    def promotions_after(epoch_us, sim_seconds):
        scale = Scale(1 / 128)
        kernel = make_kernel(48 * GB, "linux-2mb", scale, epoch_us=epoch_us)
        fragment(kernel)
        wl = ComputeWorkload("w", footprint_bytes=24 * GB, work_us=1e12,
                             access_rate=10.0, scale=scale.factor)
        kernel.spawn(wl)
        kernel.run_epochs(int(sim_seconds * SEC / epoch_us))
        return kernel.stats.promotions

    fine = promotions_after(SEC, 400)
    coarse = promotions_after(2 * SEC, 400)
    assert coarse == pytest.approx(fine, abs=3)


def _useful_by_masks(kernel, proc) -> int:
    """``useful_bytes`` as three whole-machine frame masks."""
    import numpy as np

    frames = kernel.frames
    mask = ((frames.owner == proc.pid) & frames.allocated
            & (frames.first_nonzero >= 0))
    return int(np.count_nonzero(mask)) * 4096


def _mapped_frames(proc):
    """Every frame the page table maps (512 per huge mapping), once."""
    import numpy as np

    pt = proc.page_table
    huge = pt.hframe[pt.hframe >= 0]
    return np.unique(np.concatenate(
        (pt.frame[pt.frame >= 0], (huge[:, None] + np.arange(512)).ravel())))


@pytest.mark.parametrize("policy", ["hawkeye-g", "linux-2mb"])
def test_useful_bytes_at_every_fleet_exit(monkeypatch, policy):
    """The fleet's QoS ledger reads ``useful_bytes`` as each tenant exits."""
    from repro import experiments
    from repro.runner.registry import Cell, execute_cell

    calls = []

    def checked(kernel, proc):
        got = useful_bytes(kernel, proc)
        assert got == _useful_by_masks(kernel, proc)
        calls.append(got)
        return got

    monkeypatch.setattr(experiments, "useful_bytes", checked)
    execute_cell(Cell("fleet-smoke", "arrival-smoke", policy))
    assert len(calls) >= 100 and any(calls)


def test_useful_bytes_counts_stale_reserved_frames():
    """A FreeBSD reservation owns frames it has not mapped, and reused
    frames keep a former owner's data: they count, so the count is over
    the owned frames, not the mapped ones."""
    import numpy as np

    from repro.workloads.base import (ContentSpec, MmapOp, Phase, TouchOp,
                                      Workload)

    class Touch(Workload):
        def __init__(self, name, stride):
            self.name, self.stride = name, stride

        def build_phases(self):
            return [Phase("a", ops=[
                MmapOp("h", 64 * MB),
                TouchOp("h", stride_pages=self.stride,
                        content=ContentSpec(first_nonzero=5))]),
                Phase("idle", duration_us=100 * SEC)]

    kernel = make_kernel(4 * GB, "freebsd", Scale(1 / 8))
    first = kernel.spawn(Touch("dense", 1))
    kernel.run(max_epochs=20)
    kernel.exit_process(first.proc)
    proc = kernel.spawn(Touch("sparse", 7)).proc
    kernel.run(max_epochs=20)
    assert kernel.policy.reservations
    useful = useful_bytes(kernel, proc)
    assert useful == _useful_by_masks(kernel, proc)
    frames = kernel.frames
    mapped = _mapped_frames(proc)
    assert useful > 4096 * int(np.count_nonzero(
        frames.first_nonzero[mapped] >= 0))


def test_useful_bytes_ksm_and_balloon():
    """KSM-shared pages count once, for the canonical frame's owner; a
    guest's ballooned-back memory leaves the host process's count."""
    from repro.kernel.kernel import Kernel
    from repro.policies.linux import Linux4KPolicy
    from tests.conftest import small_config
    from tests.test_samepage import merger_for, touched_proc

    kernel = Kernel(small_config(), Linux4KPolicy)
    a, _ = touched_proc(kernel, tag=42, name="a")
    b, _ = touched_proc(kernel, tag=42, name="b")
    merger = merger_for(kernel)
    for _ in range(3):
        merger.run_epoch()
    assert kernel.cow_registry.pages_saved() > 0
    for proc in (a, b):
        assert useful_bytes(kernel, proc) == _useful_by_masks(kernel, proc)

    import examples.virtualized_overcommit as vo

    for guest_policy in ("linux-2mb", "hawkeye-g"):
        hyp = make_hypervisor(96 * GB, "linux-2mb", vo.SCALE)
        vm = make_vm(hyp, "vm1", 24 * GB, guest_policy, vo.SCALE)
        hyp.enable_ksm(pages_per_sec=vo.SCALE.rate(1e6))
        if guest_policy == "hawkeye-g":
            vm.guest.policy.prezero._limiter.per_second = vo.SCALE.rate(1e6)
        run = vm.spawn(vo.ChurnGuest(vo.SCALE.bytes(12 * GB)))
        hyp.run(max_epochs=400)
        for kernel, proc in ((hyp.host, vm.host_proc), (vm.guest, run.proc)):
            assert useful_bytes(kernel, proc) == _useful_by_masks(kernel, proc)
