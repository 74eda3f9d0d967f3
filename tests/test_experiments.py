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
