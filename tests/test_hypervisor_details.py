"""Focused tests for hypervisor internals: mirror profile, swap drain."""

import numpy as np
import pytest

from repro.experiments import Scale, make_hypervisor, make_vm
from repro.units import GB, PAGES_PER_HUGE, SEC
from repro.virt.hypervisor import _HostMirrorProfile
from repro.workloads.base import ContentSpec, FreeOp, MmapOp, Phase, TouchOp, Workload

SCALE = Scale(1 / 256)


class Alloc(Workload):
    name = "alloc"

    def __init__(self, nbytes, free_after=False, hold_s=300.0):
        self.nbytes = nbytes
        self.free_after = free_after
        self.hold_s = hold_s

    def build_phases(self):
        ops = [MmapOp("h", self.nbytes),
               TouchOp("h", content=ContentSpec(first_nonzero=0))]
        if self.free_after:
            ops.append(FreeOp("h"))
        return [Phase("a", ops=ops), Phase("hold", duration_us=self.hold_s * SEC)]


def _coverage_both_ways(profile, kernel, vm) -> dict[int, int]:
    """``region_coverage``, checked against ``coverage_array`` over every
    guest RAM hvpn and hvpns just outside guest RAM (which read 0)."""
    coverage = profile.region_coverage(kernel, vm.host_proc)
    base = vm.ram_vma.start // PAGES_PER_HUGE
    hvpns = np.arange(base - 1, base + vm.ram_pages // PAGES_PER_HUGE + 2)
    got = profile.coverage_array(kernel, vm.host_proc, hvpns)
    assert got.tolist() == [coverage.get(h, 0) for h in hvpns.tolist()]
    return coverage


class TestHostMirrorProfile:
    def test_coverage_tracks_guest_occupancy(self):
        hyp = make_hypervisor(32 * GB, "linux-4kb", SCALE)
        vm = make_vm(hyp, "v", 8 * GB, "linux-4kb", SCALE)
        profile = _HostMirrorProfile(vm)
        # only the guest kernel's own reserved zero frame is allocated
        boot = _coverage_both_ways(profile, hyp.host, vm)
        assert sum(boot.values()) == 1
        vm.spawn(Alloc(SCALE.bytes(2 * GB)))
        hyp.run_epoch()
        coverage = _coverage_both_ways(profile, hyp.host, vm)
        populated = [c for c in coverage.values() if c == PAGES_PER_HUGE]
        # 2 GB scaled = 8 MB = 4 fully-occupied guest frame regions
        assert len(populated) == SCALE.bytes(2 * GB) // (2 * 1024 * 1024)

    def test_host_sampler_consumes_mirror(self):
        # hawkeye-4kb host: backing stays base-mapped, so the mirrored
        # coverage must surface as host promotion candidates
        hyp = make_hypervisor(32 * GB, "hawkeye-4kb", SCALE)
        vm = make_vm(hyp, "v", 8 * GB, "linux-4kb", SCALE)
        vm.spawn(Alloc(SCALE.bytes(2 * GB)))
        for _ in range(31):
            hyp.run_epoch()
        amap = hyp.host.policy.access_maps.get(vm.host_proc.pid)
        assert amap is not None and len(amap) > 0

    def test_loads_empty(self):
        hyp = make_hypervisor(32 * GB, "linux-4kb", SCALE)
        vm = make_vm(hyp, "v", 8 * GB, "linux-4kb", SCALE)
        assert _HostMirrorProfile(vm).loads(hyp.host, vm.host_proc) == []


class TestSwapDrain:
    def setup_overcommit(self):
        hyp = make_hypervisor(8 * GB, "linux-4kb", SCALE, swap_bytes_full=32 * GB)
        vm1 = make_vm(hyp, "a", 8 * GB, "linux-4kb", SCALE)
        vm2 = make_vm(hyp, "b", 8 * GB, "linux-4kb", SCALE)
        return hyp, vm1, vm2

    def test_overcommit_swaps_then_drains_after_free(self):
        hyp, vm1, vm2 = self.setup_overcommit()
        r1 = vm1.spawn(Alloc(SCALE.bytes(6 * GB)))
        r2 = vm2.spawn(Alloc(SCALE.bytes(6 * GB), free_after=True))
        hyp.run_epoch()
        assert hyp.host.swap.swap_outs > 0
        # vm2 freed its memory: balloon it out so the host can breathe
        hyp.enable_ballooning(pages_per_sec=1e9)
        swapped_before = len(hyp.host.swap.swapped)
        for _ in range(30):
            hyp.run_epoch()
        assert len(hyp.host.swap.swapped) < swapped_before
        assert hyp.host.swap.swap_ins > 0

    def test_drain_respects_reserve(self):
        hyp, vm1, vm2 = self.setup_overcommit()
        vm1.spawn(Alloc(SCALE.bytes(6 * GB)))
        vm2.spawn(Alloc(SCALE.bytes(6 * GB)))
        hyp.run_epoch()
        for _ in range(10):
            hyp.run_epoch()
        # the host stays near-full: the drain must not dip into the reserve
        reserve = int(hyp.host.buddy.total_pages * hyp.SWAP_DRAIN_RESERVE)
        assert hyp.host.buddy.free_pages <= max(reserve * 3, 2048)

    def test_slowdown_reflects_swapped_share(self):
        hyp, vm1, vm2 = self.setup_overcommit()
        vm1.spawn(Alloc(SCALE.bytes(7 * GB)))
        vm2.spawn(Alloc(SCALE.bytes(7 * GB)))
        for _ in range(3):
            hyp.run_epoch()
        total_swapped = len(hyp.host.swap.swapped)
        if total_swapped:
            assert (vm1.guest.external_slowdown > 0
                    or vm2.guest.external_slowdown > 0)
