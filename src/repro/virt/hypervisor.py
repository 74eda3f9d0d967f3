"""Hypervisor and virtual machines.

A :class:`VirtualMachine` is a guest kernel whose frame allocations are
*backed* by faults on a host process's ``guest-ram`` VMA: guest frame
``f`` lives at host virtual page ``vma.start + f``, so guest frame
regions and host huge regions correspond one-to-one.  The coupling points:

* **backing faults** — when the guest allocates frames whose host pages
  are not yet mapped (or were KSM-merged away), the host fault path runs
  and its latency is charged to the guest's fault; a Linux host zeroes
  synchronously here, which is what makes VM spin-up so slow without
  host-side pre-zeroing (Table 8);
* **nested walks** — the guest's MMU model prices walks by the fraction
  of the backing region the host currently maps huge (Figure 9's
  host/guest/both matrix);
* **PMU attribution** — the guest's walker cycles are fed into the host
  PMU of the VM's host process, so a host-side HawkEye-PMU can identify
  which VM suffers address-translation overhead, exactly as hardware
  counters attribute guest-mode walks to the VCPU thread;
* **coverage mirroring** — the host access-bit sampler sees a VM region
  as covered in proportion to its guest-allocated frames, giving
  host-side HawkEye-G its access_map signal;
* **swap pressure** — when the (overcommitted) host swaps a VM's backing
  pages, the VM's progress is throttled proportionally to its swapped
  fraction (Figure 11's no-ballooning baseline).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.kernel.kernel import Kernel, KernelConfig
from repro.tlb.perf import PMUCounters
from repro.units import PAGES_PER_HUGE, pages_of
from repro.vm.page_table import SHARED_ZERO
from repro.vm.process import Process
from repro.workloads.base import Workload, WorkloadRun

#: progress slowdown per unit swapped fraction of a VM's backing.
SWAP_THRASH_FACTOR = 20.0


class _HostMirrorProfile:
    """Access profile the host sampler sees for a VM's RAM region."""

    cache_sensitivity = 0.0
    access_rate = 0.0

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm

    def loads(self, kernel, proc):
        return []

    def _counts(self) -> tuple[int, np.ndarray]:
        """First host hvpn of guest RAM and each of its huge regions'
        allocated guest frame count."""
        vm = self.vm
        nregions = vm.ram_pages // PAGES_PER_HUGE
        occupancy = vm.guest.frames.allocated[: nregions * PAGES_PER_HUGE]
        return vm.ram_vma.start >> 9, occupancy.reshape(nregions, PAGES_PER_HUGE).sum(axis=1)

    def region_coverage(self, kernel, proc) -> dict[int, int]:
        """Host region coverage = guest frame occupancy of the region."""
        base_hvpn, counts = self._counts()
        return {base_hvpn + i: c for i, c in enumerate(counts.tolist()) if c > 0}

    def coverage_array(self, kernel, proc, hvpns: np.ndarray) -> np.ndarray:
        """:meth:`region_coverage` gathered over an hvpn array: 0 outside
        guest RAM."""
        base_hvpn, counts = self._counts()
        idx = hvpns - base_hvpn
        inside = (idx >= 0) & (idx < counts.shape[0])
        out = np.zeros(hvpns.shape[0], dtype=np.int64)
        out[inside] = counts[idx[inside]]
        return out


class VirtualMachine:
    """One guest kernel backed by a host process."""

    def __init__(
        self,
        hypervisor: "Hypervisor",
        name: str,
        ram_bytes: int,
        guest_policy_factory: Callable[[Kernel], object],
        guest_config: Optional[KernelConfig] = None,
    ):
        self.hypervisor = hypervisor
        self.name = name
        host = hypervisor.host
        self.host_proc = Process(f"vm-{name}")
        host.processes.append(self.host_proc)
        host.pmu[self.host_proc.pid] = PMUCounters()
        self.ram_vma = host.mmap(self.host_proc, ram_bytes, "guest-ram")
        self.ram_pages = pages_of(ram_bytes)
        self.host_proc.access_profile = _HostMirrorProfile(self)

        if guest_config is None:
            guest_config = KernelConfig(
                mem_bytes=ram_bytes, epoch_us=host.config.epoch_us
            )
        self.guest = Kernel(guest_config, guest_policy_factory)
        self.guest.frame_alloc_hook = self._back_frames
        self.guest.host_huge_fraction = lambda proc: self._host_huge_fraction
        self._host_huge_fraction = 0.0
        self._prev_walk = 0.0
        self._prev_total = 0.0

    # ------------------------------------------------------------------ #
    # backing                                                             #
    # ------------------------------------------------------------------ #

    def host_vpn(self, guest_frame: int) -> int:
        """Host virtual page backing a guest physical frame."""
        return self.ram_vma.start + guest_frame

    def _back_frames(self, start: int, count: int) -> float:
        """Fault in host backing for newly-allocated guest frames."""
        host = self.hypervisor.host
        cost = 0.0
        pt = self.host_proc.page_table
        for frame in range(start, start + count):
            vpn = self.host_vpn(frame)
            if pt.base_mapped(vpn):
                if pt.flags[vpn] & SHARED_ZERO:
                    cost += host.fault(self.host_proc, vpn)  # COW break
            elif not pt.region_huge(vpn >> 9):
                cost += host.fault(self.host_proc, vpn)
            # Mark the backing as holding guest data so host-side bloat
            # recovery never de-duplicates an in-use guest page; only KSM
            # (which reads guest truth) may reclaim VM memory.
            translated = pt.translate(vpn)
            if translated is not None:
                host.frames.write(translated[0], first_nonzero=9)
        return cost

    def guest_zero_mask(self, host_hvpn: int) -> np.ndarray:
        """Guest-truth zero mask for the 512 frames behind a host region."""
        guest_frame0 = (host_hvpn << 9) - self.ram_vma.start
        return self.guest.frames.zero_mask(guest_frame0, PAGES_PER_HUGE)

    # ------------------------------------------------------------------ #
    # epoch coupling                                                      #
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        """Update nested-walk cost inputs and host PMU attribution."""
        regions = self.host_proc.regions
        resident = regions.resident_arr() > 0
        if resident.any():
            self._host_huge_fraction = float(regions.is_huge_arr()[resident].mean())
        walk = sum(p.stats.walk_cycles for p in self.guest.processes)
        total = sum(p.stats.total_cycles for p in self.guest.processes)
        self.hypervisor.host.pmu[self.host_proc.pid].record(
            walk - self._prev_walk, total - self._prev_total
        )
        self._prev_walk, self._prev_total = walk, total
        self._apply_swap_pressure()

    def _apply_swap_pressure(self) -> None:
        swap = self.hypervisor.host.swap
        if swap is None:
            self.guest.external_slowdown = 0.0
            return
        pid = self.host_proc.pid
        mine = sum(1 for (spid, _) in swap.swapped if spid == pid)
        frac = mine / max(self.ram_pages, 1)
        self.guest.external_slowdown = frac * SWAP_THRASH_FACTOR

    # ------------------------------------------------------------------ #
    # workload management                                                 #
    # ------------------------------------------------------------------ #

    def spawn(self, workload: Workload, name: str | None = None) -> WorkloadRun:
        """Start a workload inside the guest kernel."""
        return self.guest.spawn(workload, name)

    @property
    def active(self) -> bool:
        return bool(self.guest.active_runs())


class Hypervisor:
    """A host kernel plus its virtual machines, run in lockstep epochs."""

    def __init__(self, host_config: KernelConfig, host_policy_factory):
        self.host = Kernel(host_config, host_policy_factory)
        self.vms: list[VirtualMachine] = []
        self.ksm = None
        self.balloons: list = []

    def create_vm(
        self,
        name: str,
        ram_bytes: int,
        guest_policy_factory,
        guest_config: Optional[KernelConfig] = None,
    ) -> VirtualMachine:
        """Create and register a new VM backed by a host process."""
        vm = VirtualMachine(self, name, ram_bytes, guest_policy_factory, guest_config)
        self.vms.append(vm)
        return vm

    def enable_ksm(self, pages_per_sec: float = 50_000.0):
        """Start host-side same-page merging over all VM regions."""
        from repro.virt.ksm import KSMThread

        self.ksm = KSMThread(self, pages_per_sec=pages_per_sec)
        return self.ksm

    def enable_ballooning(self, pages_per_sec: float = 50_000.0) -> None:
        """Attach a balloon driver to every current VM."""
        from repro.virt.balloon import BalloonDriver

        self.balloons = [BalloonDriver(vm, pages_per_sec) for vm in self.vms]

    def run_epoch(self) -> None:
        """Advance guests, host, KSM, balloons and swap drain by one epoch."""
        for vm in self.vms:
            vm.guest.run_epoch()
        self.host.run_epoch()
        if self.ksm is not None:
            self.ksm.run_epoch()
        for balloon in self.balloons:
            balloon.run_epoch()
        self._drain_swap()
        for vm in self.vms:
            vm.refresh()

    #: keep this fraction of host memory free while paging VMs back in.
    SWAP_DRAIN_RESERVE = 0.05

    def _drain_swap(self) -> None:
        """Demand-page swapped VM memory back while the host has room.

        Guests keep touching their working sets, so whenever ballooning
        or KSM frees host memory, the swapped-out hot pages fault back in
        (at swap-in cost) and the thrash subsides — the recovery path of
        the Figure 11 experiment."""
        swap = self.host.swap
        if swap is None or not swap.swapped:
            return
        reserve = int(self.host.buddy.total_pages * self.SWAP_DRAIN_RESERVE)
        budget = max(0, (self.host.buddy.free_pages - reserve) // 4)
        if budget == 0:
            return
        procs = {vm.host_proc.pid: vm.host_proc for vm in self.vms}
        for pid, vpn in list(swap.swapped)[:budget]:
            proc = procs.get(pid)
            if proc is None:
                swap.swapped.discard((pid, vpn))
                continue
            self.host.fault(proc, vpn)

    def run(self, max_epochs: int = 100_000) -> int:
        """Run epochs until every VM's workloads finish (or the cap)."""
        done = 0
        while any(vm.active for vm in self.vms) and done < max_epochs:
            self.run_epoch()
            done += 1
        return done
