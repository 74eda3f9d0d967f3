"""Property-based tests for the kernel with swap enabled.

Extends the kernel state machine: under memory pressure, faults trigger
swap-outs instead of OOM; the conservation invariant gains a swap term.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.linux import LinuxTHPPolicy
from repro.tlb.perf import PMUCounters
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.page_table import SHARED_ZERO
from repro.vm.process import Process


class SwapKernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # memory deliberately smaller than the VMA: faults will swap
        self.kernel = Kernel(
            KernelConfig(mem_bytes=8 * MB, swap_bytes=64 * MB),
            lambda k: LinuxTHPPolicy(k, khugepaged=False),
        )
        self.proc = Process("swapprop")
        self.kernel.processes.append(self.proc)
        self.kernel.pmu[self.proc.pid] = PMUCounters()
        self.vma = self.kernel.mmap(self.proc, 24 * MB, "heap")

    @rule(offset=st.integers(0, 6143))
    def fault(self, offset):
        self.kernel.fault(self.proc, self.vma.start + offset)

    @rule(offset=st.integers(0, 6000), npages=st.integers(1, 200))
    def madvise(self, offset, npages):
        npages = min(npages, self.vma.npages - offset)
        self.kernel.madvise_free(self.proc, self.vma.start + offset, npages)

    @rule(region=st.integers(0, 11))
    def promote(self, region):
        self.kernel.promote_region(self.proc, (self.vma.start >> 9) + region)

    @invariant()
    def swapped_pages_are_unmapped(self):
        pt = self.proc.page_table
        for pid, vpn in self.kernel.swap.swapped:
            assert pid == self.proc.pid
            assert pt.translate(vpn) is None, f"swapped vpn {vpn} still mapped"

    @invariant()
    def no_page_both_resident_and_swapped(self):
        pt = self.proc.page_table
        swapped_vpns = {v for _, v in self.kernel.swap.swapped}
        assert not (swapped_vpns & set(pt.mapped_vpns().tolist())), "page mapped AND swapped"

    @invariant()
    def conservation_with_swap(self):
        pt = self.proc.page_table
        vpns = pt.mapped_vpns()
        mapped = int((pt.flags[vpns] & SHARED_ZERO == 0).sum()) + pt.nhuge * PAGES_PER_HUGE
        kernel = self.kernel
        assert kernel.frames.allocated_count() == mapped + 1  # + zero frame
        assert kernel.buddy.free_pages + mapped + 1 == kernel.buddy.total_pages

    @invariant()
    def swap_within_capacity(self):
        assert len(self.kernel.swap.swapped) <= self.kernel.swap.capacity_pages


SwapKernelMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=50, deadline=None
)
TestSwapKernelProperties = SwapKernelMachine.TestCase
