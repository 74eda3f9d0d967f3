"""Property-based tests for kernel-level invariants.

A random interleaving of faults, madvise frees, promotions, demotions and
zero-page dedup must preserve:

* translation consistency — every mapped virtual page resolves to an
  allocated frame (or the canonical zero frame), and no frame is mapped
  by two pages;
* region accounting — ``RegionInfo.resident`` equals the actual mapped
  page count of the region;
* physical conservation — allocated frames == frames reachable from page
  tables + reserved frames.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.linux import LinuxTHPPolicy
from repro.tlb.perf import PMUCounters
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.process import Process


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel = Kernel(
            KernelConfig(mem_bytes=32 * MB),
            lambda k: LinuxTHPPolicy(k, khugepaged=False),
        )
        self.proc = Process("prop")
        self.kernel.processes.append(self.proc)
        self.kernel.pmu[self.proc.pid] = PMUCounters()
        self.vma = self.kernel.mmap(self.proc, 16 * MB, "heap")

    @rule(offset=st.integers(0, 4095))
    def fault(self, offset):
        self.kernel.fault(self.proc, self.vma.start + offset)

    @rule(offset=st.integers(0, 4000), npages=st.integers(1, 300))
    def madvise(self, offset, npages):
        npages = min(npages, self.vma.npages - offset)
        self.kernel.madvise_free(self.proc, self.vma.start + offset, npages)

    @rule(region=st.integers(0, 7))
    def promote(self, region):
        self.kernel.promote_region(self.proc, (self.vma.start >> 9) + region)

    @rule(region=st.integers(0, 7))
    def demote(self, region):
        hvpn = (self.vma.start >> 9) + region
        if hvpn in self.proc.page_table.huge:
            self.kernel.demote_region(self.proc, hvpn)

    @rule(region=st.integers(0, 7))
    def dedup(self, region):
        hvpn = (self.vma.start >> 9) + region
        if hvpn not in self.proc.page_table.huge:
            self.kernel.dedup_zero_pages(self.proc, hvpn)

    @rule(offset=st.integers(0, 4095))
    def write_data(self, offset):
        translated = self.proc.page_table.translate(self.vma.start + offset)
        if translated is not None:
            frame, huge = translated
            pte = self.proc.page_table.base.get(self.vma.start + offset)
            if pte is not None and not pte.private:
                return  # writes to shared pages go through fault()
            self.kernel.frames.write(frame, first_nonzero=offset % 4096)

    @rule(offset=st.integers(0, 4095), tag=st.integers(1, 4))
    def write_duplicate_content(self, offset, tag):
        """Give pages one of a few shared tags so ksm finds duplicates."""
        pte = self.proc.page_table.base.get(self.vma.start + offset)
        if pte is None or not pte.private:
            return
        self.kernel.frames.write(pte.frame, first_nonzero=0, tag=1_000_000 + tag)

    @rule()
    def ksm_pass(self):
        from repro.mem.samepage import SamePageMerger

        if not hasattr(self, "_merger"):
            self._merger = SamePageMerger(self.kernel, pages_per_sec=1e9)
        self._merger.run_epoch()

    @invariant()
    def page_table_and_rmap_consistent(self):
        self.proc.page_table.check()
        self.kernel.check_rmap()

    @invariant()
    def translations_consistent(self):
        pt = self.proc.page_table
        frames = self.kernel.frames
        zero_frame = self.kernel.zero_registry.zero_frame
        seen: set[int] = set()
        shared_seen: dict[int, int] = {}
        for vpn, pte in pt.base.items():
            if pte.shared_zero:
                assert pte.frame == zero_frame
                continue
            assert frames.allocated[pte.frame], f"vpn {vpn} maps a free frame"
            if pte.shared_cow:
                shared_seen[pte.frame] = shared_seen.get(pte.frame, 0) + 1
                continue
            assert pte.frame not in seen
            seen.add(pte.frame)
        for hvpn, hpte in pt.huge.items():
            assert hpte.frame % PAGES_PER_HUGE == 0
            for i in range(PAGES_PER_HUGE):
                assert frames.allocated[hpte.frame + i]
                assert hpte.frame + i not in seen
                seen.add(hpte.frame + i)
        # private frames never alias shared canonicals, and sharer counts
        # never exceed the registry's refcounts
        registry = self.kernel.cow_registry
        for frame, count in shared_seen.items():
            assert frame not in seen, f"frame {frame} both private and shared"
            assert count <= registry.refcount.get(frame, 0)
            assert frames.pinned[frame]

    @invariant()
    def region_residency_matches(self):
        pt = self.proc.page_table
        for hvpn, region in self.proc.regions.items():
            if region.is_huge:
                assert hvpn in pt.huge
                assert region.resident == PAGES_PER_HUGE
            else:
                actual = len(pt.region_base_vpns(hvpn))
                assert region.resident == actual, f"region {hvpn}"

    @invariant()
    def physical_conservation(self):
        pt = self.proc.page_table
        mapped = sum(
            1 for pte in pt.base.values() if pte.private
        ) + len(pt.huge) * PAGES_PER_HUGE
        # + reserved zero frame + ksm canonical frames
        overhead = 1 + len(self.kernel.cow_registry.refcount)
        assert self.kernel.frames.allocated_count() == mapped + overhead
        assert (
            self.kernel.buddy.free_pages + mapped + overhead
            == self.kernel.buddy.total_pages
        )


KernelMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None
)
TestKernelProperties = KernelMachine.TestCase
