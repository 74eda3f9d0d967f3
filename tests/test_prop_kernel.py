"""Property-based tests for kernel-level invariants.

A random interleaving of faults, madvise frees, promotions, demotions and
zero-page dedup must preserve:

* translation consistency — every mapped virtual page resolves to an
  allocated frame (or the canonical zero frame), and no frame is mapped
  by two pages;
* region accounting — a recorded region's residency equals the actual
  mapped page count of the region;
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
from repro.vm.page_table import SHARED, SHARED_COW, SHARED_ZERO
from repro.vm.process import Process
from tests.conftest import mappings


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
        if self.proc.page_table.region_huge(hvpn):
            self.kernel.demote_region(self.proc, hvpn)

    @rule(region=st.integers(0, 7))
    def dedup(self, region):
        hvpn = (self.vma.start >> 9) + region
        if not self.proc.page_table.region_huge(hvpn):
            self.kernel.dedup_zero_pages(self.proc, hvpn)

    @rule(offset=st.integers(0, 4095))
    def write_data(self, offset):
        translated = self.proc.page_table.translate(self.vma.start + offset)
        if translated is not None:
            frame, huge = translated
            if not huge and self.proc.page_table.flags[self.vma.start + offset] & SHARED:
                return  # writes to shared pages go through fault()
            self.kernel.frames.write(frame, first_nonzero=offset % 4096)

    @rule(offset=st.integers(0, 4095), tag=st.integers(1, 4))
    def write_duplicate_content(self, offset, tag):
        """Give pages one of a few shared tags so ksm finds duplicates."""
        pt, vpn = self.proc.page_table, self.vma.start + offset
        if not pt.base_mapped(vpn) or pt.flags[vpn] & SHARED:
            return
        self.kernel.frames.write(int(pt.frame[vpn]), first_nonzero=0, tag=1_000_000 + tag)

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
        base, huge = mappings(pt)
        for vpn, (frame, flags) in base.items():
            if flags & SHARED_ZERO:
                assert frame == zero_frame
                continue
            assert frames.allocated[frame], f"vpn {vpn} maps a free frame"
            if flags & SHARED_COW:
                shared_seen[frame] = shared_seen.get(frame, 0) + 1
                continue
            assert frame not in seen
            seen.add(frame)
        for hvpn, (block, _) in huge.items():
            assert block % PAGES_PER_HUGE == 0
            for i in range(PAGES_PER_HUGE):
                assert frames.allocated[block + i]
                assert block + i not in seen
                seen.add(block + i)
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
        table = self.proc.regions
        for hvpn, resident, huge in zip(table.slot_of,
                                        table.resident_arr().tolist(),
                                        table.is_huge_arr().tolist()):
            assert pt.region_resident(hvpn) == resident
            if huge:
                assert pt.region_huge(hvpn)
                assert resident == PAGES_PER_HUGE
            else:
                actual = int((pt.region_mirror(hvpn)[0] >= 0).sum())
                assert resident == actual, f"region {hvpn}"

    @invariant()
    def physical_conservation(self):
        pt = self.proc.page_table
        vpns = pt.mapped_vpns()
        mapped = int((pt.flags[vpns] & SHARED == 0).sum()) + pt.nhuge * PAGES_PER_HUGE
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
