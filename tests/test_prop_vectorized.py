"""Scalar-vs-vectorized equivalence of the epoch engine.

The vectorized hot paths promise *bit-identical* behaviour to the
scalar reference loops they replaced, which :mod:`repro.oracle` keeps.
A twin-kernel state machine drives two kernels — one plain (vectorized),
one with :func:`repro.oracle.install` applied (scalar) — through the
same randomized sequence of
faults, frees, promotions, demotions, profile changes, access-bit
samples, fragmenter bursts and compaction runs, and asserts after every
step that

* page-table translations (base and huge) are identical,
* each page table passes ``check()`` and each kernel's rmap inverts its
  page tables (``check_rmap()``),
* region-table metadata (residency, EMAs, idle bits) is float-exact,
* every AccessMap bucket holds the same regions in the same order
  (order encodes recency — the promotion engine consumes it head first),
  and
* the buddy free lists agree with dict order kept, as do the frame-table
  columns and the file cache, and the free lists pass ``check()``.

A directed NUMA test does the same for the hint-fault candidate harvest
with an interleave mempolicy forcing half the regions remote.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.hawkeye import HawkEyePolicy
from repro.experiments import reset_sim_state
from repro.kernel.kernel import Kernel, KernelConfig
from repro.numa.mempolicy import MemPolicy, MemPolicyKind
from repro.numa.topology import NumaTopology
from repro.tlb.perf import PMUCounters
from repro.units import MB, PAGES_PER_HUGE, SEC
from repro.vm.page_table import SHARED
from repro.vm.process import Process
from repro.workloads.base import AccessProfile, RegionAccessSpec
from tests import oracle
from tests.conftest import buddy_snapshot, mappings


def _build(vectorized: bool, nodes: int = 1, balance: bool = False):
    """One kernel + process + 16 MiB heap, base-mapped HawkEye."""
    # same pid on both twins, so the frame-table owner columns compare
    reset_sim_state()
    kernel = Kernel(
        KernelConfig(
            mem_bytes=32 * MB,
            topology=NumaTopology(nodes=nodes),
            knumad_pages_per_sec=1000.0 if balance else 0.0,
        ),
        lambda k: HawkEyePolicy(k, huge_faults=False, prezero_enabled=False),
    )
    if not vectorized:
        oracle.install(kernel)
    proc = Process("prop")
    kernel.processes.append(proc)
    kernel.pmu[proc.pid] = PMUCounters()
    vma = kernel.mmap(proc, 16 * MB, "heap")
    return kernel, proc, vma


class TwinMachine(RuleBasedStateMachine):
    """Drive a vectorized and a scalar kernel through identical ops."""

    def __init__(self):
        super().__init__()
        self.twins = [_build(True), _build(False)]

    @rule(offset=st.integers(0, 4095))
    def fault(self, offset):
        for kernel, proc, vma in self.twins:
            kernel.fault(proc, vma.start + offset)

    @rule(offset=st.integers(0, 4000), npages=st.integers(1, 300))
    def madvise(self, offset, npages):
        for kernel, proc, vma in self.twins:
            n = min(npages, vma.npages - offset)
            kernel.madvise_free(proc, vma.start + offset, n)

    @rule(region=st.integers(0, 7))
    def promote(self, region):
        for kernel, proc, vma in self.twins:
            kernel.promote_region(proc, (vma.start >> 9) + region)

    @rule(region=st.integers(0, 7))
    def demote(self, region):
        for kernel, proc, vma in self.twins:
            hvpn = (vma.start >> 9) + region
            if proc.page_table.region_huge(hvpn):
                kernel.demote_region(proc, hvpn)

    @rule(cov_hot=st.integers(0, 600), cov_cold=st.integers(0, 600),
          hot_len=st.floats(0.1, 1.0), cold_start=st.floats(0.0, 0.9))
    def set_profile(self, cov_hot, cov_cold, hot_len, cold_start):
        """Swap the access profile both samplers read (covers >512 clip)."""
        profile = AccessProfile(specs=[
            RegionAccessSpec("heap", coverage=cov_hot, hot_len=hot_len),
            RegionAccessSpec("heap", coverage=cov_cold,
                             hot_start=cold_start, hot_len=0.3),
        ])
        for _kernel, proc, _vma in self.twins:
            proc.access_profile = profile

    @rule()
    def sample(self):
        for kernel, _proc, _vma in self.twins:
            kernel._sample_access_bits()

    @rule(keep=st.sampled_from([0.0, 0.05, 0.3]),
          fmfi=st.sampled_from([None, 0.0, 0.5, 0.9, 1.0]))
    def fragment(self, keep, fmfi):
        """Bulk fill + evict vs the per-frame reference (oracle)."""
        results = [kernel.fragmenter.fragment(keep_fraction=keep,
                                              target_fmfi=fmfi)
                   for kernel, _proc, _vma in self.twins]
        assert results[0] == results[1]

    @rule(budget=st.integers(1, 3000))
    def compact(self, budget):
        """Per-extent evacuation vs the per-page reference (oracle)."""
        stats = [kernel.compactor.run(budget)
                 for kernel, _proc, _vma in self.twins]
        assert stats[0] == stats[1]

    # -- equivalence invariants ----------------------------------------- #

    @invariant()
    def translations_identical(self):
        (_, p0, _), (_, p1, _) = self.twins
        (b0, h0), (b1, h1) = mappings(p0.page_table), mappings(p1.page_table)
        assert {v: (f, fl & SHARED) for v, (f, fl) in b0.items()} == \
               {v: (f, fl & SHARED) for v, (f, fl) in b1.items()}
        assert {h: f for h, (f, _) in h0.items()} == {h: f for h, (f, _) in h1.items()}

    @invariant()
    def page_tables_and_rmaps_consistent(self):
        for kernel, proc, _vma in self.twins:
            proc.page_table.check()
            kernel.check_rmap()

    @invariant()
    def regions_identical(self):
        (_, p0, _), (_, p1, _) = self.twins
        t0, t1 = p0.regions, p1.regions
        assert list(t0.slot_of.items()) == list(t1.slot_of.items())
        assert t0.n == t1.n
        for column in ("hvpn", "coverage_ema", "last_coverage", "idle",
                       "promotions", "bloat_demoted"):  # floats bit-exact
            assert np.array_equal(getattr(t0, column)[:t0.n],
                                  getattr(t1, column)[:t1.n]), column
        assert np.array_equal(t0.resident_arr(), t1.resident_arr())
        assert np.array_equal(t0.is_huge_arr(), t1.is_huge_arr())

    @invariant()
    def buddy_identical(self):
        """Free lists (with dict order), frame columns and file cache."""
        (k0, _, _), (k1, _, _) = self.twins
        assert buddy_snapshot(k0.buddy) == buddy_snapshot(k1.buddy)
        assert k0.fragmenter._cache_pages == k1.fragmenter._cache_pages
        k0.buddy.check()

    @invariant()
    def access_maps_identical(self):
        (k0, p0, _), (k1, p1, _) = self.twins
        m0 = k0.policy.access_maps.get(p0.pid)
        m1 = k1.policy.access_maps.get(p1.pid)
        if m0 is None or m1 is None:
            assert (m0 is None) == (m1 is None)
            return
        for b0, b1 in zip(m0.buckets, m1.buckets):
            assert list(b0) == list(b1)  # contents AND order


TwinMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None
)
TestVectorizedEquivalence = TwinMachine.TestCase


def _drive_numa(vectorized: bool, balance: bool = True):
    """Interleaved placement (+ balancing): run samples, snapshot state."""
    reset_sim_state()
    kernel, proc, vma = _build(vectorized, nodes=2, balance=balance)
    proc.mempolicy = MemPolicy(kind=MemPolicyKind.INTERLEAVE)
    for region in range(8):
        for page in range(0, PAGES_PER_HUGE, 64):
            kernel.fault(proc, vma.start + (region << 9) + page)
    proc.access_profile = AccessProfile(specs=[
        RegionAccessSpec("heap", coverage=200, hot_len=0.75),
    ])
    for _ in range(4):
        kernel._sample_access_bits()
        kernel.numa.on_epoch()
        kernel.now_us += SEC
    amap = kernel.policy.access_maps[proc.pid]
    return {
        "candidates": {h: ema for (_pid, h), ema
                       in kernel.numa._candidates.items()},
        "hint_faults": kernel.stats.numa_hint_faults,
        "migrated": kernel.stats.numa_pages_migrated,
        "buckets": [list(b) for b in amap.buckets],
        "emas": list(zip(proc.regions.slot_of,
                         proc.regions.coverage_ema[:len(proc.regions)].tolist())),
        "counts": [kernel.numa.region_node_counts(proc, h)
                   for h in proc.regions.slot_of],
    }


def test_numa_harvest_vectorized_matches_scalar():
    """Candidate set, EMAs (with the remote x0.5 discount), bucket order
    and migration totals are identical across the two harvest paths."""
    vec = _drive_numa(True)
    scalar = _drive_numa(False)
    assert vec == scalar
    assert vec["hint_faults"] > 0  # the interleave actually went remote


def test_numa_remote_discount_vectorized_matches_scalar():
    """Without knumad the interleaved regions stay remote, so every sample
    ranks them with HawkEye's remote-coverage discount on both paths (with
    balancing on, the first migrations make them local and the final
    bucket order no longer shows the discount)."""
    vec = _drive_numa(True, balance=False)
    scalar = _drive_numa(False, balance=False)
    assert vec == scalar
    assert vec["hint_faults"] == 0 and vec["migrated"] == 0


def _drive_compaction(vectorized: bool):
    """Fragment a 2-node kernel, fault and free around the holes, compact
    (per-zone compactors), and snapshot the allocator."""
    kernel, proc, vma = _build(vectorized, nodes=2)
    kernel.fragmenter.fragment(keep_fraction=0.05)
    stats = []
    for offset in range(0, 4096, 1024):
        kernel.fault_range(proc, vma.start + offset, 700)
        stats.append(kernel.compactor.run(1500))
        kernel.madvise_free(proc, vma.start + offset + 100, 400)
        stats.append(kernel.compactor.run(1500))
    return {
        "buddy": buddy_snapshot(kernel.buddy),
        "cache": sorted(kernel.fragmenter._cache_pages),
        "stats": stats,
        "mapped": {v: f for v, (f, _) in mappings(proc.page_table)[0].items()},
    }


def test_numa_compaction_matches_reference():
    """NodeCompactor's zone compactors, batched vs the per-page body."""
    vec = _drive_compaction(True)
    assert vec == _drive_compaction(False)
    assert sum(s.pages_moved for s in vec["stats"]) > 0
