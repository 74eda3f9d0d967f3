"""Provenance-ledger invariants under arbitrary kernel step sequences.

A twin-kernel state machine (same shape as ``test_prop_vectorized``)
drives a vectorized kernel and a scalar one (built with
:func:`repro.oracle.install`) — each with an audit log
attached — through randomized faults (single and bulk), frees,
promotions, demotions, access-bit samples, fragmenter bursts and
compaction runs, asserting after every step that

* the ledger's ``live`` column is exactly the frame table's
  ``allocated`` bitmap, and live records carry the frame's owner pid —
  i.e. every mapped frame has exactly one live provenance record and no
  freed frame keeps one;
* every frame reachable through the page table (base PTEs, and all 512
  frames of each huge block) is live in the ledger, consistent with the
  page-table mirrors;
* every freed frame that ever recorded a lifecycle event has ``freed``
  as its most recent ring entry (pre-zeroing is off, so nothing touches
  a frame after its free); and
* the two ledgers are bit-identical — provenance is part of the
  vectorized-equals-scalar contract, not an observer that perturbs it.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import audit, oracle
from repro.core.hawkeye import HawkEyePolicy
from repro.experiments import reset_sim_state
from repro.kernel.kernel import Kernel, KernelConfig
from repro.tlb.perf import PMUCounters
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.process import Process
from repro.workloads.base import AccessProfile, RegionAccessSpec
from tests.conftest import LEDGER_COLUMNS, mappings



def _build(vectorized: bool):
    """One audited kernel + process + 16 MiB base-mapped heap."""
    # same pid on both twins, so pid-carrying ledger columns compare
    reset_sim_state()
    kernel = Kernel(
        KernelConfig(mem_bytes=32 * MB),
        lambda k: HawkEyePolicy(k, huge_faults=False, prezero_enabled=False),
    )
    if not vectorized:
        oracle.install(kernel)
    audit.attach(kernel)
    proc = Process("prop-audit")
    kernel.processes.append(proc)
    kernel.pmu[proc.pid] = PMUCounters()
    vma = kernel.mmap(proc, 16 * MB, "heap")
    return kernel, proc, vma


class AuditTwinMachine(RuleBasedStateMachine):
    """Randomized fault/free/promote/demote steps on audited twins."""

    def __init__(self):
        super().__init__()
        self.twins = [_build(True), _build(False)]

    def teardown(self):
        for kernel, _proc, _vma in self.twins:
            audit.detach(kernel)

    @rule(offset=st.integers(0, 4095))
    def fault(self, offset):
        for kernel, proc, vma in self.twins:
            kernel.fault(proc, vma.start + offset)

    @rule(offset=st.integers(0, 4000), npages=st.integers(1, 300))
    def fault_range(self, offset, npages):
        """Bulk base faults vs the per-page reference: every frame of a
        run records buddy order 0, however long its extent."""
        for kernel, proc, vma in self.twins:
            kernel.fault_range(proc, vma.start + offset,
                               min(npages, vma.npages - offset))

    @rule(keep=st.sampled_from([0.0, 0.05, 0.3]),
          fmfi=st.sampled_from([None, 0.5, 1.0]))
    def fragment(self, keep, fmfi):
        for kernel, _proc, _vma in self.twins:
            kernel.fragmenter.fragment(keep_fraction=keep, target_fmfi=fmfi)

    @rule(budget=st.integers(1, 3000))
    def compact(self, budget):
        for kernel, _proc, _vma in self.twins:
            kernel.compactor.run(budget)

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

    @rule(coverage=st.integers(0, 600))
    def sample(self, coverage):
        profile = AccessProfile(specs=[
            RegionAccessSpec("heap", coverage=coverage),
        ])
        for kernel, proc, _vma in self.twins:
            proc.access_profile = profile
            kernel._sample_access_bits()

    # -- provenance invariants ------------------------------------------ #

    @invariant()
    def ledger_mirrors_frame_table(self):
        """live ≡ allocated; live records carry the owner pid."""
        for kernel, _proc, _vma in self.twins:
            led = kernel.audit.ledger
            frames = kernel.frames
            assert np.array_equal(led.live, frames.allocated)
            live = np.nonzero(led.live)[0]
            assert np.array_equal(led.alloc_pid[live], frames.owner[live])

    @invariant()
    def mapped_frames_have_live_records(self):
        """Every page-table-reachable frame is live."""
        for kernel, proc, _vma in self.twins:
            led = kernel.audit.ledger
            pt = proc.page_table
            base, huge = mappings(pt)
            for vpn, (frame, _) in base.items():
                assert led.live[frame], (vpn, frame)
            for hvpn, (frame, _) in huge.items():
                assert led.live[frame:frame + PAGES_PER_HUGE].all(), hvpn

    @invariant()
    def freed_frames_marked_freed(self):
        """A dead frame's newest ring event is the free that killed it."""
        for kernel, _proc, _vma in self.twins:
            led = kernel.audit.ledger
            dead = np.nonzero(~led.live & (led.ev_len > 0))[0]
            for frame in dead.tolist():
                name, _epoch, _arg = led.frame_events(frame)[-1]
                assert name == "freed", (frame, led.frame_events(frame))

    @invariant()
    def twin_ledgers_identical(self):
        led0 = self.twins[0][0].audit.ledger
        led1 = self.twins[1][0].audit.ledger
        for column in LEDGER_COLUMNS:
            assert np.array_equal(getattr(led0, column),
                                  getattr(led1, column)), column


AuditTwinMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
TestAuditProvenance = AuditTwinMachine.TestCase
