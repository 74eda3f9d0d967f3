"""Tests for the WSS estimator and the §2.4 claim it exists to test."""

import pytest

from repro.core.wss import WSSEstimator, wss_overhead_belief
from repro.experiments import Scale, make_kernel
from repro.units import GB, SEC
from repro.workloads.microbench import RandomAccess, SequentialAccess
from repro.workloads.npb import NPBWorkload

SCALE = Scale(1 / 128)


def run_pair(w1, w2):
    kernel = make_kernel(96 * GB, "linux-4kb", SCALE)
    r1, r2 = kernel.spawn(w1), kernel.spawn(w2)
    kernel.run_epochs(65)  # two access-bit sampling rounds
    return kernel, r1.proc, r2.proc


def test_wss_tracks_sampled_coverage():
    kernel, cg, _ = run_pair(
        NPBWorkload("cg.D", scale=SCALE.factor, work_us=1000 * SEC),
        NPBWorkload("mg.D", scale=SCALE.factor, work_us=1000 * SEC),
    )
    estimator = WSSEstimator(kernel)
    # cg.D's hot region is ~47% of its 16 GB footprint
    assert estimator.wss_bytes(cg) > 0.2 * SCALE.bytes(16 * GB)


def test_wss_misranks_mgd_vs_cgd():
    """§2.4: mg.D has the larger WSS but ~40x lower real overhead."""
    kernel, cg, mg = run_pair(
        NPBWorkload("cg.D", scale=SCALE.factor, work_us=1000 * SEC),
        NPBWorkload("mg.D", scale=SCALE.factor, work_us=1000 * SEC),
    )
    estimator = WSSEstimator(kernel)
    assert estimator.wss_pages(mg) > estimator.wss_pages(cg), \
        "mg.D's working set is larger"
    # naive belief follows WSS...
    assert wss_overhead_belief(kernel, mg) >= wss_overhead_belief(kernel, cg)
    # ...but ground truth is the other way around
    assert mg.mmu_overhead < cg.mmu_overhead / 10


def test_wss_blind_to_pattern():
    """Table 9's pair: identical coverage, so identical WSS belief,
    despite a 60x real-overhead difference."""
    kernel, rand, seq = run_pair(
        RandomAccess(scale=SCALE.factor, work_us=1000 * SEC),
        SequentialAccess(scale=SCALE.factor, work_us=1000 * SEC),
    )
    belief_rand = wss_overhead_belief(kernel, rand)
    belief_seq = wss_overhead_belief(kernel, seq)
    assert belief_rand == pytest.approx(belief_seq, rel=0.05)
    assert seq.mmu_overhead < rand.mmu_overhead / 20


def test_belief_zero_within_tlb_reach():
    kernel = make_kernel(96 * GB, "linux-4kb", SCALE)
    from repro.vm.process import Process

    idle = Process("idle")
    assert wss_overhead_belief(kernel, idle) == 0.0


def test_wss_vectorized_matches_scalar_exactly():
    """The column-array gather must be bit-identical to a per-region sum.

    Same values, same sequential addition order — ``==``, not approx.
    """
    kernel, rand, seq = run_pair(
        RandomAccess(scale=SCALE.factor, work_us=1000 * SEC),
        SequentialAccess(scale=SCALE.factor, work_us=1000 * SEC),
    )
    estimator = WSSEstimator(kernel)
    for proc in (rand, seq):
        table = proc.regions
        fast = estimator.wss_pages(proc)
        slow = sum(table.coverage_ema.item(slot)
                   for hvpn, slot in table.slot_of.items()
                   if proc.page_table.region_resident(hvpn) > 0)
        assert fast == slow
        assert fast > 0
