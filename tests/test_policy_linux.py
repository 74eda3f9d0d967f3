"""Unit tests for the Linux policies (4KB baseline and THP)."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.kernel.kernel import Kernel
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.process import Process
from repro.vm.vma import HugePageHint
from tests.conftest import small_config
from tests.test_fault import make_proc


def touch(kernel, proc, vma, n):
    for vpn in range(vma.start, vma.start + n):
        kernel.fault(proc, vpn)


def test_linux4k_never_maps_huge(kernel4k):
    proc, vma = make_proc(kernel4k)
    touch(kernel4k, proc, vma, 2 * PAGES_PER_HUGE)
    assert proc.page_table.nhuge == 0
    kernel4k.run_epochs(5)
    assert kernel4k.stats.promotions == 0


def test_khugepaged_promotes_sparse_regions(kernel_thp):
    """Linux collapses around holes (max_ptes_none): 1 resident page
    is enough — the paper's bloat-by-promotion mechanism."""
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)  # force base faults
    proc, vma = make_proc(kernel_thp)
    kernel_thp.fault(proc, vma.start)  # a single base page
    assert proc.stats.huge_faults == 0
    kernel_thp.fragmenter.release_all()  # contiguity returns
    kernel_thp.run_epochs(3)
    assert proc.page_table.region_huge(vma.start >> 9)
    assert kernel_thp.stats.promotions == 1


def test_khugepaged_scans_low_to_high_va(kernel_thp):
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    # fault one page in every region, high region first
    regions = list(range(vma.start >> 9, vma.end >> 9))
    for hvpn in reversed(regions):
        kernel_thp.fault(proc, hvpn << 9)
    kernel_thp.fragmenter.release_all()
    promoted_order = []
    original = kernel_thp.promote_region

    def spy(p, hvpn):
        result = original(p, hvpn)
        if result is not None:
            promoted_order.append(hvpn)
        return result

    kernel_thp.promote_region = spy
    kernel_thp.run_epochs(2)
    assert promoted_order == sorted(promoted_order)
    assert promoted_order[0] == regions[0]


def test_khugepaged_fcfs_across_processes():
    kernel = Kernel(small_config(128), lambda k: LinuxTHPPolicy(k, promote_per_sec=4.0))
    kernel.fragmenter.fragment(keep_fraction=0.02)
    first, vma1 = make_proc(kernel, nbytes=8 * MB)
    second, vma2 = make_proc(kernel, nbytes=8 * MB)
    for vma, proc in ((vma1, first), (vma2, second)):
        for hvpn in range(vma.start >> 9, vma.end >> 9):
            kernel.fault(proc, hvpn << 9)
    kernel.fragmenter.release_all()
    kernel.run_epochs(1)  # budget 4: all go to the first process
    assert first.stats.promotions == 4
    assert second.stats.promotions == 0
    kernel.run_epochs(1)  # first exhausted (4 regions), second starts
    assert second.stats.promotions == 4


def test_khugepaged_forgets_exited_process_cursor(kernel_thp):
    """An exited process leaves no scan cursor behind."""
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    gone, vma1 = make_proc(kernel_thp)
    kept, vma2 = make_proc(kernel_thp)
    kernel_thp.fault(gone, vma1.start)
    kernel_thp.fault(kept, vma2.start)
    kernel_thp.fragmenter.release_all()
    kernel_thp.run_epochs(1)
    cursor = kernel_thp.policy._cursor
    assert {gone.pid, kept.pid} <= set(cursor)
    kernel_thp.exit_process(gone)
    assert gone.pid not in cursor
    assert kept.pid in cursor


def test_khugepaged_rate_limited(kernel_thp):
    kernel_thp.policy._limiter.per_second = 2.0
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel_thp, nbytes=16 * MB)
    for hvpn in range(vma.start >> 9, vma.end >> 9):
        kernel_thp.fault(proc, hvpn << 9)
    kernel_thp.fragmenter.release_all()
    kernel_thp.run_epochs(1)
    assert proc.stats.promotions <= 4  # 2/s with ≤2 epochs of carryover


def test_khugepaged_disabled():
    kernel = Kernel(small_config(), lambda k: LinuxTHPPolicy(k, khugepaged=False))
    kernel.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    kernel.fragmenter.release_all()
    kernel.run_epochs(5)
    assert kernel.stats.promotions == 0


def _sorted_scan(policy, proc):
    """The scan khugepaged's cursor walk must agree with: sort every
    eligible region, take the first at or above the cursor, else wrap.
    Returns ``(hvpn, cursor after)``."""
    cursor = policy._cursor.get(proc.pid)
    pt = proc.page_table
    candidates = sorted(
        hvpn
        for hvpn in proc.regions.slot_of
        if not pt.region_huge(hvpn)
        and pt.region_resident(hvpn) > 0
        and PAGES_PER_HUGE - pt.region_resident(hvpn) <= policy.max_ptes_none
        and policy.kernel.can_promote(proc, hvpn)
    )
    for hvpn in candidates:
        if hvpn >= (cursor or 0):
            return hvpn, hvpn + 1
    if candidates:
        return candidates[0], candidates[0] + 1
    return None, cursor


#: one region's state: no record, a record only, base pages (with or
#: without a record) or a huge mapping.
region_state = st.tuples(
    st.sampled_from(["base", "absent", "record", "unrecorded", "huge"]),
    st.one_of(st.sampled_from([1, 64, 256, 448, 511, PAGES_PER_HUGE]),
              st.integers(1, PAGES_PER_HUGE)),
)

#: a VMA: whole regions it spans, pages it falls short of the last one
#: by (so that region cannot be promoted) and its madvise hint.
vma_shape = st.tuples(st.integers(1, 4),
                      st.one_of(st.just(0), st.integers(1, PAGES_PER_HUGE - 1)),
                      st.sampled_from(list(HugePageHint)))


@settings(max_examples=80, deadline=None)
@given(
    vmas=st.lists(vma_shape, min_size=1, max_size=3),
    states=st.lists(region_state, min_size=1, max_size=16),
    max_ptes_none=st.sampled_from([511, 0, 64, 384, 512]),
    cursor=st.one_of(st.none(), st.integers(0, 20)),
)
@example(vmas=[(4, 0, HugePageHint.DEFAULT)], states=[("base", 1)] * 4,
         max_ptes_none=511, cursor=3)
def test_next_candidate_matches_sorted_scan(vmas, states, max_ptes_none, cursor):
    kernel = Kernel(small_config(),
                    lambda k: LinuxTHPPolicy(k, max_ptes_none=max_ptes_none))
    policy = kernel.policy
    proc = Process("scan")
    kernel.processes.append(proc)
    for i, (regions, short, hint) in enumerate(vmas):
        kernel.mmap(proc, (regions * PAGES_PER_HUGE - short) * 4096, f"v{i}")
        kernel.madvise_hugepage(proc, f"v{i}", hint)
    pt = proc.page_table
    frame = 0
    for hvpn, (kind, pages) in enumerate(states, start=1):
        if kind in ("record", "base", "huge"):
            proc.regions.ensure(hvpn)
        if kind == "huge":
            pt.map_huge(hvpn, frame)
            frame += PAGES_PER_HUGE
        elif kind in ("base", "unrecorded"):
            for vpn in range(hvpn << 9, (hvpn << 9) + pages):
                pt.map_base(vpn, frame)
                frame += 1
    if cursor is not None:
        policy._cursor[proc.pid] = cursor
    for _ in range(5):
        want, want_cursor = _sorted_scan(policy, proc)
        assert policy._next_candidate(proc) == want
        assert policy._cursor.get(proc.pid) == want_cursor


# --------------------------------------------------------------------- #
# khugepaged's skip gate: each change that can create a candidate bumps  #
# the page-table generation, so the next epoch scans again.             #
# --------------------------------------------------------------------- #


def _empty_scan(kernel, proc):
    """Run one epoch in which khugepaged finds nothing in ``proc``."""
    promotions = kernel.stats.promotions
    kernel.run_epochs(1)
    assert kernel.stats.promotions == promotions
    assert kernel.policy._scanned[proc.pid] == proc.page_table.generation


def test_gate_skips_an_unchanged_process(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=PAGES_PER_HUGE * 4096 - 4096)
    kernel_thp.fault(proc, vma.start)  # resident, but the VMA cannot cover it
    _empty_scan(kernel_thp, proc)
    calls = []
    kernel_thp.policy._next_candidate = lambda p: calls.append(p)
    kernel_thp.run_epochs(3)
    assert calls == []


def test_gate_rescans_after_a_fault_into_a_covered_region(kernel_thp):
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)  # base faults only
    proc, vma = make_proc(kernel_thp, nbytes=2 * PAGES_PER_HUGE * 4096 - 4096)
    kernel_thp.fault(proc, vma.start)  # the covered region's record...
    kernel_thp.madvise_free(proc, vma.start, 1)  # ...left empty
    kernel_thp.fault(proc, vma.start + PAGES_PER_HUGE)  # resident, not covered
    _empty_scan(kernel_thp, proc)
    kernel_thp.fault(proc, vma.start + 5)
    kernel_thp.fragmenter.release_all()
    kernel_thp.run_epochs(1)
    assert proc.page_table.region_huge(vma.start >> 9)


def test_gate_rescans_after_madvise_hugepage(kernel_thp):
    kernel_thp.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel_thp)
    kernel_thp.madvise_hugepage(proc, "heap", HugePageHint.NEVER)
    kernel_thp.fault(proc, vma.start)
    kernel_thp.fragmenter.release_all()
    _empty_scan(kernel_thp, proc)
    kernel_thp.madvise_hugepage(proc, "heap", HugePageHint.ALWAYS)
    kernel_thp.run_epochs(1)
    assert proc.page_table.region_huge(vma.start >> 9)


def test_gate_rescans_after_demote_region(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    hvpn = vma.start >> 9
    kernel_thp.fault(proc, vma.start)  # huge at fault: nothing to collapse
    assert proc.page_table.region_huge(hvpn)
    _empty_scan(kernel_thp, proc)
    kernel_thp.demote_region(proc, hvpn)
    kernel_thp.run_epochs(1)
    assert proc.page_table.region_huge(hvpn)


def test_gate_rescans_after_a_swap_in():
    kernel = Kernel(small_config(swap_bytes=8 * MB),
                    lambda k: LinuxTHPPolicy(k, promote_per_sec=100.0))
    kernel.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel)
    touch(kernel, proc, vma, 4)
    assert kernel.swap.swap_out(4) == 4  # the region is empty again
    _empty_scan(kernel, proc)
    kernel.fault(proc, vma.start)
    assert kernel.swap.swap_ins == 1
    kernel.fragmenter.release_all()
    kernel.run_epochs(1)
    assert proc.page_table.region_huge(vma.start >> 9)


def test_gate_rescans_after_a_region_record_appears(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    frame, _ = kernel_thp.buddy.alloc(0, owner=proc.pid)
    proc.page_table.map_base(vma.start, frame)  # resident, but no record
    kernel_thp.rmap_add(frame, proc, vma.start)
    _empty_scan(kernel_thp, proc)
    proc.regions.ensure(vma.start >> 9)
    kernel_thp.run_epochs(1)
    assert proc.page_table.region_huge(vma.start >> 9)
