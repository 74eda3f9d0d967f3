"""Tests for process teardown (exit_process)."""

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.freebsd import FreeBSDPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import LEDGER_COLUMNS, buddy_snapshot, small_config
from tests.test_fault import make_proc


def test_exit_releases_all_memory(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    for hvpn in range(vma.start >> 9, vma.end >> 9):
        kernel_thp.fault(proc, hvpn << 9)
    free_before_exit = kernel_thp.buddy.free_pages
    freed = kernel_thp.exit_process(proc)
    assert freed == 4 * PAGES_PER_HUGE
    assert kernel_thp.buddy.free_pages == free_before_exit + freed
    assert proc not in kernel_thp.processes
    assert proc.page_table.nbase == 0
    assert proc.page_table.nhuge == 0


def test_exit_with_mixed_mappings(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    kernel_thp.fault(proc, vma.start)                      # huge
    kernel_thp.demote_region(proc, vma.start >> 9)
    kernel_thp.madvise_free(proc, vma.start, 10)           # holes
    kernel_thp.dedup_zero_pages(proc, vma.start >> 9)      # shared-zero rest
    shared = proc.page_table.shared_zero_count
    assert shared > 0
    mappings_before = kernel_thp.zero_registry.mappings
    kernel_thp.exit_process(proc)
    assert kernel_thp.zero_registry.mappings == mappings_before - shared
    # every frame is back: only the canonical zero frame stays allocated
    assert kernel_thp.frames.allocated_count() == 1


def test_exit_clears_policy_state():
    kernel = Kernel(small_config(), FreeBSDPolicy)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)  # creates a reservation
    assert kernel.policy.reservations
    kernel.exit_process(proc)
    assert not kernel.policy.reservations
    assert kernel.frames.allocated_count() == 1


def test_exit_drops_swap_entries():
    kernel = Kernel(
        KernelConfig(mem_bytes=8 * MB, swap_bytes=32 * MB),
        lambda k: __import__("repro.policies.linux", fromlist=["Linux4KPolicy"]).Linux4KPolicy(k),
    )
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    for vpn in range(vma.start, vma.start + 3000):
        kernel.fault(proc, vpn)
    assert kernel.swap.swapped
    kernel.exit_process(proc)
    assert not kernel.swap.swapped


def test_exit_finishes_workload_run(kernel4k):
    from tests.conftest import spawn_simple

    run = spawn_simple(kernel4k, heap_mb=4, work_s=1000.0)
    kernel4k.run_epochs(2)
    assert not run.finished
    kernel4k.exit_process(run.proc)
    assert run.finished
    kernel4k.run_epochs(2)  # the dead run must not be stepped again


def test_exit_twice_is_safe(kernel4k):
    proc, vma = make_proc(kernel4k)
    kernel4k.fault(proc, vma.start)
    kernel4k.exit_process(proc)
    assert kernel4k.exit_process(proc) == 0


# --------------------------------------------------------------------- #
# bulk teardown against a page-by-page twin                              #
# --------------------------------------------------------------------- #
#
# ``exit_process`` frees a tenant's private frames, in page-table
# insertion order, with one ``free_runs`` pass over their maximal
# ascending runs.  Each case builds the same tenant twice (same pids,
# same content, same free-list history), tears one down with
# ``exit_process`` and the other page by page (``_unmap_base_page`` in
# ``base_in_order()`` order, so ``buddy.free(frame, 0)`` per private
# page), and compares the free lists in dict order, ``_block_order``,
# ``free_pages``, the frame-table columns and every ledger column.

#: 16 MiB of frames: four max-order (1024-frame) windows.
FRAMES = 4096
#: the two-node layout's zone boundary, inside a max-order window.
ZONE_END = 1500


def _tenant(monkeypatch, layout, nodes=1, ksm=(), seed=0):
    """A kernel whose one process maps ``layout`` and nothing else.

    ``layout`` lists ``(vpn0, frames)`` segments in insertion order; a
    frame of ``None`` maps the vpn onto the shared zero page.  Every
    other frame is freed first, one by one in a seeded random order, so
    the free lists start fragmented.  ``ksm`` pairs of vpns with equal
    content are merged by the same-page merger, which leaves both on
    one KSM-shared canonical frame.
    """
    from repro import audit
    from repro.mem.samepage import SamePageMerger
    from repro.numa.topology import NumaTopology
    from repro.policies.linux import Linux4KPolicy
    from repro.vm.process import Process

    monkeypatch.setattr(Process, "_next_pid", 7000)
    topology = (NumaTopology(nodes=2, ranges=((0, ZONE_END), (ZONE_END, FRAMES)))
                if nodes == 2 else NumaTopology())
    kernel = Kernel(small_config(16, topology=topology), Linux4KPolicy)
    audit.attach(kernel)
    proc = Process("tenant")
    kernel.processes.append(proc)
    buddy = kernel.buddy
    buddy.try_alloc_run(buddy.free_pages, owner=proc.pid)
    rng = np.random.default_rng(seed)
    kernel.frames.write_frames(np.flatnonzero(rng.random(FRAMES) < 0.3), first_nonzero=7)
    mapped = {f for _, frames in layout for f in frames if f is not None}
    rest = [f for f in np.flatnonzero(kernel.frames.allocated).tolist()
            if f not in mapped and f != kernel.zero_registry.zero_frame]
    for f in rng.permutation(rest).tolist():
        buddy.free(f, 0)
    pt = proc.page_table
    for vpn0, frames in layout:
        for vpn, frame in enumerate(frames, start=vpn0):
            if frame is None:
                pt.map_base(vpn, kernel.zero_registry.zero_frame, shared_zero=True)
                kernel.zero_registry.share()
            else:
                pt.map_base(vpn, frame)
                kernel.rmap_add(frame, proc, vpn)
    merger = SamePageMerger(kernel)
    for tag, pair in enumerate(ksm, start=1 << 40):
        for vpn in pair:
            kernel.frames.write(int(pt.frame[vpn]), tag=tag)
        for vpn in pair:
            merger._consider(proc, vpn, int(pt.frame[vpn]))
    return kernel, proc


def _state(kernel) -> dict:
    led = kernel.frames.ledger
    return {
        **buddy_snapshot(kernel.buddy),
        "ledger": {name: getattr(led, name).tolist() for name in LEDGER_COLUMNS},
        "events": led.events_recorded,
        "zero_mappings": kernel.zero_registry.mappings,
        "ksm": dict(kernel.cow_registry.refcount),
        "rmap_pid": kernel.rmap_pid.tolist(),
    }


def _per_page_exit(kernel, proc) -> None:
    for vpn in proc.page_table.base_in_order().tolist():
        kernel._unmap_base_page(proc, vpn)
    kernel.exit_process(proc)


def _assert_exit_matches_per_page(monkeypatch, layout, **kw):
    bulk, proc = _tenant(monkeypatch, layout, **kw)
    twin, twin_proc = _tenant(monkeypatch, layout, **kw)
    assert _state(bulk) == _state(twin)
    private = twin_proc.page_table.nbase - twin_proc.page_table.shared_zero_count
    calls = []
    monkeypatch.setattr(type(bulk.buddy), "free_range",
                        lambda self, *a: calls.append(a))
    freed = bulk.exit_process(proc)
    monkeypatch.undo()
    _per_page_exit(twin, twin_proc)
    assert calls == []  # the bulk pass frees no run on its own
    assert _state(bulk) == _state(twin)
    bulk.buddy.check()
    if not kw.get("ksm"):
        assert freed == private
    return bulk


def _run(lo, hi, step=1):
    return list(range(lo, hi, step))


def test_bulk_exit_with_interleaved_shared_zero_pages(monkeypatch):
    zero_every_third = [None if i % 3 == 0 else 300 + i for i in range(90)]
    layout = [(1024, zero_every_third), (4096, _run(700, 760)),
              (2048, [None, None] + _run(200, 230) + [None])]
    kernel = _assert_exit_matches_per_page(monkeypatch, layout)
    assert kernel.zero_registry.mappings == 0


def test_bulk_exit_with_runs_crossing_max_order_windows(monkeypatch):
    # ascending runs over the 1024, 2048 and 3072 boundaries, a
    # descending stretch, and a run whose second piece is mapped later
    layout = [(512, _run(1000, 1100)), (2048, _run(2040, 2056)),
              (1024, _run(3060, 3080)), (8192, _run(3200, 3150, -1)),
              (6000, _run(3080, 3090)), (4000, _run(17, 19))]
    _assert_exit_matches_per_page(monkeypatch, layout)


def test_bulk_exit_on_two_nodes_with_a_run_straddling_the_zone_boundary(monkeypatch):
    layout = [(512, _run(ZONE_END - 40, ZONE_END + 40)), (2048, _run(2040, 2056)),
              (1024, [None] + _run(900, 910)), (9000, _run(ZONE_END + 41, ZONE_END + 45))]
    _assert_exit_matches_per_page(monkeypatch, layout, nodes=2)


def test_bulk_exit_with_ksm_pages_frees_the_canonical_in_sequence(monkeypatch):
    layout = [(512, _run(1000, 1040)), (2048, [None] + _run(2040, 2056)),
              (4096, _run(100, 130))]
    # the canonical is freed with the second sharer, mid-sequence
    kernel = _assert_exit_matches_per_page(
        monkeypatch, layout, ksm=[(520, 4100), (2050, 2051)])
    assert kernel.cow_registry.refcount == {}


@pytest.mark.parametrize("nodes", [1, 2])
def test_bulk_exit_double_free_raises_on_the_same_block(monkeypatch, nodes):
    layout = [(512, _run(1000, 1100)), (2048, _run(ZONE_END - 8, ZONE_END + 8))]
    bulk, proc = _tenant(monkeypatch, layout, nodes=nodes)
    twin, twin_proc = _tenant(monkeypatch, layout, nodes=nodes)
    for kernel in (bulk, twin):
        kernel.buddy.free(1050, 0)  # behind the page table's back
    with pytest.raises(AllocationError) as got:
        bulk.exit_process(proc)
    with pytest.raises(AllocationError) as want:
        _per_page_exit(twin, twin_proc)
    assert str(got.value) == str(want.value) == "double free of block 1050 order 0"
    drop = ("rmap_pid",)  # the twin unmapped page by page up to the failure
    assert ({k: v for k, v in _state(bulk).items() if k not in drop}
            == {k: v for k, v in _state(twin).items() if k not in drop})
