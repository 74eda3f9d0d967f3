"""Directed pin of the insertion orders that drive simulated results.

Three orders decide which frames later allocations receive, and none of
them is visible to the twin-kernel machines (a production kernel and an
``oracle.install`` kernel share one ``PageTable`` and one rmap):

* swap victims are taken FIFO over the base rmap's insertion order, in
  which a compaction migration moves an entry to the end;
* ``exit_process`` frees huge and then base mappings in page-table
  insertion order, and that order becomes the buddy free lists' order;
* a page table iterates its mappings in insertion order, which in-place
  changes (COW breaks, migration, zero and KSM dedup) keep.

One kernel goes through faults, a compaction-backed collapse, a
demotion, a zero dedup, KSM merges, COW breaks, swap-outs under pressure
and a late promotion; the literals below were recorded from the
dict-backed page table and rmap.
"""

from __future__ import annotations

from itertools import groupby

from repro import trace
from repro.experiments import reset_sim_state
from repro.kernel.kernel import Kernel, KernelConfig
from repro.mem.samepage import SamePageMerger
from repro.policies.linux import Linux4KPolicy
from repro.tlb.perf import PMUCounters
from repro.units import MB
from repro.vm.process import Process


def _runs(values):
    """Run-length form of an int sequence: ``(first, count)`` per run of
    consecutive ascending values."""
    out: list[tuple[int, int]] = []
    for v in values:
        if out and out[-1][0] + out[-1][1] == v:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def _scenario():
    reset_sim_state()
    kernel = Kernel(KernelConfig(mem_bytes=8 * MB, swap_bytes=16 * MB),
                    Linux4KPolicy)
    tracer = trace.attach(kernel)
    procs = []
    for name in ("a", "b", "c"):
        proc = Process(name)
        kernel.processes.append(proc)
        kernel.pmu[proc.pid] = PMUCounters()
        procs.append(proc)
    a, b, c = procs
    va = kernel.mmap(a, 16 * MB, "heap").start
    vb = kernel.mmap(b, 4 * MB, "heap").start
    vc = kernel.mmap(c, 4 * MB, "heap").start
    # Interleave a's bulk faults with b's single ones, so a's frames can
    # never coalesce completely when a exits.
    for i in range(260):
        kernel.fault_range(a, va + 5 * i, 5)
        kernel.fault(b, vb + i)
    for vpn in range(va, va + 200):
        frame, _ = a.page_table.translate(vpn)
        kernel.frames.write(frame, first_nonzero=vpn % 7)
    for r in range(3):
        kernel.madvise_free(a, va + 512 * r + 40, 25)
    # Collapse needs an order-9 block that only compaction can build.
    assert kernel.promote_region(a, va >> 9) is not None
    assert kernel.stats.compaction_pages_moved > 0
    kernel.demote_region(a, va >> 9)
    assert kernel.dedup_zero_pages(a, va >> 9)[0] > 0
    for vpn, proc in ((va + 600, a), (va + 601, a), (vb + 5, b), (vb + 6, b)):
        frame, _ = proc.page_table.translate(vpn)
        kernel.frames.write(frame, first_nonzero=0, tag=4242)
    merger = SamePageMerger(kernel, pages_per_sec=1e9)
    merger.run_epoch()
    assert merger.registry.merges > 0
    # COW breaks of a zero-shared and of a KSM-shared page.
    assert kernel.fault(a, va + 300) > 0
    assert kernel.fault(b, vb + 6) > 0
    # Migrated pages move to the end of the rmap's FIFO.
    assert kernel.compactor.run(300).pages_moved > 0
    kernel.fault_range(a, va + 1400, 2400)
    victims = [(e.process, e.page)
               for e in tracer.of_kind(trace.TraceKind.SWAP_OUT)]
    for i in range(100):
        kernel.fault(c, vc + i)
    kernel.madvise_free(a, va + 512 * 5, 1100)
    assert kernel.promote_region(a, (va >> 9) + 4) is not None
    assert kernel.promote_region(a, (va >> 9) + 2) is not None
    # Descending faults next to b's pages: each of these frames is its own
    # order-0 free block at exit, listed in the order exit frees it.
    for i in range(30):
        kernel.fault(a, va + 4000 - 2 * i)
        kernel.fault(b, vb + 300 + i)
    huge_order = a.page_table.huge_in_order().tolist()
    base_order = a.page_table.base_in_order().tolist()
    # Dirty every third base page, so exit fills non-zero lists too.
    for vpn in base_order[::3]:
        frame, _ = a.page_table.translate(vpn)
        kernel.frames.write(frame, first_nonzero=1)
    kernel.exit_process(a)
    buddy = kernel.buddy
    free_lists = ([list(d) for d in buddy._zero],
                  [list(d) for d in buddy._nonzero],
                  list(buddy._block_order.items()))
    return kernel, victims, huge_order, base_order, free_lists


# Recorded from the dict-backed page table and rmap.
VICTIMS = [("a", 812, 1), ("b", 518, 1), ("a", 512, 40), ("a", 577, 135),
    ("a", 1912, 847)]
HUGE_ORDER = [5, 3]
BASE_ORDER = [(1024, 40), (1089, 447), (552, 25), (712, 100), (813, 211),
    (4172, 140), (4512, 1), (4510, 1), (4508, 1), (4506, 1), (4504, 1), (4502,
    1), (4500, 1), (4498, 1), (4496, 1), (4494, 1), (4492, 1), (4490, 1),
    (4488, 1), (4486, 1), (4484, 1), (4482, 1), (4480, 1), (4478, 1), (4476,
    1), (4474, 1), (4472, 1), (4470, 1), (4468, 1), (4466, 1), (4464, 1),
    (4462, 1), (4460, 1), (4458, 1), (4456, 1), (4454, 1)]
ZERO_LISTS = [[1025, 1234, 1092, 1224, 1746, 1088, 1090, 1030, 1748, 1840,
    1842, 1034, 1036, 1216, 1218, 1222, 1752, 1756, 1758, 1914, 1916], [1918,
    1094], [], [], [1824, 1728, 1040], [1792, 1760, 1056], [1664], [1920,
    1536], [1280], [], [0]]
NONZERO_LISTS = [[1026, 1844, 1028, 1750, 1032, 1038, 1220, 1754, 1912],
    [1232, 1226, 1846], [1228], [1096, 1848], [1104], [1120], [1152], [], [],
    [], []]
BLOCK_ORDER = [(1920, 7), (1280, 8), (1824, 4), (1728, 4), (1792, 5), (1760,
    5), (1664, 6), (1536, 7), (1040, 4), (1056, 5), (1918, 1), (0, 10), (1096,
    3), (1104, 4), (1120, 5), (1152, 6), (1094, 1), (1025, 0), (1228, 2),
    (1848, 3), (1232, 1), (1234, 0), (1226, 1), (1846, 1), (1092, 0), (1026,
    0), (1224, 0), (1746, 0), (1844, 0), (1088, 0), (1090, 0), (1028, 0),
    (1030, 0), (1748, 0), (1750, 0), (1840, 0), (1842, 0), (1032, 0), (1034,
    0), (1036, 0), (1038, 0), (1216, 0), (1218, 0), (1220, 0), (1222, 0),
    (1752, 0), (1754, 0), (1756, 0), (1758, 0), (1912, 0), (1914, 0), (1916,
    0)]


def test_swap_victims_follow_rmap_insertion_order():
    _kernel, victims, _h, _b, _f = _scenario()
    runs = [(name, *run)
            for name, group in groupby(victims, key=lambda v: v[0])
            for run in _runs(vpn for _, vpn in group)]
    assert runs == VICTIMS


def test_page_table_iterates_in_insertion_order():
    _kernel, _v, huge_order, base_order, _f = _scenario()
    assert huge_order == HUGE_ORDER
    assert _runs(base_order) == BASE_ORDER


def test_exit_frees_in_page_table_insertion_order():
    kernel, _v, _h, _b, free_lists = _scenario()
    zero, nonzero, block_order = free_lists
    assert zero == ZERO_LISTS
    assert nonzero == NONZERO_LISTS
    assert block_order == BLOCK_ORDER
    kernel.buddy.check()
