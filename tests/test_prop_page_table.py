"""The column page table against a dict-backed model.

:class:`ModelTable` keeps PTE objects in insertion-ordered dicts, the
representation the column :class:`~repro.vm.page_table.PageTable`
replaced.  A state machine applies the same mapping, unmapping,
demotion and in-place operations to both and compares, after every
step: every column slot, ``base_in_order``/``huge_in_order`` against
dict order, ``translate``/``translate_range``, ``region_mirror``,
``contiguous_private_block``, the counts, per-region residency and
huge-ness, and ``PageTable.check()``.  It also pins the change
generation: a step that changes any column must advance
``PageTable.generation``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import InvalidAddressError
from repro.units import PAGES_PER_HUGE
from repro.vm.page_table import ACCESSED, DIRTY, SHARED_COW, SHARED_ZERO, PageTable

REGIONS = 12  # the window outgrows the columns' initial capacity
WINDOW = REGIONS * PAGES_PER_HUGE
#: every column and the value of its unmapped (never-grown) slots.
COLUMNS = {"frame": -1, "flags": 0, "seq": 0,
           "hframe": -1, "hflags": 0, "hseq": 0, "hcount": 0}


class PTE:
    def __init__(self, frame, flags=0):
        self.frame, self.flags = frame, flags


class ModelTable:
    """Dict-backed reference: insertion order is dict order."""

    def __init__(self):
        self.base: dict[int, PTE] = {}
        self.huge: dict[int, PTE] = {}

    def overlaps(self, vpn0, n):
        return (any(v in self.base for v in range(vpn0, vpn0 + n))
                or any(h in self.huge for h in range(vpn0 >> 9, ((vpn0 + n - 1) >> 9) + 1)))

    def map_range(self, vpn0, frames, flags=0):
        for i, frame in enumerate(frames):
            self.base[vpn0 + i] = PTE(frame, flags)

    def demote(self, hvpn):
        pte = self.huge.pop(hvpn)
        self.map_range(hvpn << 9, range(pte.frame, pte.frame + PAGES_PER_HUGE),
                       pte.flags & (ACCESSED | DIRTY))
        return pte.frame

    def translate(self, vpn):
        if (vpn >> 9) in self.huge:
            return self.huge[vpn >> 9].frame + (vpn & (PAGES_PER_HUGE - 1)), True
        if vpn in self.base:
            return self.base[vpn].frame, False
        return None

    def private(self, vpn):
        return vpn in self.base and not self.base[vpn].flags & (SHARED_ZERO | SHARED_COW)

    def contiguous_private_block(self, vpn0):
        frame0 = self.base[vpn0].frame if vpn0 in self.base else -1
        if frame0 < 0 or frame0 % PAGES_PER_HUGE:
            return None
        ok = all(self.private(vpn0 + i) and self.base[vpn0 + i].frame == frame0 + i
                 for i in range(PAGES_PER_HUGE))
        return frame0 if ok else None

    def shared_zero_count(self):
        return sum(1 for p in self.base.values() if p.flags & SHARED_ZERO)


vpns = st.integers(0, WINDOW - 1)
hvpns = st.integers(0, REGIONS - 1)
frames = st.integers(0, 64).map(lambda k: k * 37)
extents = st.lists(
    st.tuples(st.integers(0, 7).map(lambda k: k * PAGES_PER_HUGE) | st.integers(0, 5000),
              st.integers(1, 600)),
    min_size=1, max_size=3)


class PageTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pt = PageTable()
        self.model = ModelTable()
        self.snapshot = self._columns()

    def _columns(self):
        return self.pt.generation, {name: getattr(self.pt, name).copy() for name in COLUMNS}

    def _both_raise_or(self, fn, expect_raise):
        if expect_raise:
            try:
                fn()
            except InvalidAddressError:
                return
            raise AssertionError("expected InvalidAddressError")
        fn()

    @rule(vpn=vpns, frame=frames, shared_zero=st.booleans(), accessed=st.booleans())
    def map_base(self, vpn, frame, shared_zero, accessed):
        bad = self.model.overlaps(vpn, 1)
        self._both_raise_or(lambda: self.pt.map_base(vpn, frame, shared_zero, accessed), bad)
        if not bad:
            self.model.map_range(vpn, [frame], (SHARED_ZERO if shared_zero else 0)
                                 | (ACCESSED if accessed else 0))

    @rule(vpn0=st.integers(0, 7).map(lambda k: k * PAGES_PER_HUGE) | vpns,
          ext=extents, accessed=st.booleans())
    def map_base_range(self, vpn0, ext, accessed):
        ext = extents_fit([(start, count, False) for start, count in ext], WINDOW - vpn0)
        total = sum(count for _, count, _ in ext)
        bad = self.model.overlaps(vpn0, total)
        self._both_raise_or(lambda: self.pt.map_base_range(vpn0, ext, accessed), bad)
        if not bad:
            self.model.map_range(vpn0, [s + i for s, c, _ in ext for i in range(c)],
                                 ACCESSED if accessed else 0)

    @rule(vpn=vpns)
    def unmap_base(self, vpn):
        bad = vpn not in self.model.base
        got = []
        self._both_raise_or(lambda: got.append(self.pt.unmap_base(vpn)), bad)
        if not bad:
            pte = self.model.base.pop(vpn)
            assert got == [(pte.frame, pte.flags)]

    @rule(vpn0=vpns, count=st.integers(1, 700))
    def unmap_base_run_private(self, vpn0, count):
        count = min(count, WINDOW - vpn0)
        run = range(vpn0, vpn0 + count)
        if not all(self.model.private(v) for v in run):
            return  # callers guarantee a mapped private run
        self.pt.unmap_base_run_private(vpn0, count)
        for v in run:
            del self.model.base[v]

    @rule(hvpn=hvpns, frame=st.integers(0, 9).map(lambda k: k * PAGES_PER_HUGE),
          accessed=st.booleans())
    def map_huge(self, hvpn, frame, accessed):
        if any(v >> 9 == hvpn for v in self.model.base):
            return  # promotion unmaps a region's base pages first
        bad = hvpn in self.model.huge
        self._both_raise_or(lambda: self.pt.map_huge(hvpn, frame, accessed), bad)
        if not bad:
            self.model.huge[hvpn] = PTE(frame, ACCESSED if accessed else 0)

    @rule(hvpn=hvpns)
    def unmap_huge(self, hvpn):
        bad = hvpn not in self.model.huge
        got = []
        self._both_raise_or(lambda: got.append(self.pt.unmap_huge(hvpn)), bad)
        if not bad:
            pte = self.model.huge.pop(hvpn)
            assert got == [(pte.frame, pte.flags)]

    @rule(hvpn=hvpns)
    def demote_huge(self, hvpn):
        if hvpn in self.model.huge:
            assert self.pt.demote_huge(hvpn) == self.model.demote(hvpn)

    @rule(pick=st.integers(0, 10**6), frame=frames,
          change=st.sampled_from([(0, 0), (DIRTY, SHARED_ZERO), (DIRTY, SHARED_COW),
                                  (SHARED_ZERO, 0), (SHARED_COW, 0)]))
    def remap(self, pick, frame, change):
        if not self.model.base:
            return
        vpn = sorted(self.model.base)[pick % len(self.model.base)]
        pte = self.model.base[vpn]
        set_bits, clear_bits = change
        new = (pte.flags & ~clear_bits) | set_bits
        if new & SHARED_ZERO and new & SHARED_COW:
            return
        self.pt.remap(vpn, frame, set_bits, clear_bits)
        pte.frame, pte.flags = frame, new

    @rule()
    def clear(self):
        self.pt.clear()
        self.model = ModelTable()

    # -- comparisons ------------------------------------------------------ #

    @invariant()
    def generation_tracks_columns(self):
        """A step that changed any column advanced ``generation``."""
        gen, cols = self._columns()
        old_gen, old_cols = self.snapshot
        for name, fill in COLUMNS.items():
            a, b = old_cols[name], cols[name]
            n = max(a.shape[0], b.shape[0])  # growth alone changes nothing
            a, b = (np.concatenate([c, np.full(n - c.shape[0], fill, c.dtype)]) for c in (a, b))
            if not np.array_equal(a, b):
                assert gen > old_gen, f"{name} changed, generation stayed {gen}"
        self.snapshot = gen, cols

    @invariant()
    def same_contents_and_order(self):
        pt, model = self.pt, self.model
        pt.check()
        assert pt.base_in_order().tolist() == list(model.base)
        assert pt.huge_in_order().tolist() == list(model.huge)
        assert (pt.nbase, pt.nhuge) == (len(model.base), len(model.huge))
        assert pt.frame.tolist() == model_column(model.base, pt.frame.shape[0], "frame", -1)
        assert pt.flags.tolist() == model_column(model.base, pt.flags.shape[0], "flags", 0)
        assert pt.hframe.tolist() == model_column(model.huge, pt.hframe.shape[0], "frame", -1)
        assert pt.hflags.tolist() == model_column(model.huge, pt.hflags.shape[0], "flags", 0)

    @invariant()
    def same_lookups(self):
        pt, model = self.pt, self.model
        expect = [model.translate(v) for v in range(WINDOW)]
        assert pt.translate_range(0, WINDOW).tolist() == [-1 if t is None else t[0] for t in expect]
        for vpn in list(model.base) + [h << 9 for h in model.huge] + [0, WINDOW - 1]:
            assert pt.translate(vpn) == expect[vpn]
            assert pt.base_mapped(vpn) == (vpn in model.base)
        for hvpn in range(REGIONS):
            vpn0 = hvpn << 9
            frames, private = pt.region_mirror(hvpn)
            want = [model.base[v].frame if v in model.base else -1
                    for v in range(vpn0, vpn0 + PAGES_PER_HUGE)]
            n = frames.shape[0]
            assert frames.tolist() == want[:n] and set(want[n:]) <= {-1}
            assert private.tolist() == [model.private(v) for v in range(vpn0, vpn0 + n)]
            assert pt.contiguous_private_block(vpn0) == model.contiguous_private_block(vpn0)
        assert pt.huge_count_in_range(0, REGIONS) == len(model.huge)
        resident = [0] * REGIONS
        for vpn in model.base:
            resident[vpn >> 9] += 1
        for hvpn in model.huge:
            resident[hvpn] += PAGES_PER_HUGE
        huge = [h in model.huge for h in range(REGIONS)]
        assert [pt.region_resident(h) for h in range(REGIONS)] == resident
        assert [pt.region_huge(h) for h in range(REGIONS)] == huge
        reserved = np.arange(min(REGIONS, pt.hframe.shape[0]))  # the arrays' domain
        assert pt.region_resident_arr(reserved).tolist() == resident[: len(reserved)]
        assert pt.region_huge_arr(reserved).tolist() == huge[: len(reserved)]
        assert pt.shared_zero_count == model.shared_zero_count()
        assert pt.resident_pages() == (len(model.base) - model.shared_zero_count()
                                       + len(model.huge) * PAGES_PER_HUGE)
        assert np.array_equal(pt.mapped_vpns(), sorted(model.base))


def model_column(ptes, n, attr, fill):
    """The model's ``attr`` for keys ``0..n-1``, ``fill`` where unmapped."""
    return [getattr(ptes[k], attr) if k in ptes else fill for k in range(n)]


def extents_fit(ext, total):
    """Trim ``(start, count, zeroed)`` extents to ``total`` pages."""
    out, left = [], total
    for start, count, zeroed in ext:
        take = min(count, left)
        if take:
            out.append((start, take, zeroed))
        left -= take
    return out


PageTableMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestPageTableModel = PageTableMachine.TestCase
