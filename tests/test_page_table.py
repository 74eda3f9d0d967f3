"""Unit tests for the two-granularity page table."""

import numpy as np
import pytest

from repro.errors import InvalidAddressError
from repro.units import PAGES_PER_HUGE
from repro.vm.page_table import ACCESSED, PageTable


@pytest.fixture
def pt() -> PageTable:
    return PageTable()


def test_base_map_translate_unmap(pt):
    pt.map_base(1000, 77)
    assert pt.translate(1000) == (77, False)
    assert pt.base_mapped(1000) and not pt.base_mapped(1001)
    assert pt.unmap_base(1000) == (77, 0)
    assert pt.translate(1000) is None


def test_double_map_rejected(pt):
    pt.map_base(5, 1)
    with pytest.raises(InvalidAddressError):
        pt.map_base(5, 2)


def test_huge_map_translates_interior_pages(pt):
    pt.map_huge(2, 4096)  # covers vpns 1024..1535
    assert pt.translate(1024) == (4096, True)
    assert pt.translate(1100) == (4096 + 76, True)
    assert pt.translate(1535) is not None
    assert pt.translate(1536) is None


def test_base_inside_huge_rejected(pt):
    pt.map_huge(0, 0)
    with pytest.raises(InvalidAddressError):
        pt.map_base(10, 5)


def test_huge_double_map_rejected(pt):
    pt.map_huge(3, 512)
    with pytest.raises(InvalidAddressError):
        pt.map_huge(3, 1024)


def test_unmap_missing_raises(pt):
    with pytest.raises(InvalidAddressError):
        pt.unmap_base(9)
    with pytest.raises(InvalidAddressError):
        pt.unmap_huge(9)


def test_demote_creates_512_contiguous_base_ptes(pt):
    pt.map_huge(4, 8192, accessed=True)
    assert pt.demote_huge(4) == 8192
    assert not pt.region_huge(4)
    vpn0 = 4 << 9
    assert pt.base_in_order().tolist() == list(range(vpn0, vpn0 + PAGES_PER_HUGE))
    assert pt.translate(vpn0) == (8192, False)
    assert pt.translate(vpn0 + 511) == (8192 + 511, False)
    assert (pt.flags[vpn0 : vpn0 + PAGES_PER_HUGE] == ACCESSED).all(), "access bit propagates"


def test_region_mirror(pt):
    vpn0 = 2 << 9
    for i in (0, 5, 511):
        pt.map_base(vpn0 + i, 100 + i)
    pt.map_base(vpn0 + 7, 99, shared_zero=True)
    frames, private = pt.region_mirror(2)
    assert (np.flatnonzero(frames >= 0) + vpn0).tolist() == [vpn0, vpn0 + 5, vpn0 + 7, vpn0 + 511]
    assert (np.flatnonzero(private) + vpn0).tolist() == [vpn0, vpn0 + 5, vpn0 + 511]
    frames, private = pt.region_mirror(3)
    assert not (frames >= 0).any() and not private.any()


def test_resident_excludes_shared_zero(pt):
    pt.map_base(0, 1)
    pt.map_base(1, 99, shared_zero=True)
    pt.map_huge(10, 512)
    assert pt.shared_zero_count == 1
    assert pt.resident_pages() == 1 + PAGES_PER_HUGE
    assert pt.huge_mapped_pages() == PAGES_PER_HUGE


def test_unmap_shared_zero_updates_count(pt):
    pt.map_base(1, 99, shared_zero=True)
    pt.unmap_base(1)
    assert pt.shared_zero_count == 0


def test_region_residency_reads(pt):
    pt.map_base(3, 1)
    pt.map_base_range(PAGES_PER_HUGE - 2, [(100, 5, False)])  # regions 0 and 1
    pt.map_huge(4, 2048)
    assert [pt.region_resident(h) for h in range(6)] == [3, 3, 0, 0, PAGES_PER_HUGE, 0]
    assert pt.region_resident(10**6) == 0 and not pt.region_huge(10**6)
    pt.reserve_region(40)  # a region record's slots, nothing mapped
    hvpns = np.array([0, 1, 4, 40])
    assert pt.region_resident_arr(hvpns).tolist() == [3, 3, PAGES_PER_HUGE, 0]
    assert pt.region_huge_arr(hvpns).tolist() == [False, False, True, False]
    assert pt.region_huge(4) is True and pt.region_resident(4) == PAGES_PER_HUGE
    pt.demote_huge(4)
    assert pt.region_resident(4) == PAGES_PER_HUGE and pt.region_huge(4) is False
    pt.unmap_base_run_private(PAGES_PER_HUGE - 2, 5)
    pt.unmap_base(3)
    pt.unmap_base_region(4)
    assert pt.region_resident_arr(np.arange(6)).tolist() == [0] * 6
    pt.check()


def _corrupt_count(pt):
    pt.nbase += 1


def _corrupt_zero_count(pt):
    pt.shared_zero_count += 1


def _corrupt_base_in_huge(pt):
    pt.frame[(10 << 9) + 3] = 7  # a base slot under the huge mapping
    pt.nbase += 1
    pt.hcount[10] += 1  # counted, so only the overlap is wrong


def _corrupt_region_count(pt):
    pt.hcount[0] -= 1  # region 0 maps two base pages


def _corrupt_huge_region_count(pt):
    pt.hcount[10] = 0  # region 10 is huge-mapped: 512


def _corrupt_seq(pt):
    pt.seq[1] = pt.seq[0]


def _corrupt_stale_flags(pt):
    pt.flags[2] = 1  # vpn 2 is unmapped


def _corrupt_both_shared(pt):
    pt.flags[1] |= 8  # shared_zero and shared_cow at once


@pytest.mark.parametrize("corrupt", [
    _corrupt_count, _corrupt_zero_count, _corrupt_base_in_huge,
    _corrupt_seq, _corrupt_stale_flags, _corrupt_both_shared,
    _corrupt_region_count, _corrupt_huge_region_count,
])
def test_check_catches_seeded_corruption(pt, corrupt):
    pt.map_base(0, 1)
    pt.map_base(1, 99, shared_zero=True)
    pt.map_base(6000, 5)  # the columns now cover huge region 10
    pt.map_huge(10, 512)
    pt.check()
    corrupt(pt)
    with pytest.raises(InvalidAddressError):
        pt.check()
