"""Unit tests for the FreeBSD reservation-based policy."""

import pytest

from repro.kernel.kernel import Kernel
from repro.policies.freebsd import FreeBSDPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config
from tests.test_fault import make_proc


@pytest.fixture
def kernel():
    return Kernel(small_config(), FreeBSDPolicy)


def test_reservation_created_on_first_fault(kernel):
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    policy = kernel.policy
    key = (proc.pid, vma.start >> 9)
    assert key in policy.reservations
    assert proc.stats.huge_faults == 0, "FreeBSD never maps huge at fault"


def test_faults_fill_reservation_contiguously(kernel):
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    block = kernel.policy.reservations[(proc.pid, vma.start >> 9)]
    kernel.fault(proc, vma.start + 77)
    assert proc.page_table.translate(vma.start + 77) == (block + 77, False)


def test_promotion_only_at_full_population(kernel):
    proc, vma = make_proc(kernel)
    for i in range(PAGES_PER_HUGE - 1):
        kernel.fault(proc, vma.start + i)
    hvpn = vma.start >> 9
    assert hvpn in proc.regions and not proc.page_table.region_huge(hvpn)
    kernel.fault(proc, vma.start + PAGES_PER_HUGE - 1)
    assert proc.page_table.region_huge(hvpn), "512th fault triggers in-place promotion"
    assert kernel.stats.inplace_promotions == 1
    assert (proc.pid, vma.start >> 9) not in kernel.policy.reservations


def test_pressure_breaks_reservations(kernel):
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)  # 1 page used, 511 reserved
    free_before = kernel.buddy.free_pages
    freed = kernel.policy.on_memory_pressure(100)
    assert freed == PAGES_PER_HUGE - 1
    assert kernel.buddy.free_pages == free_before + freed
    assert kernel.policy.reservations_broken == 1
    # the mapped page survives
    assert proc.page_table.translate(vma.start) is not None


def test_reservations_count_as_allocated(kernel):
    proc, vma = make_proc(kernel)
    before = kernel.buddy.allocated_pages
    kernel.fault(proc, vma.start)
    assert kernel.buddy.allocated_pages == before + PAGES_PER_HUGE


def test_madvise_breaks_covering_reservation(kernel):
    proc, vma = make_proc(kernel)
    for i in range(10):
        kernel.fault(proc, vma.start + i)
    kernel.madvise_free(proc, vma.start, 5)
    assert (proc.pid, vma.start >> 9) not in kernel.policy.reservations
    # unreserved frames were freed, mapped ones kept
    assert proc.page_table.translate(vma.start + 7) is not None
    assert proc.page_table.translate(vma.start + 2) is None


def test_no_reservation_when_fragmented(kernel):
    kernel.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)
    assert not kernel.policy.reservations
    assert proc.page_table.translate(vma.start) is not None


def test_small_vma_gets_no_reservation(kernel):
    proc, vma = make_proc(kernel, nbytes=1 * MB)
    kernel.fault(proc, vma.start)
    assert not kernel.policy.reservations
