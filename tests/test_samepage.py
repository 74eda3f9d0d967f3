"""Tests for native same-page merging (ksm) and the COW-share registry."""

import pytest

from repro.mem.samepage import CowShareRegistry, SamePageMerger
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.page_table import SHARED_COW
from tests.test_fault import make_proc


def touched_proc(kernel, npages=64, tag=None, name="p", first_nonzero=0):
    proc, vma = make_proc(kernel, nbytes=4 * MB)
    proc.name = name
    for i in range(npages):
        kernel.fault(proc, vma.start + i)
        frame, _ = proc.page_table.translate(vma.start + i)
        kernel.frames.write(frame, first_nonzero=first_nonzero, tag=tag)
    return proc, vma


def merger_for(kernel, rate=1e9):
    merger = SamePageMerger(kernel, pages_per_sec=rate)
    return merger


class TestMerging:
    def test_identical_pages_merge_across_processes(self, kernel4k):
        a, _ = touched_proc(kernel4k, tag=42, name="a")
        b, _ = touched_proc(kernel4k, tag=42, name="b")
        merger = merger_for(kernel4k)
        free_before = kernel4k.buddy.free_pages
        merged = 0
        for _ in range(3):  # candidate registration, then merging passes
            merged += merger.run_epoch()
        assert merged >= 63  # all but the canonical of each content page
        assert kernel4k.buddy.free_pages > free_before
        assert kernel4k.cow_registry.pages_saved() == merged

    def test_distinct_content_never_merges(self, kernel4k):
        touched_proc(kernel4k, tag=None, name="a")  # unique tags per page
        touched_proc(kernel4k, tag=None, name="b")
        merger = merger_for(kernel4k)
        for _ in range(3):
            assert merger.run_epoch() == 0

    def test_zero_pages_merge_onto_zero_frame(self, kernel4k):
        proc, vma = make_proc(kernel4k, nbytes=4 * MB)
        for i in range(32):
            kernel4k.fault(proc, vma.start + i)  # zero-filled, never written
        merger = merger_for(kernel4k)
        merged = merger.run_epoch()
        assert merged == 32
        assert proc.page_table.shared_zero_count == 32
        assert proc.rss_pages() == 0

    def test_rss_counts_merged_pages(self, kernel4k):
        a, _ = touched_proc(kernel4k, npages=16, tag=7, name="a")
        b, _ = touched_proc(kernel4k, npages=16, tag=7, name="b")
        for _ in range(3):
            merger_for(kernel4k).run_epoch()
        # ksm-shared pages stay in RSS (unlike zero-page dedup)
        assert a.rss_pages() == 16 and b.rss_pages() == 16

    def test_rate_limit(self, kernel4k):
        touched_proc(kernel4k, npages=64, tag=1, name="a")
        merger = SamePageMerger(kernel4k, pages_per_sec=10.0)
        merger.run_epoch()
        assert merger.bytes_compared <= 20 * 4096


class TestCowBreak:
    def test_write_after_merge_copies_out(self, kernel4k):
        a, vma_a = touched_proc(kernel4k, npages=8, tag=9, name="a")
        b, vma_b = touched_proc(kernel4k, npages=8, tag=9, name="b")
        merger = merger_for(kernel4k)
        for _ in range(3):
            merger.run_epoch()
        pt = b.page_table
        vpn = next(v for v in pt.base_in_order().tolist() if pt.flags[v] & SHARED_COW)
        latency = kernel4k.fault(b, vpn)
        assert latency == pytest.approx(kernel4k.costs.cow_fault_us)
        assert not pt.flags[vpn] & SHARED_COW
        assert b.stats.cow_faults == 1
        # the content followed the copy
        assert kernel4k.frames.content_tag[pt.frame[vpn]] == 9

    def test_last_unshare_frees_canonical(self, kernel4k):
        a, vma_a = touched_proc(kernel4k, npages=4, tag=5, name="a")
        b, vma_b = touched_proc(kernel4k, npages=4, tag=5, name="b")
        merger = merger_for(kernel4k)
        for _ in range(3):
            merger.run_epoch()
        saved = kernel4k.cow_registry.pages_saved()
        assert saved > 0
        kernel4k.exit_process(a)
        kernel4k.exit_process(b)
        assert kernel4k.cow_registry.pages_saved() == 0
        assert kernel4k.cow_registry.refcount == {}
        # all frames back except the canonical zero frame
        assert kernel4k.frames.allocated_count() == 1

    def test_unshare_unknown_frame_raises(self, kernel4k):
        with pytest.raises(ValueError):
            kernel4k.cow_registry.unshare(12345)


class TestInteractions:
    def test_stale_registration_ignored_after_rewrite(self, kernel4k):
        a, vma_a = touched_proc(kernel4k, npages=1, tag=77, name="a")
        merger = merger_for(kernel4k)
        merger.run_epoch()  # registers the candidate
        frame, _ = a.page_table.translate(vma_a.start)
        kernel4k.frames.write(frame, first_nonzero=0, tag=88)  # content changed
        b, _ = touched_proc(kernel4k, npages=1, tag=77, name="b")
        merged = sum(merger.run_epoch() for _ in range(3))
        assert merged == 0, "stale candidate must not be merged with"

    def test_promotion_collapse_copies_shared_pages(self, kernel4k):
        a, vma_a = touched_proc(kernel4k, npages=PAGES_PER_HUGE, tag=3, name="a")
        b, vma_b = touched_proc(kernel4k, npages=PAGES_PER_HUGE, tag=3, name="b")
        merger = merger_for(kernel4k)
        for _ in range(4):
            merger.run_epoch()
        assert (b.page_table.flags & SHARED_COW).any()
        cost = kernel4k.promote_region(b, vma_b.start >> 9)
        assert cost is not None
        block = int(b.page_table.hframe[vma_b.start >> 9])
        assert kernel4k.frames.content_tag[block] == 3
        # a's mappings survived b's collapse
        assert a.page_table.translate(vma_a.start) is not None

    def test_compaction_skips_canonical_frames(self, kernel4k):
        a, _ = touched_proc(kernel4k, npages=8, tag=4, name="a")
        b, _ = touched_proc(kernel4k, npages=8, tag=4, name="b")
        merger = merger_for(kernel4k)
        for _ in range(3):
            merger.run_epoch()
        canonical = next(iter(kernel4k.cow_registry.refcount))
        assert kernel4k.frames.pinned[canonical]
        kernel4k.compactor.run(10_000)
        assert kernel4k.frames.allocated[canonical]
        assert kernel4k.frames.content_tag[canonical] == 4
