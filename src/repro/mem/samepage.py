"""Kernel same-page merging (native ksm) for content-identical pages.

§3.2 of the paper positions HawkEye's bloat recovery *relative to* the
standard same-page-merging machinery (Linux's ``ksm``, Ingens's and
SmartMD's coordinated variants): merging handles in-use duplicate pages
but must read whole pages to prove equality, while bloat recovery targets
never-written pages and bails out of in-use pages after ~10 bytes.  This
module implements the merging side so that comparison can be measured
(see the ablation bench), and so workloads with genuinely duplicated
content can be deduplicated like a real kernel would.

Mechanism:

* a :class:`CowShareRegistry` maps a content tag to its canonical frame
  and reference-counts sharers; canonical frames are pinned (compaction
  skips them) and leave the reverse map (they no longer belong to one
  mapping);
* :class:`SamePageMerger` scans processes' private base mappings with a
  per-epoch page budget.  Zero pages are deduplicated onto the canonical
  zero frame (the same operation bloat recovery performs); other pages
  merge with a previously-registered page of equal content;
* writes to merged pages take a COW fault that copies the content back
  out (handled in the fault path), decrementing the share count; the
  canonical frame is freed when its last sharer leaves.

Scan cost is charged per *byte compared* — full pages for candidates —
which is exactly the asymmetry the paper's §3.2 claim rests on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import audit, trace
from repro.kernel.kthread import RateLimiter
from repro.mem.frames import ZERO_TAG
from repro.units import BASE_PAGE_SIZE
from repro.vm.page_table import SHARED, SHARED_COW

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class CowShareRegistry:
    """Canonical frames for merged content, with reference counts."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._by_tag: dict[int, int] = {}
        self.refcount: dict[int, int] = {}
        #: lifetime counters
        self.merges = 0
        self.cow_breaks = 0

    def canonical_for(self, tag: int) -> int | None:
        """Shared canonical frame for ``tag``, dropping stale entries."""
        frame = self._by_tag.get(tag)
        if frame is None:
            return None
        frames = self.kernel.frames
        if not frames.allocated[frame] or frames.content_tag[frame] != tag:
            # content changed or frame freed since registration: stale.
            # (refcount 0 is fine — it is an exclusive candidate awaiting
            # its first merge partner.)
            self._by_tag.pop(tag, None)
            return None
        return frame

    def make_canonical(self, frame: int, tag: int) -> None:
        """Turn an exclusively-mapped frame into a pinned shared canonical."""
        self._by_tag[tag] = frame
        self.refcount[frame] = 1
        self.kernel.frames.pinned[frame] = True
        self.kernel.rmap_remove(frame)

    def share(self, frame: int) -> None:
        """Add one sharer to a canonical frame."""
        self.refcount[frame] += 1

    def unshare(self, frame: int) -> None:
        """Drop one sharer; free the canonical when the last one leaves."""
        count = self.refcount.get(frame)
        if count is None:
            raise ValueError(f"frame {frame} is not a shared canonical")
        if count > 1:
            self.refcount[frame] = count - 1
            return
        del self.refcount[frame]
        frames = self.kernel.frames
        frames.pinned[frame] = False
        tag = int(frames.content_tag[frame])
        if self._by_tag.get(tag) == frame:
            del self._by_tag[tag]
        self.kernel.buddy.free(frame, 0)

    def pages_saved(self) -> int:
        """Physical frames currently saved by sharing (sharers - frames)."""
        return sum(count - 1 for count in self.refcount.values())


class SamePageMerger:
    """The ksm daemon: rate-limited scanning and merging."""

    def __init__(self, kernel: "Kernel", pages_per_sec: float = 20_000.0):
        self.kernel = kernel
        self.registry = kernel.cow_registry
        self._limiter = RateLimiter(pages_per_sec, kernel.config.epoch_us)
        self._cursor: dict[int, int] = {}  # pid -> last scanned vpn
        #: pages merged over the merger's lifetime (zero + content).
        self.merged_pages = 0
        self.bytes_compared = 0

    def run_epoch(self) -> int:
        """Scan up to this epoch's budget of pages; returns pages merged."""
        self._limiter.refill()
        compared_before = self.bytes_compared
        merged = 0
        for proc in list(self.kernel.processes):
            merged += self._scan_process(proc)
        self.merged_pages += merged
        if merged and (tp := self.kernel.trace) is not None and tp.enabled:
            compares = (self.bytes_compared - compared_before) // BASE_PAGE_SIZE
            tp.emit(trace.TraceKind.KSM_MERGE, "ksmd",
                    compares * self.kernel.costs.ksm_compare_us,
                    detail=f"merged={merged} compared={compares}")
        return merged

    def _scan_process(self, proc) -> int:
        pt = proc.page_table
        vpns = pt.mapped_vpns().tolist()
        if not vpns:
            return 0
        start_after = self._cursor.get(proc.pid, -1)
        ordered = [v for v in vpns if v > start_after] + [v for v in vpns if v <= start_after]
        merged = 0
        for vpn in ordered:
            if not self._limiter.take():
                return merged
            self._cursor[proc.pid] = vpn
            if not pt.base_mapped(vpn) or pt.flags[vpn] & SHARED:
                continue
            merged += self._consider(proc, vpn, int(pt.frame[vpn]))
        return merged

    def _consider(self, proc, vpn: int, frame: int) -> int:
        kernel = self.kernel
        frames = kernel.frames
        # a comparison reads the page (hash/compare): full-page cost
        self.bytes_compared += BASE_PAGE_SIZE
        kernel.stats.khugepaged_cpu_us += kernel.costs.ksm_compare_us

        if frames.is_zero(frame):
            # zero pages dedup onto the canonical zero frame
            kernel.share_zero_page(proc, vpn, frame)
            return 1

        tag = int(frames.content_tag[frame])
        if tag == ZERO_TAG:
            return 0
        canonical = self.registry.canonical_for(tag)
        if canonical is None:
            # first sighting: remember it; if another page with this tag
            # appears while the content is unchanged, they will merge
            self.registry._by_tag[tag] = frame
            return 0
        if canonical == frame:
            return 0
        if self.registry.refcount.get(canonical, 0) == 0:
            # registered but still exclusive: promote it to canonical now
            owner = kernel.rmap_owner(canonical)
            if owner is None:
                self.registry._by_tag.pop(tag, None)
                return 0
            owner_proc, owner_vpn = owner
            self.registry.make_canonical(canonical, tag)
            owner_proc.page_table.remap(owner_vpn, canonical, set_bits=SHARED_COW)
        # merge this page into the canonical
        kernel.rmap_remove(frame)
        if (al := kernel.audit) is not None and al.enabled:
            al.ledger.record(frame, 1, audit.EV_KSM_MERGED, canonical)
        kernel.buddy.free(frame, 0)
        proc.page_table.remap(vpn, canonical, set_bits=SHARED_COW)
        self.registry.share(canonical)
        self.registry.merges += 1
        return 1
