"""Frame table: per-frame allocation state and page-*content* descriptors.

The simulator never stores real page bytes.  Instead each base frame
carries a compact content descriptor:

* ``first_nonzero`` — byte offset of the first non-zero byte in the 4 KiB
  page, or ``-1`` when the page is entirely zero.  This single field drives
  HawkEye's bloat-recovery cost model (§3.2 of the paper): verifying that a
  page is *not* zero costs ``first_nonzero + 1`` byte reads (measured at
  9.11 bytes on average across 56 workloads, paper Figure 3), while
  verifying a zero page costs the full 4096 bytes.
* ``content_tag`` — an opaque integer naming the page's logical content.
  Two frames with equal tags hold identical bytes; tag ``0`` is the
  all-zero page.  KSM-style same-page merging (``repro.virt.ksm``) and the
  zero-page deduplication of §3.2 operate on tags.

State is held in numpy arrays so bulk operations (zeroing a freed huge
page, scanning an allocation range) stay cheap even for multi-GB simulated
memories.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AllocationError
from repro.units import BASE_PAGE_SIZE

#: Content tag of the all-zero page.
ZERO_TAG = 0

#: ``owner`` value of a frame not attached to any process.
NO_OWNER = -1


class FrameTable:
    """Physical frame metadata for a machine with ``num_frames`` base frames."""

    def __init__(self, num_frames: int):
        if num_frames <= 0:
            raise AllocationError(f"need at least one frame, got {num_frames}")
        self.num_frames = num_frames
        self.allocated = np.zeros(num_frames, dtype=bool)
        #: -1 => page content is all zeros.
        self.first_nonzero = np.full(num_frames, -1, dtype=np.int32)
        self.content_tag = np.zeros(num_frames, dtype=np.int64)
        self.owner = np.full(num_frames, NO_OWNER, dtype=np.int32)
        #: pinned frames cannot be migrated by compaction (file cache etc.).
        self.pinned = np.zeros(num_frames, dtype=bool)
        #: provenance ledger (repro.audit.FrameLedger) or None; set by
        #: audit.attach.  The mutation seams below feed it when enabled.
        self.ledger = None
        self._next_tag = 1

    # ------------------------------------------------------------------ #
    # content                                                            #
    # ------------------------------------------------------------------ #

    def fresh_tag(self) -> int:
        """Mint a content tag no other page has ever held."""
        tag = self._next_tag
        self._next_tag += 1
        return tag

    def write(self, frame: int, first_nonzero: int = 0, tag: int | None = None) -> None:
        """Record that the owner wrote non-zero data into ``frame``.

        ``first_nonzero`` is where the page's first non-zero byte now sits;
        ``tag`` names the new content (a fresh unique tag by default).
        """
        if not 0 <= first_nonzero < BASE_PAGE_SIZE:
            raise ValueError(f"first_nonzero {first_nonzero} outside page")
        self.first_nonzero[frame] = first_nonzero
        self.content_tag[frame] = self.fresh_tag() if tag is None else tag

    def write_zero(self, frame: int | np.ndarray | slice) -> None:
        """Record that the owner wrote zeroes over the whole of ``frame``
        (a frame number, an array of them or a slice).  An owner's write
        is not a kernel zero-fill: the ledger records nothing."""
        self.first_nonzero[frame] = -1
        self.content_tag[frame] = ZERO_TAG

    def write_frames(self, frames: Sequence[int], first_nonzero: int = 0, tag: int | None = None) -> None:
        """Bulk :meth:`write` over an arbitrary frame list (tags in list order)."""
        if len(frames) == 0:
            return
        if not 0 <= first_nonzero < BASE_PAGE_SIZE:
            raise ValueError(f"first_nonzero {first_nonzero} outside page")
        idx = np.asarray(frames, dtype=np.int64)
        self.first_nonzero[idx] = first_nonzero
        if tag is None:
            self.content_tag[idx] = np.arange(
                self._next_tag, self._next_tag + len(frames), dtype=np.int64
            )
            self._next_tag += len(frames)
        else:
            self.content_tag[idx] = tag

    def zero_fill(self, start: int, count: int = 1) -> None:
        """Zero the content of ``count`` frames starting at ``start``."""
        self.first_nonzero[start:start + count] = -1
        self.content_tag[start:start + count] = ZERO_TAG
        if (led := self.ledger) is not None and led.enabled:
            led.on_zero(start, count)

    def zero_fill_frames(self, frames: np.ndarray) -> None:
        """:meth:`zero_fill` over an index array of distinct frames, with
        one ledger recording for all of them."""
        self.first_nonzero[frames] = -1
        self.content_tag[frames] = ZERO_TAG
        if (led := self.ledger) is not None and led.enabled:
            led.on_zero_frames(frames)

    def is_zero(self, frame: int) -> bool:
        """True when the frame's content is entirely zero bytes."""
        return bool(self.first_nonzero[frame] < 0)

    def zero_mask(self, start: int, count: int) -> np.ndarray:
        """Boolean mask of all-zero frames in ``[start, start+count)``."""
        return self.first_nonzero[start:start + count] < 0

    def scan_cost_bytes(self, frame: int) -> int:
        """Bytes a zero-scan must read before classifying this frame.

        A scan stops at the first non-zero byte; a genuinely zero page
        forces a read of all 4096 bytes (paper §3.2).
        """
        fnz = int(self.first_nonzero[frame])
        return BASE_PAGE_SIZE if fnz < 0 else fnz + 1

    # ------------------------------------------------------------------ #
    # allocation bookkeeping (driven by the buddy allocator)             #
    # ------------------------------------------------------------------ #

    def mark_allocated(self, start: int, count: int, owner: int = NO_OWNER,
                       order: int = 0) -> None:
        """Buddy bookkeeping: mark a frame range allocated to an owner.

        ``order`` is the buddy order of the allocation (0 for every page
        of a run of base frames, however long the run).
        """
        self.allocated[start:start + count] = True
        self.owner[start:start + count] = owner
        if (led := self.ledger) is not None and led.enabled:
            led.on_alloc(start, count, owner, order)

    def mark_free(self, start: int, count: int) -> None:
        """Buddy bookkeeping: mark a frame range free and unpinned."""
        self.allocated[start:start + count] = False
        self.owner[start:start + count] = NO_OWNER
        self.pinned[start:start + count] = False
        if (led := self.ledger) is not None and led.enabled:
            led.on_free(start, count)

    def mark_free_frames(self, frames: np.ndarray) -> None:
        """:meth:`mark_free` over an index array of distinct frames."""
        self.allocated[frames] = False
        self.owner[frames] = NO_OWNER
        self.pinned[frames] = False
        if (led := self.ledger) is not None and led.enabled:
            led.on_free_frames(frames)

    def allocated_count(self) -> int:
        """Number of currently allocated frames."""
        return int(self.allocated.sum())
