"""HawkEye's per-process ``access_map`` (paper §3.3, Figure 4).

The access_map is an array of buckets over access-coverage: regions whose
EMA coverage is 0–49 base pages sit in bucket 0, 50–99 in bucket 1, …,
450+ in bucket 9.  It encodes *frequency* (the bucket index — how many
TLB entries the region's accesses demand) and *recency* (position within
a bucket: a region moving **up** is inserted at the head, a region moving
**down** at the tail, and promotion consumes buckets from high index to
low, head to tail).  Cold regions therefore drift to low buckets and
bucket tails, deferring their promotion automatically.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.units import PAGES_PER_HUGE
from repro.vm.page_table import grown

#: bucket width in access-coverage units (paper: 10 buckets over 0..512).
BUCKET_WIDTH = 50
NUM_BUCKETS = 10


def bucket_of(coverage: float) -> int:
    """Bucket index for an access-coverage value (0..512)."""
    if coverage < 0:
        raise ValueError(f"coverage must be non-negative, got {coverage}")
    return min(NUM_BUCKETS - 1, int(coverage) // BUCKET_WIDTH)


class AccessMap:
    """Bucketed ordering of one process's promotion candidates."""

    def __init__(self) -> None:
        #: each bucket is an ordered set: iteration order = head to tail.
        self.buckets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(NUM_BUCKETS)
        ]
        #: bucket of each mapped hvpn, indexed by hvpn, -1 when absent
        #: (grown on demand), so :meth:`update_many` finds the regions
        #: that move with one gather.
        self._bucket_of = np.full(64, -1, dtype=np.int8)

    def __len__(self) -> int:
        return sum(map(len, self.buckets))

    def __contains__(self, hvpn: int) -> bool:
        return self._old(hvpn) >= 0

    def _old(self, hvpn: int) -> int:
        """Bucket of ``hvpn``, or -1 when it is not mapped."""
        column = self._bucket_of
        return column.item(hvpn) if hvpn < column.shape[0] else -1

    def _reserve(self, hvpn: int) -> None:
        """Grow the bucket column to cover ``hvpn``."""
        if hvpn >= self._bucket_of.shape[0]:
            self._bucket_of = grown(self._bucket_of, hvpn + 1, -1)

    def update(self, hvpn: int, coverage: float) -> None:
        """Place/move a region according to its new EMA coverage.

        Moving up inserts at the bucket head (recently hot), moving down
        appends at the tail; unchanged buckets keep their position.
        """
        new = bucket_of(min(coverage, PAGES_PER_HUGE))
        old = self._old(hvpn)
        if old == new:
            return
        if old >= 0:
            del self.buckets[old][hvpn]
        else:
            self._reserve(hvpn)
        bucket = self.buckets[new]
        if new > old:
            bucket[hvpn] = None
            bucket.move_to_end(hvpn, last=False)  # head
        else:
            bucket[hvpn] = None  # tail
        self._bucket_of[hvpn] = new

    def remove(self, hvpn: int) -> None:
        """Drop a region from the map (promoted, freed, or exited)."""
        old = self._old(hvpn)
        if old >= 0:
            del self.buckets[old][hvpn]
            self._bucket_of[hvpn] = -1

    def update_many(self, hvpns: np.ndarray, coverages: np.ndarray) -> None:
        """Bulk :meth:`update`: one vectorized bucket computation.

        Equivalent to calling ``update(hvpn, coverage)`` pairwise in array
        order for distinct ``hvpns`` — ``min``/truncate/divide happen as
        array ops, and the remaining OrderedDict fixups only run for
        regions whose bucket actually changed (the common case after an
        EMA refresh is *no* move, which one gather of the old buckets
        detects without touching Python values).
        """
        if not hvpns.size:
            return
        if bool((coverages < 0).any()):
            bad = float(coverages[coverages < 0][0])
            raise ValueError(f"coverage must be non-negative, got {bad}")
        clipped = np.minimum(coverages, PAGES_PER_HUGE)
        news = np.minimum(
            clipped.astype(np.int64) // BUCKET_WIDTH, NUM_BUCKETS - 1)
        self._reserve(int(hvpns.max()))
        olds = self._bucket_of[hvpns]
        moved = np.flatnonzero(olds != news)
        buckets = self.buckets
        for hvpn, old, new in zip(hvpns[moved].tolist(), olds[moved].tolist(),
                                  news[moved].tolist()):
            if old >= 0:
                del buckets[old][hvpn]
            bucket = buckets[new]
            if new > old:
                bucket[hvpn] = None
                bucket.move_to_end(hvpn, last=False)  # head
            else:
                bucket[hvpn] = None  # tail
        self._bucket_of[hvpns[moved]] = news[moved]

    def remove_many(self, hvpns: np.ndarray) -> None:
        """Bulk :meth:`remove`: one gather finds the mapped regions."""
        if not hvpns.size:
            return
        self._reserve(int(hvpns.max()))
        olds = self._bucket_of[hvpns]
        mapped = np.flatnonzero(olds >= 0)
        buckets = self.buckets
        for hvpn, old in zip(hvpns[mapped].tolist(), olds[mapped].tolist()):
            del buckets[old][hvpn]
        self._bucket_of[hvpns[mapped]] = -1

    def highest_nonempty(self) -> int | None:
        """Index of the hottest non-empty bucket, or None when empty."""
        for idx in range(NUM_BUCKETS - 1, -1, -1):
            if self.buckets[idx]:
                return idx
        return None

    def head(self, idx: int) -> int | None:
        """First (most recently hot) region of bucket ``idx``."""
        bucket = self.buckets[idx]
        return next(iter(bucket)) if bucket else None

    def pop_next(self) -> int | None:
        """Remove and return the next region in promotion order."""
        idx = self.highest_nonempty()
        if idx is None:
            return None
        hvpn = next(iter(self.buckets[idx]))
        self.remove(hvpn)
        return hvpn

    def iter_promotion_order(self):
        """All regions, hottest bucket first, head to tail within buckets."""
        for idx in range(NUM_BUCKETS - 1, -1, -1):
            yield from self.buckets[idx]

    def pressure_estimate(self) -> float:
        """Crude TLB-entry demand of the unpromoted candidates.

        Used by HawkEye-G as its stand-in for measured MMU overhead: the
        sum of bucket mid-point coverages approximates how many base-page
        TLB entries the candidates would occupy."""
        total = 0.0
        for idx, bucket in enumerate(self.buckets):
            total += len(bucket) * (idx + 0.5) * BUCKET_WIDTH
        return total
