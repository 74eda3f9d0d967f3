"""Per-process region metadata as numpy columns.

Every huge-page policy keys off per-region metadata: FreeBSD's
population map (residency), Ingens's access bitvector (utilisation and
idleness) and HawkEye's EMA access-coverage ``access_map`` (§3.3).  The
epoch hot paths — access-bit sampling, coverage-EMA updates, access_map
ranking, WSS estimation, knumad candidate harvest — read or write one
field of *every* region of a process, every sampling period, so the
fields are parallel numpy columns and those passes are single vectorized
statements.

:class:`RegionTable` is that column store and nothing more.  A region is
a *slot*: ``slot_of`` maps hvpn to slot, and column ``c``'s value for
the region is ``table.c[slot]``; the live prefix of every column is
``[:n]``.  Scalar reads use ``column.item(slot)`` so callers get Python
scalars (procfs, audit inputs and ``repro why`` serialise them).
Residency and huge-ness are not stored here: they are read from the
process's page table (``PageTable.region_resident``/``region_huge``, or
the :meth:`RegionTable.resident_arr`/:meth:`RegionTable.is_huge_arr`
gathers), the one place mappings change.

Slots are append-only: regions are only ever removed wholesale via
:meth:`RegionTable.clear` (process teardown), which keeps slot order ==
insertion order, the property the access_map's recency semantics and
the NUMA candidate harvest rely on.  Creating a slot may reallocate the
columns, so take them fresh after any call that can create one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.vm.page_table import PageTable, grown

#: initial slot capacity of a table (grows by doubling).
_INITIAL_CAPACITY = 64

#: the per-slot columns and their dtypes (see :class:`RegionTable`).
_COLUMNS = (
    ("hvpn", np.int64), ("coverage_ema", np.float64),
    ("last_coverage", np.int64), ("idle", bool),
    ("promotions", np.int64), ("bloat_demoted", bool),
)


class RegionTable:
    """One process's region columns, slot-ordered by creation.

    ``hvpn`` is the region's huge virtual page number; ``coverage_ema``
    the exponential moving average of its sampled access-coverage
    (0..512); ``last_coverage`` the raw coverage of the latest sample;
    ``idle`` Ingens's flag for no access in that sample; ``promotions``
    the promotions it has received; and ``bloat_demoted`` is set when
    bloat recovery demoted it (a promotion skip).
    """

    __slots__ = ("_pt", "slot_of", "n") + tuple(name for name, _ in _COLUMNS)

    def __init__(self, pt: PageTable) -> None:
        self._pt = pt
        for name, dtype in _COLUMNS:
            setattr(self, name, np.zeros(_INITIAL_CAPACITY, dtype=dtype))
        #: hvpn -> slot, in insertion order.
        self.slot_of: dict[int, int] = {}
        self.n = 0

    def slot(self, hvpn: int) -> Optional[int]:
        """The slot of region ``hvpn``, or None when it has no record."""
        return self.slot_of.get(hvpn)

    def ensure(self, hvpn: int) -> int:
        """The slot of region ``hvpn``, creating a zeroed one if absent."""
        slot = self.slot_of.get(hvpn)
        if slot is not None:
            return slot
        slot = self.n
        if slot == self.hvpn.shape[0]:
            for name, _ in _COLUMNS:
                setattr(self, name, grown(getattr(self, name), slot + 1, 0))
        self._pt.reserve_region(hvpn)
        for name, _ in _COLUMNS:
            getattr(self, name)[slot] = 0
        self.hvpn[slot] = hvpn
        self.slot_of[hvpn] = slot
        self.n = slot + 1
        return slot

    def clear(self) -> None:
        """Drop every region (process teardown)."""
        self.slot_of.clear()
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def __contains__(self, hvpn: int) -> bool:
        return hvpn in self.slot_of

    # Every record reserved its page-table slots, so the gathers need no
    # bounds check.
    def resident_arr(self) -> np.ndarray:
        """Pages each region maps (512 when huge), slot-ordered (a copy)."""
        return self._pt.region_resident_arr(self.hvpn[: self.n])

    def is_huge_arr(self) -> np.ndarray:
        """Huge-mapped flags, slot-ordered (a gathered copy)."""
        return self._pt.region_huge_arr(self.hvpn[: self.n])
