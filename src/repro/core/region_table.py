"""Per-process region metadata on a numpy structure-of-arrays substrate.

Every huge-page policy keys off per-region metadata (residency,
huge-ness, EMA access coverage — see :class:`RegionInfo`); the epoch hot
paths — access-bit sampling, coverage-EMA updates, access_map ranking,
WSS estimation, knumad candidate harvest — read or write one field of
*every* region of a process, every sampling period.  Storing regions as
a dict of Python objects makes each of those passes a Python-level loop;
storing them as parallel numpy arrays makes them single vectorized
statements.

:class:`RegionTable` is that array store, wrapped in enough of the
``dict[int, RegionInfo]`` surface (``items``/``values``/``get``/``in``/
iteration in insertion order/``clear``) that scalar call sites keep
working unchanged.  :class:`RegionInfo` is now a *proxy*: a slot handle
whose attributes read and write the table's arrays directly, so scalar
and vectorized code always observe the same state — there is exactly one
copy of every field.  Residency and huge-ness are read from the
process's page table, the one place mappings change.

Slots are append-only: regions are only ever removed wholesale via
:meth:`RegionTable.clear` (process teardown), which keeps slot order ==
insertion order == dict-iteration order, the property the access_map's
recency semantics and the NUMA candidate harvest rely on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.units import PAGES_PER_HUGE
from repro.vm.page_table import PageTable

#: initial slot capacity of a table (grows by doubling).
_INITIAL_CAPACITY = 64


class RegionInfo:
    """Metadata for one huge-page-sized virtual region of a process.

    A lightweight proxy over one :class:`RegionTable` slot: every
    attribute access reads or writes the table's arrays, returning plain
    Python scalars (the table's dtypes never leak to callers — procfs
    serialises these values as JSON).
    """

    __slots__ = ("_table", "_slot", "_pt", "_hvpn")

    def __init__(self, table: "RegionTable", slot: int, hvpn: int):
        self._table = table
        self._slot = slot
        self._pt = table._pt
        self._hvpn = hvpn

    @property
    def hvpn(self) -> int:
        return self._hvpn

    # Page-table reads inlined (policies make them per region per pass);
    # the record reserved its slots, so they need no bounds check.
    @property
    def resident(self) -> int:
        """Base pages mapped, shared ones included (512 when huge-mapped)."""
        return self._pt.hcount.item(self._hvpn)

    @property
    def is_huge(self) -> bool:
        """Whether the region is mapped by one huge mapping."""
        return self._pt.hframe.item(self._hvpn) >= 0

    @property
    def coverage_ema(self) -> float:
        """Exponential moving average of sampled access-coverage (0..512)."""
        return float(self._table._coverage_ema[self._slot])

    @coverage_ema.setter
    def coverage_ema(self, value: float) -> None:
        self._table._coverage_ema[self._slot] = value

    @property
    def last_coverage(self) -> int:
        """Raw coverage from the most recent access-bit sample."""
        return int(self._table._last_coverage[self._slot])

    @last_coverage.setter
    def last_coverage(self, value: int) -> None:
        self._table._last_coverage[self._slot] = value

    @property
    def idle(self) -> bool:
        """Ingens idleness flag: no access observed in the last sample."""
        return bool(self._table._idle[self._slot])

    @idle.setter
    def idle(self, value: bool) -> None:
        self._table._idle[self._slot] = value

    @property
    def promotions(self) -> int:
        """Number of promotions this region has received."""
        return int(self._table._promotions[self._slot])

    @promotions.setter
    def promotions(self, value: int) -> None:
        self._table._promotions[self._slot] = value

    @property
    def bloat_demoted(self) -> bool:
        """Set when bloat recovery demoted this region (promotion skip)."""
        return bool(self._table._bloat_demoted[self._slot])

    @bloat_demoted.setter
    def bloat_demoted(self, value: bool) -> None:
        self._table._bloat_demoted[self._slot] = value

    def utilization(self) -> float:
        """Fraction of the region's 512 base pages that are resident."""
        return self.resident / PAGES_PER_HUGE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionInfo(hvpn={self.hvpn}, resident={self.resident}, "
            f"is_huge={self.is_huge}, coverage_ema={self.coverage_ema}, "
            f"last_coverage={self.last_coverage}, idle={self.idle}, "
            f"promotions={self.promotions}, bloat_demoted={self.bloat_demoted})"
        )


class RegionTable:
    """Structure-of-arrays region store with a dict-compatible surface.

    Scalar call sites use it exactly like the ``dict[int, RegionInfo]``
    it replaces; vectorized passes read whole columns via the ``*_arr``
    accessors (views over the live prefix — valid until the next region
    is created, so take them fresh inside each pass).
    """

    __slots__ = (
        "_pt", "_hvpn", "_coverage_ema", "_last_coverage",
        "_idle", "_promotions", "_bloat_demoted", "_slot_of", "_proxies", "n",
    )

    def __init__(self, pt: PageTable) -> None:
        cap = _INITIAL_CAPACITY
        self._pt = pt
        self._hvpn = np.zeros(cap, dtype=np.int64)
        self._coverage_ema = np.zeros(cap, dtype=np.float64)
        self._last_coverage = np.zeros(cap, dtype=np.int64)
        self._idle = np.zeros(cap, dtype=bool)
        self._promotions = np.zeros(cap, dtype=np.int64)
        self._bloat_demoted = np.zeros(cap, dtype=bool)
        #: hvpn -> slot, in insertion order (the iteration order).
        self._slot_of: dict[int, int] = {}
        self._proxies: list[RegionInfo] = []
        self.n = 0

    # ------------------------------------------------------------------ #
    # creation / growth                                                  #
    # ------------------------------------------------------------------ #

    def _grow(self) -> None:
        cap = 2 * self._hvpn.shape[0]
        for name in ("_hvpn", "_coverage_ema", "_last_coverage", "_idle",
                     "_promotions", "_bloat_demoted"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def get_or_create(self, hvpn: int) -> RegionInfo:
        """The record for ``hvpn``, creating a zeroed slot if absent."""
        slot = self._slot_of.get(hvpn)
        if slot is not None:
            return self._proxies[slot]
        slot = self.n
        if slot == self._hvpn.shape[0]:
            self._grow()
        self._pt.reserve_region(hvpn)
        self._hvpn[slot] = hvpn
        self._coverage_ema[slot] = 0.0
        self._last_coverage[slot] = 0
        self._idle[slot] = False
        self._promotions[slot] = 0
        self._bloat_demoted[slot] = False
        self._slot_of[hvpn] = slot
        proxy = RegionInfo(self, slot, hvpn)
        self._proxies.append(proxy)
        self.n = slot + 1
        return proxy

    def clear(self) -> None:
        """Drop every region (process teardown)."""
        self._slot_of.clear()
        self._proxies.clear()
        self.n = 0

    # ------------------------------------------------------------------ #
    # dict-compatible surface                                            #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.n

    def __contains__(self, hvpn: int) -> bool:
        return hvpn in self._slot_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot_of)

    def __getitem__(self, hvpn: int) -> RegionInfo:
        return self._proxies[self._slot_of[hvpn]]

    def get(self, hvpn: int, default=None):
        """The record for ``hvpn``, or ``default`` when absent."""
        slot = self._slot_of.get(hvpn)
        return self._proxies[slot] if slot is not None else default

    def keys(self):
        """Region hvpns in insertion order (a dict keys view)."""
        return self._slot_of.keys()

    def values(self) -> Iterator[RegionInfo]:
        """Region records in insertion order."""
        return iter(self._proxies)

    def items(self) -> Iterator[tuple[int, RegionInfo]]:
        """``(hvpn, record)`` pairs in insertion order."""
        return zip(self._slot_of.keys(), self._proxies)

    # ------------------------------------------------------------------ #
    # column views (live prefix; take fresh per pass)                    #
    # ------------------------------------------------------------------ #

    def hvpn_arr(self) -> np.ndarray:
        """Region hvpns, slot-ordered (== insertion order)."""
        return self._hvpn[: self.n]

    def resident_arr(self) -> np.ndarray:
        """Resident base-page counts, slot-ordered (a gathered copy)."""
        return self._pt.region_resident_arr(self._hvpn[: self.n])

    def is_huge_arr(self) -> np.ndarray:
        """Huge-mapped flags, slot-ordered (a gathered copy)."""
        return self._pt.region_huge_arr(self._hvpn[: self.n])

    def coverage_ema_arr(self) -> np.ndarray:
        """Coverage EMAs, slot-ordered (writable view)."""
        return self._coverage_ema[: self.n]

    def last_coverage_arr(self) -> np.ndarray:
        """Last raw coverage samples, slot-ordered (writable view)."""
        return self._last_coverage[: self.n]

    def idle_arr(self) -> np.ndarray:
        """Idleness flags, slot-ordered (writable view)."""
        return self._idle[: self.n]

    def bloat_demoted_arr(self) -> np.ndarray:
        """Bloat-demotion flags, slot-ordered (writable view)."""
        return self._bloat_demoted[: self.n]
