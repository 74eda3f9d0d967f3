"""Processes: address space, per-region metadata and time accounting.

``Process.regions`` holds the per-huge-region metadata every policy in
the paper keys off: FreeBSD's ``population_map`` (residency), Ingens's
``access_bitvector`` (utilisation + idleness) and HawkEye's
``access_map`` (EMA access-coverage) are all views over it (§3.3).  It
is a :class:`repro.core.region_table.RegionTable`: parallel numpy
columns indexed by slot, which the epoch hot paths (access-bit sampling,
EMA ranking, WSS) read whole.  Residency and huge-ness are read off the
process's page table, as a kernel reads them off its PTEs.

Time accounting follows the execution model of the evaluation: a process
retires its workload's *useful work* at a rate discounted by page-fault
time and by the MMU overhead the hardware model reports for its current
mappings, so execution-time differences between policies emerge from
promotion decisions exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.region_table import RegionTable
from repro.vm.page_table import PageTable
from repro.vm.vma import VMAList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import AccessProfile

__all__ = ["Process", "ProcessStats", "RegionTable"]


@dataclass
class ProcessStats:
    """Counters a single process accumulates over its lifetime."""

    faults: int = 0
    huge_faults: int = 0
    cow_faults: int = 0
    fault_time_us: float = 0.0
    promotions: int = 0
    demotions: int = 0
    walk_cycles: float = 0.0
    total_cycles: float = 0.0
    #: walk cycles spent on remote-node page walks (0 on single-node).
    remote_walk_cycles: float = 0.0


class Process:
    """A simulated process: one address space plus execution state."""

    _next_pid = 1

    def __init__(self, name: str):
        self.pid = Process._next_pid
        Process._next_pid = self.pid + 1
        self.name = name
        self.page_table = PageTable()
        self.vmas = VMAList()
        self.regions: RegionTable = RegionTable(self.page_table)
        self.stats = ProcessStats()
        #: opaque access profile installed by the running workload phase.
        self.access_profile: Optional["AccessProfile"] = None
        #: measured MMU overhead for the last epoch (fraction of cycles).
        self.mmu_overhead: float = 0.0
        #: useful work retired so far / wall-clock attributed, microseconds.
        self.work_done_us: float = 0.0
        self.run_time_us: float = 0.0
        self.fault_time_epoch_us: float = 0.0
        self.finished = False
        #: creation order, used by FCFS policies (Linux khugepaged).
        self.launch_index = self.pid
        #: NUMA node this process's threads run on (scheduler placement).
        self.home_node: int = 0
        #: process-wide placement policy; None means local (first-touch).
        #: Typed loosely to keep single-node builds import-free of numa.
        self.mempolicy = None

    def rss_pages(self) -> int:
        """Resident set size in base pages (excludes shared-zero mappings)."""
        return self.page_table.resident_pages()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.pid} {self.name!r} rss={self.rss_pages()}p>"
