"""The Kernel façade: physical memory, processes, policy and the epoch loop.

A :class:`Kernel` binds together the substrates (buddy allocator, frame
table, compaction, fragmenter), the analytic MMU model, one huge-page
policy and the set of running workloads.  Time advances in epochs (one
simulated second by default); each epoch every runnable workload steps,
then the policy performs its rate-limited background work, then access
bits are sampled on the paper's schedule (every 30 s).

The kernel also owns the mechanisms every policy shares:

* ``promote_region`` — in-place remap when the region's frames are
  already a contiguous aligned block (huge-at-fault then demoted, or a
  fully-populated FreeBSD reservation), otherwise a khugepaged-style
  *collapse*: allocate an order-9 block (compacting if needed), copy
  resident pages, zero the rest;
* ``demote_region`` / ``dedup_zero_pages`` — the §3.2 bloat-recovery
  mechanics: break a huge mapping and remap its zero-filled base pages
  copy-on-write onto the canonical zero frame;
* ``madvise_free`` — the release path Redis uses in Figure 1, which
  breaks huge mappings and returns (dirty) frames to the buddy
  allocator's non-zero lists;
* the OOM path: on allocation failure the kernel reclaims file cache,
  then gives the policy one chance to free memory
  (:meth:`repro.policies.base.HugePagePolicy.on_memory_pressure`), and
  only then raises :class:`~repro.errors.OutOfMemoryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro import audit as audit_mod
from repro import trace
from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.metrics import telemetry as telemetry_mod
from repro.kernel.costs import CostModel
from repro.kernel.fault import handle_fault, handle_fault_range
from repro.kernel.stats import KernelStats
from repro.kernel.swap import SwapDevice
from repro.mem.buddy import BuddyAllocator
from repro.mem.compaction import Compactor
from repro.mem.fragmentation import Fragmenter, fmfi
from repro.mem.frames import FrameTable
from repro.mem.zeropage import ZeroPageRegistry
from repro.numa.topology import NumaTopology
from repro.tlb.mmu_model import MMUModel
from repro.tlb.perf import PMUCounters
from repro.tlb.tlb import TLBConfig
from repro.units import BASE_PAGE_SIZE, PAGES_PER_HUGE, SEC, pages_of
from repro.vm.page_table import SHARED, SHARED_COW, SHARED_ZERO
from repro.vm.process import Process
from repro.vm.vma import VMA, HugePageHint, VMAKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro import heat as heat_mod
    from repro.fleet.manager import FleetManager
    from repro.policies.base import HugePagePolicy
    from repro.workloads.base import Workload, WorkloadRun

#: Owner id of kernel-reserved frames (e.g. the canonical zero page).
KERNEL_OWNER = -3


@dataclass
class KernelConfig:
    """Machine and kernel-loop parameters."""

    mem_bytes: int
    epoch_us: float = SEC
    #: epochs between access-bit samples (paper §3.3: every 30 seconds).
    sample_period: int = 30
    #: EMA smoothing for access-coverage samples.
    ema_alpha: float = 0.3
    costs: CostModel = field(default_factory=CostModel)
    tlb: TLBConfig = field(default_factory=TLBConfig)
    #: page-migration budget for one compaction attempt.
    compact_budget_pages: int = 4096
    #: background compaction daemon (kcompactd) rate; 0 disables it.
    #: When enabled it rebuilds order-9 blocks whenever FMFI is high,
    #: which is what lets Ingens re-enter its aggressive phase after
    #: memory churn.
    kcompactd_pages_per_sec: float = 0.0
    #: frame content starts zeroed (fresh boot) or dirty (long-running).
    boot_zeroed: bool = True
    #: SSD-backed swap partition size; 0 = no swap (OOM on exhaustion).
    swap_bytes: int = 0
    #: NUMA topology; the default single node keeps every fast path and
    #: produces bit-identical results to a build without the subsystem.
    topology: NumaTopology = field(default_factory=NumaTopology)
    #: knumad balancing-kthread migration rate; 0 disables balancing
    #: (hint faults and migrations) even on multi-node topologies.
    knumad_pages_per_sec: float = 0.0
    #: Mitosis-style per-node page-table replicas: page walks always hit
    #: local memory, at a per-node memory cost reported in numastat.
    replicated_page_tables: bool = False

    def __post_init__(self) -> None:
        from repro.errors import ConfigError
        from repro.units import HUGE_PAGE_SIZE

        if self.mem_bytes < 2 * HUGE_PAGE_SIZE:
            raise ConfigError(
                f"mem_bytes={self.mem_bytes} too small: need at least two "
                f"huge pages ({2 * HUGE_PAGE_SIZE} bytes) of simulated memory"
            )
        if self.epoch_us <= 0:
            raise ConfigError(f"epoch_us must be positive, got {self.epoch_us}")
        if self.sample_period < 1:
            raise ConfigError(f"sample_period must be >= 1, got {self.sample_period}")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ConfigError(f"ema_alpha must be in (0, 1], got {self.ema_alpha}")
        if self.swap_bytes < 0:
            raise ConfigError(f"swap_bytes must be non-negative, got {self.swap_bytes}")
        self.topology.validate(pages_of(self.mem_bytes))
        if self.knumad_pages_per_sec < 0:
            raise ConfigError(
                f"knumad_pages_per_sec must be non-negative, got {self.knumad_pages_per_sec}"
            )


class Kernel:
    """One simulated machine running one policy."""

    def __init__(self, config: KernelConfig, policy_factory: Callable[["Kernel"], "HugePagePolicy"]):
        self.config = config
        self.costs = config.costs
        self.frames = FrameTable(pages_of(config.mem_bytes))
        if not config.boot_zeroed:
            self.frames.first_nonzero[:] = 0
        #: NUMA state; stays None on single-node topologies so every
        #: fault/walk-path guard short-circuits and results stay
        #: bit-identical to a kernel without the subsystem.
        self.numa = None
        if config.topology.nodes > 1:
            from repro.numa.allocator import NodeAllocator, NodeCompactor
            from repro.numa.balance import NumaState

            self.buddy = NodeAllocator(self.frames, config.topology)
            self.compactor = NodeCompactor(self.buddy, self._migrate_frame)
            self.numa = NumaState(self)
        else:
            self.buddy = BuddyAllocator(self.frames)
            self.compactor = Compactor(self.buddy, self._migrate_frame)
        self.fragmenter = Fragmenter(self.buddy)
        self.mmu = MMUModel(config.tlb)
        self.stats = KernelStats()
        #: Observer slots.  Every emission, recording or sampling site
        #: guards on ``(x := kernel.<slot>) is not None and x.enabled``,
        #: so an empty slot costs one attribute load and one ``None``
        #: test, and an attached observer with ``enabled = False`` is
        #: paused.  Tracepoint sink; attach with :func:`repro.trace.attach`.
        self.trace: Optional[trace.Tracer] = None
        #: epoch telemetry sampler; attach with
        #: :func:`repro.metrics.telemetry.attach`.
        self.telemetry: Optional["telemetry_mod.TelemetrySampler"] = None
        #: decision/provenance audit log; attach with
        #: :func:`repro.audit.attach`.
        self.audit: Optional["audit_mod.AuditLog"] = None
        #: DAMON-style spatial heat monitor; attach with
        #: :func:`repro.heat.attach`.
        self.heat: Optional["heat_mod.HeatMonitor"] = None
        #: multi-tenant churn driver, run after the sampler; filled by
        #: :class:`repro.fleet.manager.FleetManager` (no pause state).
        self.fleet: Optional["FleetManager"] = None
        self.now_us = 0.0
        self.processes: list[Process] = []
        #: bumped each time :meth:`spawn` or :meth:`exit_process` changes
        #: ``processes``, so views of the live list can be cached.
        self.process_generation = 0
        self.runs: list["WorkloadRun"] = []
        self.pmu: dict[int, PMUCounters] = {}
        #: Base reverse map as frame-indexed columns: owning pid (0 = no
        #: private base mapping; pids start at 1), vpn, and an insertion
        #: ``seq`` that keeps the FIFO order swap reclaim walks (a
        #: migration re-inserts).  ``rmap_vpn`` and ``rmap_seq`` mean
        #: something only where ``rmap_pid`` is set.  Zero-filled and
        #: empty columns leave their pages untouched until first use.
        nframes = self.frames.num_frames
        self.rmap_pid = np.zeros(nframes, dtype=np.int32)
        self.rmap_vpn = np.empty(nframes, dtype=np.int64)
        self.rmap_seq = np.empty(nframes, dtype=np.int64)
        self._rmap_next = 0
        self._rmap_procs: dict[int, Process] = {}
        #: huge head frame -> (process, hvpn), in insertion order.
        self._rmap_huge: dict[int, tuple[Process, int]] = {}
        #: slowdown factor the pre-zeroing thread imposes this epoch,
        #: scaled by each workload's cache sensitivity (Figure 10 model).
        self.prezero_interference = 0.0
        #: environment-imposed slowdown (e.g. host swap thrash for a VM).
        self.external_slowdown = 0.0
        #: called with (start_frame, count) whenever frames are allocated;
        #: returns extra latency (the virt layer backs guest frames with
        #: host faults here).  None outside virtualised setups.
        self.frame_alloc_hook: Optional[Callable[[int, int], float]] = None
        self.swap = (
            SwapDevice(self, pages_of(config.swap_bytes)) if config.swap_bytes else None
        )
        #: host backing for nested walks; the virt layer overrides this.
        self.host_huge_fraction: Callable[[Process], Optional[float]] = lambda proc: None
        self.epoch_hooks: list[Callable[["Kernel"], None]] = []
        self._va_cursor: dict[int, int] = {}
        self._run_by_pid: dict[int, "WorkloadRun"] = {}
        zero_frame, _ = self.buddy.alloc(order=0, owner=KERNEL_OWNER)
        self.frames.zero_fill(zero_frame)
        self.frames.pinned[zero_frame] = True
        self.zero_registry = ZeroPageRegistry(zero_frame)
        from repro.mem.samepage import CowShareRegistry

        #: canonical frames for ksm-merged (content-identical) pages.
        self.cow_registry = CowShareRegistry(self)
        self.policy: "HugePagePolicy" = policy_factory(self)
        if telemetry_mod.capturing:
            telemetry_mod.autoattach(self)

    # ------------------------------------------------------------------ #
    # process / workload management                                       #
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        workload: "Workload",
        name: str | None = None,
        node: int | None = None,
        mempolicy=None,
    ) -> "WorkloadRun":
        """Create a process running ``workload``; returns its run handle.

        ``node`` pins the process's home node (where its threads run and
        first-touch allocations land); the default round-robins launches
        across nodes like a gang scheduler.  ``mempolicy`` installs a
        process-wide :class:`repro.numa.mempolicy.MemPolicy`.
        """
        from repro.workloads.base import WorkloadRun

        proc = Process(name or workload.name)
        proc.launch_index = len(self.processes)
        if node is not None:
            proc.home_node = node
        elif self.numa is not None:
            proc.home_node = proc.launch_index % self.numa.nodes
        proc.mempolicy = mempolicy
        self.processes.append(proc)
        self.process_generation += 1
        self.pmu[proc.pid] = PMUCounters()
        run = WorkloadRun(self, proc, workload)
        self.runs.append(run)
        self._run_by_pid[proc.pid] = run
        return run

    def exit_process(self, proc: Process) -> int:
        """Tear a process down: unmap everything, free its frames.

        Returns the number of physical pages released.  The policy's
        per-process bookkeeping is dropped via ``on_process_exit`` and
        the workload run (if any) is marked finished.
        """
        pt = proc.page_table
        freed = 0
        for hvpn in pt.huge_in_order().tolist() if pt.nhuge else ():
            frame = int(pt.hframe[hvpn])
            self._rmap_huge.pop(frame, None)
            self.buddy.free(frame, 9)
            freed += PAGES_PER_HUGE
        # Base teardown, batched: private frames return to the buddy
        # allocator in page-table insertion order, in one ``free_runs`` pass
        # (per-frame equivalent).  A KSM page cuts the pass, because
        # ``cow_registry.unshare`` can free the canonical frame, which must
        # keep its place in the sequence.
        if pt.nbase:
            vpns = pt.base_in_order()
            frames = pt.frame[vpns]
            shared = pt.flags[vpns] & SHARED
            private = shared == 0
            self.rmap_pid[frames[private]] = 0
            lo = 0
            for ksm in np.flatnonzero(shared & SHARED_COW).tolist() + [None]:
                run = frames[lo:ksm][private[lo:ksm]]
                self.buddy.free_runs(run)
                freed += run.shape[0]
                if ksm is not None:
                    self.cow_registry.unshare(int(frames[ksm]))
                    lo = ksm + 1
            self.zero_registry.unshare(pt.shared_zero_count)
        pt.clear()
        self._rmap_procs.pop(proc.pid, None)
        if self.swap is not None:
            self.swap.swapped = {
                (pid, vpn) for pid, vpn in self.swap.swapped if pid != proc.pid
            }
        proc.regions.clear()
        for vma in list(proc.vmas):
            proc.vmas.remove(vma)
        self.policy.on_process_exit(proc)
        if proc in self.processes:
            self.processes.remove(proc)
            self.process_generation += 1
        self.pmu.pop(proc.pid, None)
        run = self._run_by_pid.pop(proc.pid, None)
        if run is not None and not run.finished:
            run.finished = True
            run.finish_time_us = self.now_us
            proc.finished = True
        proc.access_profile = None
        return freed

    def mmap(self, proc: Process, nbytes: int, name: str, kind: VMAKind = VMAKind.ANON) -> VMA:
        """Create an anonymous/file VMA at the next huge-aligned address."""
        npages = pages_of(nbytes)
        cursor = self._va_cursor.get(proc.pid, PAGES_PER_HUGE)
        vma = proc.vmas.add(VMA(cursor, npages, name, kind))
        proc.page_table.generation += 1
        # Leave a guard region so separate VMAs never share a huge region.
        end = cursor + npages
        self._va_cursor[proc.pid] = end + PAGES_PER_HUGE - (end % PAGES_PER_HUGE or PAGES_PER_HUGE) + PAGES_PER_HUGE
        return vma

    def find_vma(self, proc: Process, name: str) -> VMA:
        """Look up a process's VMA by name; raises InvalidAddressError."""
        for vma in proc.vmas:
            if vma.name == name:
                return vma
        raise InvalidAddressError(f"process {proc.name} has no VMA named {name!r}")

    def set_mempolicy(self, proc: Process, policy) -> None:
        """set_mempolicy(2): install a process-wide NUMA placement policy."""
        proc.mempolicy = policy

    def mbind(self, proc: Process, name: str, policy) -> None:
        """mbind(2): install a NUMA placement policy on one named VMA."""
        self.find_vma(proc, name).mempolicy = policy

    # ------------------------------------------------------------------ #
    # faulting and unmapping                                              #
    # ------------------------------------------------------------------ #

    def fault(self, proc: Process, vpn: int) -> float:
        """Touch one virtual page; returns fault latency in µs."""
        return handle_fault(self, proc, vpn)

    def fault_range(
        self,
        proc: Process,
        vpn0: int,
        npages: int,
        budget_us: float = float("inf"),
        content=None,
        vma=None,
        work_us: float = 0.0,
        pace_us: float = 0.0,
        stride: int = 1,
    ) -> tuple[float, int]:
        """Touch ``npages`` virtual pages ``stride`` apart through the bulk path.

        Exactly equivalent to the per-page touch loop
        (:func:`repro.oracle.touch_pages`); see
        :func:`repro.kernel.fault.handle_fault_range`.  Returns
        ``(consumed_us, pages)``.
        """
        return handle_fault_range(
            self, proc, vpn0, npages, budget_us, content, vma, work_us, pace_us, stride
        )

    def madvise_free(self, proc: Process, vpn: int, npages: int) -> float:
        """MADV_DONTNEED/MADV_FREE: release a range back to the kernel.

        Huge mappings overlapping the range are demoted first (the kernel
        "breaks" them, paper §2.1), then pages unmap and frames return to
        the buddy allocator's non-zero free lists.
        """
        pt = proc.page_table
        cost = 0.0
        for hvpn in range(vpn >> 9, (vpn + npages - 1 >> 9) + 1):
            if pt.region_huge(hvpn) and self._range_overlaps_region(vpn, npages, hvpn):
                cost += self.demote_region(proc, hvpn)
        cost += self._unmap_base_batched(proc, vpn, npages)
        self.policy.on_madvise_free(proc, vpn, npages)
        proc.fault_time_epoch_us += cost
        if (tp := self.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.MADVISE_FREE, proc.name, cost,
                    vpn >> 9, f"pages={npages}")
        return cost

    @staticmethod
    def _range_overlaps_region(vpn: int, npages: int, hvpn: int) -> bool:
        lo, hi = hvpn << 9, (hvpn + 1) << 9
        return vpn < hi and vpn + npages > lo

    def _unmap_base_batched(self, proc: Process, vpn: int, npages: int) -> float:
        """Unmap a base-page range, freeing consecutive-frame runs in bulk.

        Scalar-equivalent: frames still return to the buddy allocator in
        ascending-vpn order, and ``free_range`` on an ascending run of
        consecutive frames leaves the free lists (contents *and* dict
        order) exactly as per-frame ``free`` calls would — intermediate
        sub-blocks a scalar sequence inserts are removed again by
        coalescing before anything else touches the lists, and the final
        maximal blocks are appended at the same points.  Shared-zero /
        shared-COW mappings and non-consecutive frames fall back to the
        per-page path.
        """
        pt = proc.page_table
        # Plain lists, not numpy runs: madvise ranges are mostly 1-31
        # pages (bloat-churn), where numpy's per-call cost exceeds a walk.
        frames = pt.frame[vpn : vpn + npages].tolist()
        shared = (pt.flags[vpn : vpn + npages] & SHARED).tolist()
        cost = 0.0
        i = 0
        while i < len(frames):
            frame0 = frames[i]
            page = vpn + i
            if frame0 < 0:
                i += 1
                continue
            if shared[i]:
                self._unmap_base_page(proc, page)
                cost += 0.2
                i += 1
                continue
            # Maximal run of private mappings onto ascending consecutive
            # frames, cut at region ends only for the float order of the
            # cost sum (one add per region piece, as the blessed digests
            # encode): ``free_range`` over a longer run frees the same.
            stop = min(len(frames), (((page >> 9) + 1) << 9) - vpn)
            j = i + 1
            while j < stop and frames[j] == frame0 + j - i and not shared[j]:
                j += 1
            n = j - i
            pt.unmap_base_run_private(page, n)
            self.rmap_pid[frame0 : frame0 + n] = 0
            self.buddy.free_range(frame0, n)
            cost += 0.2 * n
            i = j
        return cost

    def _unmap_base_page(self, proc: Process, vpn: int) -> None:
        frame, flags = proc.page_table.unmap_base(vpn)
        if flags & SHARED_ZERO:
            self.zero_registry.unshare()
        elif flags & SHARED_COW:
            self.cow_registry.unshare(frame)
        else:
            self.rmap_pid[frame] = 0
            self.buddy.free(frame, 0)

    # ------------------------------------------------------------------ #
    # allocation with memory-pressure fallback                            #
    # ------------------------------------------------------------------ #

    def notify_alloc(self, start: int, count: int) -> float:
        """Run the frame-allocation hook; returns extra backing latency."""
        if self.frame_alloc_hook is None:
            return 0.0
        return self.frame_alloc_hook(start, count)

    def alloc_base_frame(
        self, prefer_zero: bool, owner: int,
        node: int | None = None, strict: bool = False,
    ) -> tuple[int, bool]:
        """Allocate one frame; reclaims, swaps and asks the policy under pressure.

        ``node`` requests placement (with distance-ordered fallback unless
        ``strict``); None keeps the single-allocator call shape untouched.
        """
        while True:
            if node is None:
                got = self.buddy.try_alloc(0, prefer_zero, owner)
            else:
                got = self.buddy.try_alloc(0, prefer_zero, owner,
                                           node=node, strict=strict)
            if got is not None:
                return got
            self._relieve_pressure_or_oom()

    def _relieve_pressure_or_oom(self) -> None:
        """Reclaim file cache, ask the policy, then swap; raise OOM if all fail."""
        freed = self.fragmenter.reclaim(PAGES_PER_HUGE)
        self.stats.reclaimed_file_pages += freed
        if freed == 0:
            freed = self.policy.on_memory_pressure(PAGES_PER_HUGE)
        if freed == 0 and self.swap is not None:
            freed = self.swap.swap_out(PAGES_PER_HUGE)
        if freed == 0:
            self.stats.oom_kills += 1
            if (tp := self.trace) is not None and tp.enabled:
                tp.emit(
                    trace.TraceKind.OOM, "kernel",
                    detail=f"allocated={self.buddy.allocated_pages}/{self.buddy.total_pages}",
                )
            raise OutOfMemoryError(
                f"out of memory at t={self.now_us / SEC:.0f}s "
                f"({self.buddy.allocated_pages}/{self.buddy.total_pages} pages allocated)"
            )

    def alloc_huge_block(
        self, prefer_zero: bool, owner: int, compact: bool = True,
        node: int | None = None, strict: bool = False,
    ) -> tuple[int, bool] | None:
        """Allocate an order-9 block, compacting once if necessary."""
        if node is None:
            got = self.buddy.try_alloc(9, prefer_zero, owner)
        else:
            got = self.buddy.try_alloc(9, prefer_zero, owner,
                                       node=node, strict=strict)
        if got is None and compact:
            run = self.compactor.run(self.config.compact_budget_pages)
            self.stats.compaction_pages_moved += run.pages_moved
            if (tp := self.trace) is not None and tp.enabled:
                # Compaction charges no simulated clock; the span is the
                # modelled copy cost of the pages it migrated.
                tp.emit(trace.TraceKind.COMPACT, "direct",
                        run.pages_moved * self.costs.copy_base_us,
                        detail=f"pages_moved={run.pages_moved}")
            if node is None:
                got = self.buddy.try_alloc(9, prefer_zero, owner)
            else:
                got = self.buddy.try_alloc(9, prefer_zero, owner,
                                           node=node, strict=strict)
        if got is not None:
            self.stats.khugepaged_cpu_us += self.notify_alloc(got[0], PAGES_PER_HUGE)
        return got

    # ------------------------------------------------------------------ #
    # reverse mapping and migration                                       #
    # ------------------------------------------------------------------ #

    def rmap_add(self, frame: int, proc: Process, vpn: int) -> None:
        """Record the reverse mapping of a private base frame to (process, vpn)."""
        self._rmap_procs[proc.pid] = proc
        self.rmap_pid[frame] = proc.pid
        self.rmap_vpn[frame] = vpn
        self.rmap_seq[frame] = self._rmap_next
        self._rmap_next += 1

    def rmap_add_huge(self, frame: int, proc: Process, hvpn: int) -> None:
        """Record the reverse mapping of a huge block's head frame."""
        self._rmap_huge[frame] = (proc, hvpn)

    def rmap_add_range(self, proc: Process, vpn0: int, frames: np.ndarray,
                       step: int = 1) -> None:
        """Batched :meth:`rmap_add`: ``frames`` (an index array, in mapping
        order) map the vpns ``step`` apart from ``vpn0``."""
        n = frames.shape[0]
        self._rmap_procs[proc.pid] = proc
        self.rmap_pid[frames] = proc.pid
        self.rmap_vpn[frames] = np.arange(vpn0, vpn0 + n * step, step, dtype=np.int64)
        self.rmap_seq[frames] = np.arange(self._rmap_next, self._rmap_next + n, dtype=np.int64)
        self._rmap_next += n

    def rmap_remove(self, frame: int) -> None:
        """Forget a base frame's reverse mapping (it stops being private)."""
        self.rmap_pid[frame] = 0

    def rmap_remove_huge(self, frame: int) -> None:
        """Forget a huge block's reverse mapping."""
        self._rmap_huge.pop(frame, None)

    def rmap_owner(self, frame: int) -> tuple[Process, int] | None:
        """``(process, vpn)`` privately mapping a base frame, or None."""
        pid = int(self.rmap_pid[frame])
        if not pid:
            return None
        return self._rmap_procs[pid], int(self.rmap_vpn[frame])

    def oldest_huge_mapping(self) -> tuple[Process, int] | None:
        """``(process, hvpn)`` of the longest-standing huge mapping, or None."""
        return next(iter(self._rmap_huge.values()), None)

    def rmap_by_age(self) -> np.ndarray:
        """Frames with a base reverse mapping, oldest insertion first."""
        live = np.flatnonzero(self.rmap_pid)
        return live[np.argsort(self.rmap_seq[live], kind="stable")]

    def _migrate_frame(self, old: int, new: int) -> bool:
        """Compaction callback: rebind one base mapping old -> new."""
        owner = self.rmap_owner(old)
        if owner is None:
            # Not process-mapped: clean page-cache pages are movable too.
            return self.fragmenter.migrate_page(old, new)
        proc, vpn = owner
        proc.page_table.remap(vpn, new)
        self.rmap_pid[old] = 0
        self.rmap_add(new, proc, vpn)
        return True

    def share_zero_page(self, proc: Process, vpn: int, frame: int) -> None:
        """Remap private base page ``vpn`` (on zero-filled ``frame``) onto
        the canonical zero frame, copy-on-write, and free ``frame``."""
        zero_frame = self.zero_registry.zero_frame
        if (al := self.audit) is not None and al.enabled:
            al.ledger.record(frame, 1, audit_mod.EV_KSM_MERGED, zero_frame)
        self.rmap_pid[frame] = 0
        self.buddy.free(frame, 0)
        proc.page_table.remap(vpn, zero_frame, set_bits=SHARED_ZERO)
        self.zero_registry.share()

    def check_rmap(self) -> None:
        """Raise :class:`InvalidAddressError` unless the rmap inverts the page tables.

        Every private base mapping's frame has a reverse mapping naming
        its process and vpn and nothing else has one (the two are inverse
        maps); reverse-mapping ``seq`` values are unique; and every huge
        mapping's head frame, and nothing else, is in the huge rmap.
        """
        def fail(msg: str) -> None:
            raise InvalidAddressError(f"rmap: {msg}")

        expect_pid = np.zeros_like(self.rmap_pid)
        expect_vpn = np.zeros_like(self.rmap_vpn)
        huge: dict[int, tuple[int, int]] = {}
        for proc in self.processes:
            pt = proc.page_table
            vpns = pt.mapped_vpns()
            vpns = vpns[(pt.flags[vpns] & SHARED) == 0]
            frames = pt.frame[vpns]
            if expect_pid[frames].any() or np.unique(frames).shape[0] != frames.shape[0]:
                fail(f"pid {proc.pid}: a frame is privately mapped twice")
            expect_pid[frames] = proc.pid
            expect_vpn[frames] = vpns
            for hvpn in np.flatnonzero(pt.hframe >= 0).tolist():
                huge[int(pt.hframe[hvpn])] = (proc.pid, hvpn)
        live = self.rmap_pid != 0
        if not np.array_equal(self.rmap_pid, expect_pid):
            frame = int(np.argmax(self.rmap_pid != expect_pid))
            fail(f"frame {frame}: rmap pid {int(self.rmap_pid[frame])}, "
                 f"page tables {int(expect_pid[frame])}")
        if not np.array_equal(self.rmap_vpn[live], expect_vpn[live]):
            fail("a reverse mapping names the wrong vpn")
        seq = self.rmap_seq[live]
        if np.unique(seq).shape[0] != seq.shape[0]:
            fail("duplicate seq")
        got = {frame: (proc.pid, hvpn) for frame, (proc, hvpn) in self._rmap_huge.items()}
        if got != huge:
            fail(f"huge rmap {sorted(got)} against huge mappings {sorted(huge)}")

    # ------------------------------------------------------------------ #
    # promotion / demotion / deduplication                                #
    # ------------------------------------------------------------------ #

    def madvise_hugepage(self, proc: Process, name: str, hint) -> None:
        """madvise(MADV_HUGEPAGE / MADV_NOHUGEPAGE) on a named VMA."""
        self.find_vma(proc, name).hint = hint
        proc.page_table.generation += 1

    def can_promote(self, proc: Process, hvpn: int) -> bool:
        """Whether a region is currently eligible for huge promotion."""
        pt = proc.page_table
        if (hvpn not in proc.regions or pt.region_huge(hvpn)
                or not pt.region_resident(hvpn)):
            return False
        vma = proc.vmas.try_find(hvpn << 9)
        if vma is None or vma.hint is HugePageHint.NEVER:
            return False
        return vma.covers(hvpn << 9, PAGES_PER_HUGE)

    def promote_region(self, proc: Process, hvpn: int) -> float | None:
        """Promote one region to a huge mapping.

        Returns the kernel CPU time spent, or None when promotion was not
        possible (no contiguity even after compaction, or not promotable).
        A small stall is charged to the process (TLB shootdown, mmap_sem).
        """
        if not self.can_promote(proc, hvpn):
            return None
        pt = proc.page_table
        vpn0 = hvpn << 9
        in_place = pt.contiguous_private_block(vpn0)

        if in_place is not None:
            pt.unmap_base_run_private(vpn0, PAGES_PER_HUGE)
            self.rmap_pid[in_place : in_place + PAGES_PER_HUGE] = 0
            block = in_place
            cost = self.costs.remap_us
            collapsed = False
        else:
            # NUMA-aware collapse: allocate the destination block on the
            # node already holding most of the region's pages, so a
            # promotion never turns local accesses into remote ones.
            target = (self.numa.majority_node(proc, hvpn)
                      if self.numa is not None else None)
            got = self.alloc_huge_block(prefer_zero=False, owner=proc.pid,
                                        node=target)
            if got is None:
                if (al := self.audit) is not None and al.enabled:
                    al.decide(
                        "collapse_node", proc.name, proc.pid, hvpn,
                        "reject", "alloc_failed", stage=3,
                        inputs={"target_node": -1 if target is None else target,
                                "fmfi": self.fmfi()})
                return None
            block = got[0]
            self.frames.zero_fill(block, PAGES_PER_HUGE)
            offs, frames, flags = pt.unmap_base_region(hvpn)
            fnz, tags = self.frames.first_nonzero, self.frames.content_tag
            for off, frame, fl in zip(offs.tolist(), frames.tolist(), flags.tolist()):
                if fl & SHARED_ZERO:
                    self.zero_registry.unshare()
                    continue  # destination already zero
                fnz[block + off] = fnz[frame]
                tags[block + off] = tags[frame]
                if fl & SHARED_COW:
                    # copy out of the ksm-shared canonical frame
                    self.cow_registry.unshare(frame)
                else:
                    self.rmap_pid[frame] = 0
                    self.buddy.free(frame, 0)
            cost = self.costs.promotion_collapse_us(offs.shape[0])
            collapsed = True

        pt.map_huge(hvpn, block, accessed=True)
        self.rmap_add_huge(block, proc, hvpn)
        table = proc.regions
        table.promotions[table.slot(hvpn)] += 1
        proc.stats.promotions += 1
        proc.fault_time_epoch_us += self.costs.promotion_stall_us
        self.stats.count_promotion(proc.name, collapsed)
        self.stats.khugepaged_cpu_us += cost
        if (al := self.audit) is not None and al.enabled:
            led = al.ledger
            if collapsed:
                led.set_site(block, PAGES_PER_HUGE, audit_mod.SITE_PROMOTE)
                al.decide(
                    "collapse_node", proc.name, proc.pid, hvpn,
                    "accept", "collapsed", stage=4,
                    inputs={"target_node": (-1 if self.numa is None
                                            else self.numa.node_of(block)),
                            "resident": offs.shape[0]})
            led.record(block, PAGES_PER_HUGE, audit_mod.EV_PROMOTED)
        if (tp := self.trace) is not None and tp.enabled:
            kind = (trace.TraceKind.PROMOTE_COLLAPSE if collapsed
                    else trace.TraceKind.PROMOTE_INPLACE)
            tp.emit(kind, proc.name, cost, hvpn)
        return cost

    def demote_region(self, proc: Process, hvpn: int) -> float:
        """Break a huge mapping into base mappings over the same frames."""
        pt = proc.page_table
        block = int(pt.hframe[hvpn])
        self._rmap_huge.pop(block, None)
        pt.demote_huge(hvpn)
        self.rmap_add_range(proc, hvpn << 9, np.arange(block, block + PAGES_PER_HUGE))
        proc.stats.demotions += 1
        self.stats.demotions += 1
        if (al := self.audit) is not None and al.enabled:
            al.ledger.record(block, PAGES_PER_HUGE, audit_mod.EV_DEMOTED)
        if (tp := self.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.DEMOTE, proc.name, self.costs.remap_us, hvpn)
        return self.costs.remap_us

    def dedup_zero_pages(self, proc: Process, hvpn: int) -> tuple[int, int]:
        """De-duplicate zero-filled base pages of a (demoted) region.

        Returns ``(pages_recovered, bytes_scanned)``.  The scan stops at
        the first non-zero byte of each in-use page (§3.2), so its cost is
        proportional to the number of *bloat* pages, not to the region
        size.
        """
        vpn0 = hvpn << 9
        mframes, mpriv = proc.page_table.region_mirror(hvpn)
        priv_off = np.nonzero(mpriv)[0]
        pframes = mframes[priv_off]
        fnz = self.frames.first_nonzero[pframes]
        # Scan cost per private page: first_nonzero + 1 bytes, or the
        # full page when it is genuinely zero (same ints as the scalar
        # per-page ``scan_cost_bytes`` sum).
        scanned = int(np.where(fnz < 0, BASE_PAGE_SIZE, fnz + 1).sum())
        is_zero = fnz < 0
        recovered = 0
        for off, frame in zip(priv_off[is_zero].tolist(), pframes[is_zero].tolist()):
            self.share_zero_page(proc, vpn0 + off, frame)
            recovered += 1
        self.stats.bloat_pages_recovered += recovered
        self.stats.bloat_scan_bytes += scanned
        return recovered, scanned

    def count_zero_pages(self, proc: Process, hvpn: int) -> tuple[int, int]:
        """Count zero-filled base pages under a *huge* mapping (with scan cost)."""
        block = int(proc.page_table.hframe[hvpn])
        zeros = int(self.frames.zero_mask(block, PAGES_PER_HUGE).sum())
        fnz = self.frames.first_nonzero[block:block + PAGES_PER_HUGE]
        scanned = int((fnz[fnz >= 0] + 1).sum()) + zeros * BASE_PAGE_SIZE
        return zeros, scanned

    # ------------------------------------------------------------------ #
    # epoch loop                                                          #
    # ------------------------------------------------------------------ #

    def allocated_fraction(self) -> float:
        """Fraction of physical memory currently allocated (0..1)."""
        return self.buddy.allocated_pages / self.buddy.total_pages

    def fmfi(self, order: int = 9) -> float:
        """Free Memory Fragmentation Index for the given order (default 9)."""
        return fmfi(self.buddy, order)

    def active_runs(self) -> list["WorkloadRun"]:
        """Workload runs that have not finished yet, in spawn order.

        Walks only runs whose process has not exited (``exit_process``
        drops the run from ``_run_by_pid`` after marking it finished), so
        the cost follows live tenants, not every run ever spawned.
        """
        return [run for run in self._run_by_pid.values() if not run.finished]

    def run_epoch(self) -> None:
        """Advance the machine by one epoch."""
        for run in self.active_runs():
            run.step(self.config.epoch_us)
        self.policy.on_epoch()
        self._run_kcompactd()
        if self.numa is not None:
            self.numa.on_epoch()
        self.stats.epochs += 1
        self.now_us += self.config.epoch_us
        if self.stats.epochs % self.config.sample_period == 0:
            self._sample_access_bits()
            if (hm := self.heat) is not None and hm.enabled:
                hm.on_sample(self)
        if (ts := self.telemetry) is not None and ts.enabled:
            ts.on_epoch(self)
        if (fl := self.fleet) is not None:
            fl.on_epoch(self)
        for hook in self.epoch_hooks:
            hook(self)

    def run(self, max_epochs: int = 100_000) -> int:
        """Run until every workload finishes; returns epochs executed."""
        start = self.stats.epochs
        while self.active_runs() and self.stats.epochs - start < max_epochs:
            self.run_epoch()
        return self.stats.epochs - start

    def run_epochs(self, count: int) -> None:
        """Run exactly ``count`` epochs regardless of workload state."""
        for _ in range(count):
            self.run_epoch()

    #: proactive-compaction target: kcompactd works, rate-limited, until
    #: this fraction of free memory sits in huge-allocatable blocks again
    #: (models Linux's compaction_proactiveness).  Ingens's adaptive
    #: threshold re-enters its aggressive phase once FMFI drops below 0.5,
    #: so the target must sit below that.
    KCOMPACTD_TARGET_FMFI = 0.4

    def _run_kcompactd(self) -> None:
        """Proactive background compaction while fragmentation is high."""
        rate = self.config.kcompactd_pages_per_sec
        if rate <= 0 or self.fmfi() <= self.KCOMPACTD_TARGET_FMFI:
            return
        budget = int(rate * self.config.epoch_us / SEC)
        if budget > 0:
            run = self.compactor.run(budget)
            self.stats.compaction_pages_moved += run.pages_moved
            if (tp := self.trace) is not None and tp.enabled:
                tp.emit(trace.TraceKind.COMPACT, "kcompactd",
                        run.pages_moved * self.costs.copy_base_us,
                        detail=f"pages_moved={run.pages_moved}")

    def _sample_access_bits(self) -> None:
        """Paper §3.3: clear access bits, wait one second, read them back.

        Ground-truth coverage comes from the workload's access profile —
        the simulator's stand-in for reading hardware-set PTE bits — but
        the scan *cost* is still charged per region.  One vectorized pass
        over each process's region table, bit-identical to the per-region
        reference loop in :mod:`repro.oracle`."""
        alpha = self.config.ema_alpha
        for proc in self.processes:
            table = proc.regions
            n = len(table)
            scanned = 0
            if n:
                active = table.resident_arr() > 0
                scanned = int(active.sum())
            if scanned:
                profile = proc.access_profile
                hvpns = table.hvpn[:n]
                if profile is None:
                    samples = np.zeros(n, dtype=np.int64)
                else:
                    cov_arr = getattr(profile, "coverage_array", None)
                    if cov_arr is not None:
                        samples = cov_arr(self, proc, hvpns)
                    else:
                        # Duck-typed profiles (virt host mirrors) only
                        # provide the dict form.
                        coverage = profile.region_coverage(self, proc)
                        samples = np.fromiter(
                            (coverage.get(int(h), 0) for h in hvpns),
                            dtype=np.int64, count=n,
                        )
                np.minimum(samples, PAGES_PER_HUGE, out=samples)
                # Same float expression as the scalar loop, elementwise in
                # float64: alpha * sample + (1 - alpha) * ema.
                ema = table.coverage_ema[:n]
                table.last_coverage[:n][active] = samples[active]
                table.idle[:n][active] = samples[active] == 0
                ema[active] = alpha * samples[active] + (1.0 - alpha) * ema[active]
            self.stats.sampler_cpu_us += scanned * self.costs.sample_region_us
            if (tp := self.trace) is not None and tp.enabled:
                tp.emit(trace.TraceKind.KTHREAD_EPOCH, "ksampled",
                        scanned * self.costs.sample_region_us,
                        detail=f"proc={proc.name} regions={scanned}")
            self.policy.on_sample(proc)
            if self.numa is not None:
                self.numa.on_sample(proc)
