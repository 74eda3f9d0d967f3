"""NUMA runtime state: hint faults, knumad balancing, replicated PTs.

:class:`NumaState` is attached to a kernel as ``kernel.numa`` when the
topology has more than one node; single-node kernels keep the slot
``None`` and never execute any of this.  It owns three mechanisms:

**Hint faults** — AutoNUMA's signal.  The access-bit sampler already
tells us which regions a process touched in the last period; when
balancing is on, every *remote* sampled region charges the process one
minor fault per covered page (the cost of Linux unmapping and re-faulting
pages to learn their accessing node) and becomes a migration candidate.

**knumad** — the balancing kthread.  Each epoch it migrates the hottest
misplaced regions toward the owner's home node under a page-rate budget,
reusing the kernel's ``_migrate_frame`` rebinding path.  Whole huge
regions move via a single order-9 allocation on the target node; when the
target has no contiguous block free, the region is *demoted and migrated
page-wise* (split migration), trading the huge mapping for locality —
the promotion engine can rebuild it locally later.  Candidate order is
(hotness desc, pid, hvpn): fully deterministic, no rng.

**Replicated page tables** — Mitosis mode.  Every node keeps a full
replica of each process's page table, so page walks always hit local
memory: the remote-walk multiplier disappears from the MMU model, paid
for with ``(nodes - 1) x pt_pages`` of extra kernel memory, which is
reported (``numastat``, the ``numa`` experiment) rather than carved out
of the zones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import audit, trace
from repro.kernel.kthread import RateLimiter
from repro.numa.allocator import NodeAllocator
from repro.units import CYCLES_PER_USEC, PAGES_PER_HUGE
from repro.vm.page_table import SHARED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry
    from repro.vm.process import Process
    from repro.vm.vma import VMA


class NumaState:
    """Per-kernel NUMA machinery (only built for multi-node topologies)."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.topology = kernel.config.topology
        allocator = kernel.buddy
        assert isinstance(allocator, NodeAllocator)
        self.allocator: NodeAllocator = allocator
        self.nodes = allocator.nodes
        self.replicated_pt = kernel.config.replicated_page_tables
        rate = kernel.config.knumad_pages_per_sec
        self.balancing = rate > 0
        self.knumad = RateLimiter(rate, kernel.config.epoch_us)
        #: migration candidates keyed (pid, hvpn) -> coverage EMA at the
        #: last sample; rebuilt per process on every sample pass.
        self._candidates: dict[tuple[int, int], float] = {}
        #: remote page-walk cycles charged this epoch / since boot.
        self.remote_walk_cycles_epoch = 0.0
        self.remote_walk_cycles_total = 0.0
        #: cached remote-penalty rows (same values topology.remote_penalty
        #: recomputes from the SLIT matrix on every call).
        matrix = self.topology.distance_matrix()
        self._penalty = [
            [matrix[src][dst] / matrix[src][src] for dst in range(self.nodes)]
            for src in range(self.nodes)
        ]

    # ------------------------------------------------------------------ #
    # placement                                                          #
    # ------------------------------------------------------------------ #

    def node_of(self, frame: int) -> int:
        """The node owning a physical frame."""
        return self.allocator.node_of(frame)

    def resolve_policy(self, proc: "Process", vma: Optional["VMA"]):
        """The effective mempolicy: VMA override, else process, else None."""
        if vma is not None and vma.mempolicy is not None:
            return vma.mempolicy
        return proc.mempolicy

    def fault_node(self, proc: "Process", vma: Optional["VMA"],
                   hvpn: int) -> tuple[int, bool]:
        """``(node, strict)`` placement for a fault in huge region ``hvpn``."""
        policy = self.resolve_policy(proc, vma)
        if policy is None:
            return proc.home_node, False
        return policy.target_node(proc.home_node, hvpn, self.nodes), policy.strict

    def region_node(self, proc: "Process", hvpn: int) -> int | None:
        """The node backing a region (first mapped page's node).

        Regions are populated by node-uniform extents and migrated
        wholesale, so the first mapped page is representative; exact
        per-node counts are available via :meth:`region_node_counts`.
        """
        pt = proc.page_table
        if pt.region_huge(hvpn):
            return self.node_of(int(pt.hframe[hvpn]))
        mframes, mpriv = pt.region_mirror(hvpn)
        priv = np.nonzero(mpriv)[0]
        if priv.size == 0:
            return None
        return self.node_of(int(mframes[priv[0]]))

    def region_nodes_arr(self, proc: "Process", hvpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`region_node`: backing node per hvpn (-1 = none).

        Huge regions resolve through the hvpn->frame column in one gather;
        base regions take a fast path through column 0 (the region's first
        page, private in the common dense layout) and fall back to a
        per-region first-private scan only where that page is shared or
        unmapped.
        """
        pt = proc.page_table
        n = hvpns.shape[0]
        out = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return out
        mhuge = pt.hframe
        hcap = mhuge.shape[0]
        in_cap = hvpns < hcap
        hframes = np.where(in_cap, mhuge[np.minimum(hvpns, hcap - 1)], -1)
        is_huge = hframes >= 0
        if is_huge.any():
            out[is_huge] = self.allocator.node_of_arr(hframes[is_huge])
        rest = np.nonzero(~is_huge)[0]
        if rest.size == 0:
            return out
        vpn0s = hvpns[rest] << 9
        mframe = pt.frame
        bcap = mframe.shape[0]
        ok = vpn0s < bcap
        safe = np.minimum(vpn0s, bcap - 1)
        frame0 = np.where(ok, mframe[safe], -1)
        priv0 = ok & (frame0 >= 0) & (pt.flags[safe] & SHARED == 0)
        easy = rest[priv0]
        if easy.size:
            out[easy] = self.allocator.node_of_arr(frame0[priv0])
        for i in rest[~priv0].tolist():
            mframes, mp = pt.region_mirror(int(hvpns[i]))
            priv = np.nonzero(mp)[0]
            if priv.size:
                out[i] = self.node_of(int(mframes[priv[0]]))
        return out

    def region_node_counts(self, proc: "Process", hvpn: int) -> list[int]:
        """Resident pages of a region per node (exact, one bincount)."""
        counts = [0] * self.nodes
        pt = proc.page_table
        if pt.region_huge(hvpn):
            counts[self.node_of(int(pt.hframe[hvpn]))] = PAGES_PER_HUGE
            return counts
        mframes, mpriv = pt.region_mirror(hvpn)
        frames = mframes[mpriv]
        if frames.size == 0:
            return counts
        nodes = self.allocator.node_of_arr(frames)
        return np.bincount(nodes, minlength=self.nodes).tolist()

    def majority_node(self, proc: "Process", hvpn: int) -> int:
        """The node holding most of a region's pages (promotion target)."""
        counts = self.region_node_counts(proc, hvpn)
        best = max(counts)
        return counts.index(best) if best > 0 else proc.home_node

    # ------------------------------------------------------------------ #
    # remote-walk accounting (fed by WorkloadRun cycle charging)         #
    # ------------------------------------------------------------------ #

    def charge_remote_walk(self, proc: "Process", cycles: float) -> None:
        """Record page-walk cycles that hit remote memory this epoch."""
        proc.stats.remote_walk_cycles += cycles
        self.remote_walk_cycles_epoch += cycles

    def remote_walk_share(self) -> float:
        """Remote fraction of all walk cycles charged since boot."""
        total = sum(run.proc.stats.walk_cycles for run in self.kernel.runs)
        pending = self.remote_walk_cycles_total + self.remote_walk_cycles_epoch
        return pending / total if total > 0 else 0.0

    def load_remoteness(self, proc: "Process", hvpns) -> tuple[float, float]:
        """``(remote_fraction, penalty)`` of an access-spec's hot regions.

        The fraction is the share of touched regions resident off the
        process's home node; the penalty is the mean SLIT distance ratio
        over those remote regions.  Replicated page tables zero the
        *walk* penalty (walks hit the local replica), which is what this
        feeds, so that mode reports (0, 1).
        """
        if self.replicated_pt:
            return 0.0, 1.0
        home = proc.home_node
        nodes = self.region_nodes_arr(
            proc, np.fromiter(hvpns, dtype=np.int64))
        mask = (nodes >= 0) & (nodes != home)
        remote = int(mask.sum())
        if remote == 0:
            return 0.0, 1.0
        # Sequential adds (not np.sum) keep the float result bit-identical
        # to the scalar accumulation for custom SLIT matrices.
        penalty = 0.0
        row = self._penalty[home]
        for node in nodes[mask].tolist():
            penalty += row[node]
        return remote / len(hvpns), penalty / remote

    # ------------------------------------------------------------------ #
    # replicated page tables (Mitosis mode)                              #
    # ------------------------------------------------------------------ #

    @staticmethod
    def pt_pages(proc: "Process") -> int:
        """4 KiB pages in one copy of the process's page table.

        x86-64 radix shape: one PTE page per huge region mapped at base
        granularity, one PMD page per GiB touched, one PUD page per
        512 GiB, one PGD.
        """
        pt = proc.page_table
        pte_tables = set((pt.mapped_vpns() >> 9).tolist())
        pmd_tables = {h >> 9 for h in pte_tables} | set(
            (np.flatnonzero(pt.hframe >= 0) >> 9).tolist())
        pud_tables = {h >> 9 for h in pmd_tables}
        return len(pte_tables) + len(pmd_tables) + len(pud_tables) + 1

    def replica_pt_pages_per_node(self) -> int:
        """Page-table pages each node holds in replicated-PT mode."""
        if not self.replicated_pt:
            return 0
        return sum(self.pt_pages(proc) for proc in self.kernel.processes)

    def replica_overhead_pages(self) -> int:
        """Extra memory replication costs beyond a single page table."""
        return (self.nodes - 1) * self.replica_pt_pages_per_node()

    # ------------------------------------------------------------------ #
    # sampling: hint faults + candidate harvest                          #
    # ------------------------------------------------------------------ #

    def on_sample(self, proc: "Process") -> None:
        """Piggy-back on the access-bit sample: install NUMA hint faults.

        Runs right after the kernel refreshed ``last_coverage`` for every
        region.  Remote regions that were accessed charge hint faults and
        become migration candidates ranked by coverage EMA.
        """
        if not self.balancing:
            return
        kernel = self.kernel
        pid = proc.pid
        self._candidates = {
            key: ema for key, ema in self._candidates.items() if key[0] != pid
        }
        hints = self._harvest(proc)
        if hints:
            cost = hints * kernel.costs.numa_hint_fault_us
            kernel.stats.numa_hint_faults += hints
            proc.fault_time_epoch_us += cost
            if (tp := kernel.trace) is not None and tp.enabled:
                tp.emit(trace.TraceKind.NUMA_HINT, proc.name, cost,
                        detail=f"faults={hints}")

    def _harvest(self, proc: "Process") -> int:
        """Candidate harvest: mask prefilter + bulk node gather.

        Equivalent to the per-region reference in :mod:`repro.oracle` —
        the active/remote masks and the ascending-hvpn walk reproduce the
        same candidate set, the same EMA values, and the same hint count;
        only the strict-policy check (a VMA-tree probe) stays per-region,
        and only for regions that survived the masks.
        """
        pid = proc.pid
        table = proc.regions
        n = len(table)
        if not n:
            return 0
        hvpns = table.hvpn[:n]
        mask = (table.resident_arr() > 0) & (table.last_coverage[:n] > 0)
        if not mask.any():
            return 0
        sel = hvpns[mask]
        order = np.argsort(sel, kind="stable")
        sel = sel[order]
        emas = table.coverage_ema[:n][mask][order]
        lasts = table.last_coverage[:n][mask][order]
        nodes = self.region_nodes_arr(proc, sel)
        remote = (nodes >= 0) & (nodes != proc.home_node)
        hints = 0
        for hvpn, last, ema in zip(sel[remote].tolist(),
                                   lasts[remote].tolist(),
                                   emas[remote].tolist()):
            policy = self.resolve_policy(
                proc, proc.vmas.try_find(hvpn << 9))
            if policy is not None and policy.strict:
                continue  # bound memory must not be balanced away
            hints += last
            self._candidates[(pid, hvpn)] = ema
        return hints

    # ------------------------------------------------------------------ #
    # the epoch tick: remote-walk emission + knumad migration            #
    # ------------------------------------------------------------------ #

    def on_epoch(self) -> None:
        """Per-epoch NUMA work: account remote walks, run knumad."""
        kernel = self.kernel
        if self.remote_walk_cycles_epoch > 0.0:
            span_us = self.remote_walk_cycles_epoch / CYCLES_PER_USEC
            self.remote_walk_cycles_total += self.remote_walk_cycles_epoch
            self.remote_walk_cycles_epoch = 0.0
            if (tp := kernel.trace) is not None and tp.enabled:
                tp.emit(trace.TraceKind.NUMA_REMOTE_WALK, "mmu", span_us)
        if self.balancing:
            self._run_knumad()

    def _run_knumad(self) -> None:
        """Migrate the hottest misplaced regions within the page budget."""
        self.knumad.refill()
        if not self._candidates:
            return
        kernel = self.kernel
        by_pid = {proc.pid: proc for proc in kernel.processes}
        moved_pages = 0
        moved_regions = 0
        cost = 0.0
        out_of_budget = False
        ordered = sorted(self._candidates.items(),
                         key=lambda item: (-item[1], item[0]))
        for (pid, hvpn), _ema in ordered:
            proc = by_pid.get(pid)
            if proc is None:
                self._candidates.pop((pid, hvpn), None)
                continue
            pages, region_cost, exhausted = self._migrate_region(proc, hvpn)
            moved_pages += pages
            cost += region_cost
            if pages or not exhausted:
                # fully handled (moved, or no longer misplaced)
                self._candidates.pop((pid, hvpn), None)
                if pages:
                    moved_regions += 1
            if exhausted:
                out_of_budget = True
                break
        if cost:
            kernel.stats.knumad_cpu_us += cost
        if moved_pages and (tp := kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.KTHREAD_EPOCH, "knumad", cost,
                    detail=f"regions={moved_regions} pages={moved_pages}"
                           f"{' budget' if out_of_budget else ''}")

    def _decide(self, proc: "Process", hvpn: int, outcome: str, reason: str,
                stage: int, inputs: dict | None = None) -> None:
        """Record one knumad migration-candidacy decision when audited."""
        if (al := self.kernel.audit) is not None and al.enabled:
            al.decide("knumad", proc.name, proc.pid, hvpn, outcome, reason,
                      stage=stage, inputs=inputs)

    def _migrate_region(self, proc: "Process", hvpn: int) -> tuple[int, float, bool]:
        """Move one region toward the owner's home node.

        Returns ``(pages_moved, cpu_us, budget_exhausted)``.
        """
        kernel = self.kernel
        target = proc.home_node
        pt = proc.page_table
        if not pt.region_resident(hvpn):
            self._decide(proc, hvpn, "reject", "region_gone", stage=1,
                         inputs={"target_node": target})
            return 0, 0.0, False
        cost = 0.0
        if pt.region_huge(hvpn):
            if self.node_of(int(pt.hframe[hvpn])) == target:
                self._decide(proc, hvpn, "reject", "already_local", stage=1,
                             inputs={"target_node": target})
                return 0, 0.0, False
            if not self.knumad.take(PAGES_PER_HUGE):
                self._decide(proc, hvpn, "reject", "budget_exhausted",
                             stage=2,
                             inputs={"budget_left": self.knumad.available,
                                     "need": PAGES_PER_HUGE})
                return 0, cost, True
            moved, huge_cost = self._migrate_huge(proc, hvpn, target)
            if moved:
                return PAGES_PER_HUGE, huge_cost, False
            if self.allocator.zone(target).free_pages < PAGES_PER_HUGE:
                # The target node cannot host the region even page-wise;
                # splitting would sacrifice the huge mapping for nothing.
                self._decide(
                    proc, hvpn, "reject", "no_target_memory", stage=3,
                    inputs={"target_node": target,
                            "free_pages":
                                self.allocator.zone(target).free_pages})
                return 0, cost, False
            # No contiguous block on the target: split, then migrate
            # the base pages below (demote-on-split-migration).
            cost += kernel.demote_region(proc, hvpn)
            kernel.stats.numa_split_migrations += 1
        return self._migrate_base_pages(proc, hvpn, target, cost)

    def _migrate_huge(self, proc: "Process", hvpn: int,
                      target: int) -> tuple[bool, float]:
        """Whole-region migration via one order-9 allocation on ``target``."""
        kernel = self.kernel
        frames = kernel.frames
        pt = proc.page_table
        old = int(pt.hframe[hvpn])
        got = self.allocator.try_alloc(
            9, prefer_zero=False, owner=proc.pid, node=target, strict=True)
        if got is None:
            return False, 0.0
        new = got[0]
        frames.first_nonzero[new:new + PAGES_PER_HUGE] = \
            frames.first_nonzero[old:old + PAGES_PER_HUGE]
        frames.content_tag[new:new + PAGES_PER_HUGE] = \
            frames.content_tag[old:old + PAGES_PER_HUGE]
        if (al := kernel.audit) is not None and al.enabled:
            led = al.ledger
            led.copy_provenance(old, new, PAGES_PER_HUGE)
            led.record(new, PAGES_PER_HUGE, audit.EV_MIGRATED, target)
            led.set_site(new, PAGES_PER_HUGE, audit.SITE_NUMA)
        pt.hframe[hvpn] = new
        kernel.rmap_remove_huge(old)
        kernel.rmap_add_huge(new, proc, hvpn)
        kernel.buddy.free(old, 9)
        cost = (PAGES_PER_HUGE * kernel.costs.numa_migrate_page_us
                + kernel.costs.remap_us)
        kernel.stats.numa_pages_migrated += PAGES_PER_HUGE
        kernel.stats.numa_huge_migrated += 1
        self._emit_migrate(proc, hvpn, PAGES_PER_HUGE, target, cost, "huge")
        return True, cost

    def _migrate_base_pages(self, proc: "Process", hvpn: int, target: int,
                            cost: float) -> tuple[int, float, bool]:
        """Page-wise migration of a base-mapped region toward ``target``."""
        kernel = self.kernel
        frames = kernel.frames
        moved = 0
        # Bulk discovery off the columns: only pages resident on the wrong
        # node enter the migration loop (migrating one page never changes
        # another page's frame or privacy, so the snapshot stays valid).
        mframes, mpriv = proc.page_table.region_mirror(hvpn)
        offs = np.nonzero(mpriv)[0]
        olds = mframes[offs]
        wrong = self.allocator.node_of_arr(olds) != target
        if not wrong.any():
            self._decide(proc, hvpn, "reject", "already_local", stage=1,
                         inputs={"target_node": target})
            return moved, cost, False
        for old in olds[wrong].tolist():
            if not self.knumad.take(1):
                self._decide(proc, hvpn, "reject", "budget_exhausted",
                             stage=2,
                             inputs={"budget_left": self.knumad.available,
                                     "moved": moved})
                return moved, cost, True
            got = self.allocator.try_alloc(
                0, prefer_zero=False, owner=proc.pid, node=target, strict=True)
            if got is None:
                # Target node is out of memory; leave the page remote.
                self._decide(proc, hvpn, "reject", "no_target_memory",
                             stage=3,
                             inputs={"target_node": target, "moved": moved})
                return moved, cost, False
            new = got[0]
            kernel._migrate_frame(old, new)
            frames.first_nonzero[new] = frames.first_nonzero[old]
            frames.content_tag[new] = frames.content_tag[old]
            if (al := kernel.audit) is not None and al.enabled:
                led = al.ledger
                led.copy_provenance(old, new)
                led.record(new, 1, audit.EV_MIGRATED, target)
                led.set_site(new, 1, audit.SITE_NUMA)
            kernel.buddy.free(old, 0)
            moved += 1
        if moved:
            cost += moved * kernel.costs.numa_migrate_page_us
            kernel.stats.numa_pages_migrated += moved
            self._emit_migrate(proc, hvpn, moved, target, cost, "base")
        return moved, cost, False

    def _emit_migrate(self, proc: "Process", hvpn: int, pages: int,
                      target: int, cost: float, how: str) -> None:
        kernel = self.kernel
        self._decide(proc, hvpn, "accept", f"migrated_{how}", stage=4,
                     inputs={"target_node": target, "pages": pages})
        if (tp := kernel.trace) is not None and tp.enabled:
            tp.emit(trace.TraceKind.NUMA_MIGRATE, proc.name, cost, hvpn,
                    detail=f"{how} pages={pages} -> node{target}")


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish numastat; single-node kernels declare no NUMA family."""
    if (numa := kernel.numa) is None:
        return
    from repro.kernel import procfs

    gauges = registry.gauge(
        "numastat_pages", "per-node page gauges (numastat analogue)",
        labelnames=("name",))
    counters = registry.counter(
        "numastat", "cumulative NUMA placement/migration counters",
        labelnames=("name",))
    for name, value in procfs.numastat(kernel).items():
        if name.endswith("_pages") or name == "numa_nodes":
            gauges.labels(name=name).set(value)
        else:
            counters.labels(name=name).sync(value)
    registry.gauge(
        "numa_remote_walk_share",
        "share of all page-walk cycles hitting remote-node memory",
    ).child().set(numa.remote_walk_share())
