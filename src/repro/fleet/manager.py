"""The fleet manager: arrivals in, QoS out.

A :class:`FleetManager` attaches to a kernel by filling the
``kernel.fleet`` slot; ``Kernel.run_epoch`` calls its
:meth:`~FleetManager.on_epoch` after the telemetry sampler, at every
epoch boundary:

1. **reaps** tenants whose workload finished, recording their QoS and
   tearing them down through ``Kernel.exit_process`` (runs do not exit
   themselves);
2. **admits** arrivals that have come due, spawning each as a fresh
   process through ``Kernel.spawn`` — deferring (never dropping) spawns
   while allocation sits above the admission threshold, so open-loop
   bursts cannot hard-OOM the machine mid-fault;
3. **applies pressure policy**: feeds the allocated fraction to the OOM
   killer's watermarks and kills the victims it picks, attributing those
   exits to OOM.

Everything is deterministic for a fixed seed: the only randomness is the
manager's own seeded ``random.Random``, and no wall-clock is read.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.fleet.arrivals import PoissonArrivals, TraceArrivals
from repro.fleet.oom import OOMKiller
from repro.fleet.qos import TenantQoS
from repro.fleet.tenants import (
    DEFAULT_CLASSES,
    TenantClass,
    TenantWorkload,
    pick_class,
)
from repro.mem.watermarks import Watermarks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry
    from repro.workloads.base import WorkloadRun


@dataclass
class FleetSpec:
    """Everything that shapes a fleet: arrivals, mix, admission, OOM."""

    #: Poisson arrival rate (tenants per simulated second).
    rate_per_s: float = 1.0
    seed: int = 0
    classes: tuple[TenantClass, ...] = DEFAULT_CLASSES
    #: fixed arrival schedule in simulated seconds; overrides the
    #: Poisson model when set (trace-driven mode).
    arrival_times_s: Optional[tuple[float, ...]] = None
    #: hard concurrency cap (0 = unbounded).
    max_tenants: int = 0
    #: defer admissions while allocated fraction exceeds this.
    admit_fraction: float = 0.92
    #: OOM-killer watermarks (hysteresis pair on allocated fraction).
    oom_high: float = 0.88
    oom_low: float = 0.80
    #: protected tenants survive this many consecutive pressure epochs.
    grace_epochs: int = 5
    oom_kills_per_epoch: int = 1
    #: huge-page group caps ("prefix*" -> summed cap) installed into the
    #: policy's §3.5 limits when it has them (HawkEye); ignored otherwise.
    group_limits: dict = field(default_factory=dict)


class FleetManager:
    """Drive tenant churn through one kernel's epoch loop."""

    def __init__(self, kernel: "Kernel", spec: FleetSpec | None = None,
                 scale_factor: float = 1.0):
        self.kernel = kernel
        self.spec = spec if spec is not None else FleetSpec()
        self.scale_factor = scale_factor
        self.rng = random.Random(self.spec.seed)
        if self.spec.arrival_times_s is not None:
            self.arrivals = TraceArrivals(self.spec.arrival_times_s)
        else:
            self.arrivals = PoissonArrivals(self.spec.rate_per_s, self.rng)
        protected = tuple(c.name for c in self.spec.classes if c.protected)
        self.oom = OOMKiller(
            Watermarks(self.spec.oom_high, self.spec.oom_low),
            protected_prefixes=protected,
            grace_epochs=self.spec.grace_epochs,
            kills_per_epoch=self.spec.oom_kills_per_epoch,
        )
        self.qos = TenantQoS()
        #: lifetime counters (cumulative; `repro top` derives rates).
        self.spawned = 0
        self.exited = 0
        self.oom_kills = 0
        #: tenant-epochs spent waiting for admission.
        self.deferred = 0
        self.peak_active = 0
        self._seq = 0
        self._next_arrival_us = self.arrivals.next_after(kernel.now_us)
        self._live: list["WorkloadRun"] = []
        self._class_of: dict[int, TenantClass] = {}
        #: arrivals sampled (class, footprint, lifetime) but not yet
        #: admitted — sampling happens at arrival time so the admission
        #: decision can never perturb the random sequence.
        self._queue: deque[tuple[TenantClass, int, float]] = deque()
        #: pages reserved for tenants spawned this epoch whose touch
        #: phase has not run yet (released at the next epoch boundary,
        #: once their allocation shows up in ``allocated_pages``).
        self._inflight_pages = 0
        if self.spec.group_limits:
            self._install_group_limits()
        kernel.fleet = self

    # ------------------------------------------------------------------ #
    # wiring                                                              #
    # ------------------------------------------------------------------ #

    def _install_group_limits(self) -> bool:
        """Install the spec's group caps into the policy's §3.5 limits.

        Policies without a limits slot (Linux, Ingens, FreeBSD) simply
        ignore the caps — the cross-policy comparison stays honest about
        which kernels can enforce them.
        """
        policy = self.kernel.policy
        if not hasattr(policy, "limits"):
            return False
        limits = policy.limits
        if limits is None:
            from repro.core.limits import HugePageLimits

            limits = HugePageLimits()
            limits.bind(self.kernel)
            policy.limits = limits
            engine = getattr(policy, "engine", None)
            if engine is not None:
                engine.limits = limits
        for pattern, cap in self.spec.group_limits.items():
            limits.set_group_limit(pattern, cap)
        return True

    def set_rate(self, rate_per_s: float) -> None:
        """Switch to a new Poisson arrival rate from now on."""
        self.arrivals = PoissonArrivals(rate_per_s, self.rng)
        self._next_arrival_us = self.arrivals.next_after(self.kernel.now_us)

    @property
    def active(self) -> int:
        """Tenants currently alive (spawned, not yet exited)."""
        return len(self._live)

    @property
    def pending(self) -> int:
        """Arrivals waiting for admission."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # epoch driver                                                        #
    # ------------------------------------------------------------------ #

    def on_epoch(self, kernel: "Kernel") -> None:
        """Epoch-boundary hook: reap, admit, then apply pressure policy."""
        # Tenants spawned at the previous boundary have run one full
        # step: their footprints now show in allocated_pages, so their
        # admission reservations are released.
        self._inflight_pages = 0
        self._reap(kernel)
        self._admit(kernel)
        self._pressure(kernel)

    def _reap(self, kernel: "Kernel") -> None:
        finished = [run for run in self._live if run.finished]
        if not finished:
            return
        self._live = [run for run in self._live if not run.finished]
        for run in finished:
            self._retire(kernel, run, "natural")

    def _sample_arrival(self) -> tuple[TenantClass, int, float]:
        cls = pick_class(self.spec.classes, self.rng)
        return cls, cls.sample_footprint(self.rng), cls.sample_lifetime_us(self.rng)

    def _reserve_pages(self, footprint_bytes_full: int) -> int:
        """Worst-case resident pages for one tenant (huge-rounded)."""
        from repro.units import BASE_PAGE_SIZE, PAGES_PER_HUGE

        npages = max(1, int(footprint_bytes_full * self.scale_factor)
                     // BASE_PAGE_SIZE + 1)
        return -(-npages // PAGES_PER_HUGE) * PAGES_PER_HUGE

    def _admit(self, kernel: "Kernel") -> None:
        now = kernel.now_us
        while self._next_arrival_us <= now:
            self._queue.append(self._sample_arrival())
            self._next_arrival_us = self.arrivals.next_after(self._next_arrival_us)
        # Admission budgets *committed* memory: current allocation plus
        # the reservations of tenants spawned since the last step, so an
        # open-loop burst can never fault past physical memory mid-epoch.
        budget = (self.spec.admit_fraction * kernel.buddy.total_pages
                  - kernel.buddy.allocated_pages - self._inflight_pages)
        while self._queue:
            if (self.spec.max_tenants
                    and len(self._live) >= self.spec.max_tenants):
                break
            cls, footprint, lifetime_us = self._queue[0]
            reserve = self._reserve_pages(footprint)
            if reserve > budget:
                break
            self._queue.popleft()
            self._spawn(kernel, cls, footprint, lifetime_us)
            self._inflight_pages += reserve
            budget -= reserve
        # open-loop honesty: queued arrivals are measured, not dropped.
        self.deferred += len(self._queue)

    def _spawn(self, kernel: "Kernel", cls: TenantClass,
               footprint: int, lifetime_us: float) -> None:
        self._seq += 1
        name = f"{cls.name}-{self._seq}"
        workload = TenantWorkload(name, footprint, lifetime_us,
                                  stride=cls.touch_stride,
                                  scale=self.scale_factor)
        run = kernel.spawn(workload, name=name)
        self._class_of[run.proc.pid] = cls
        self._live.append(run)
        self.spawned += 1
        if len(self._live) > self.peak_active:
            self.peak_active = len(self._live)

    def _pressure(self, kernel: "Kernel") -> None:
        procs = [run.proc for run in self._live]
        victims = self.oom.on_epoch(kernel.allocated_fraction(), procs)
        if not victims:
            return
        victim_pids = {proc.pid for proc in victims}
        killed = [run for run in self._live if run.proc.pid in victim_pids]
        self._live = [run for run in self._live if run.proc.pid not in victim_pids]
        for run in killed:
            self._retire(kernel, run, "oom")

    def _retire(self, kernel: "Kernel", run: "WorkloadRun", reason: str) -> None:
        """Record one tenant's QoS, then tear the process down."""
        proc = run.proc
        cls = self._class_of.pop(proc.pid, None)
        self.qos.record_exit(kernel, proc,
                             cls.name if cls is not None else proc.name, reason)
        if reason == "oom":
            self.oom_kills += 1
        kernel.exit_process(proc)
        self.exited += 1

    # ------------------------------------------------------------------ #
    # reporting                                                           #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-able fleet state: counters, OOM accounting, per-class QoS."""
        return {
            "spawned": self.spawned,
            "exited": self.exited,
            "oom_kills": self.oom_kills,
            "protected_kills": self.oom.protected_kills,
            "active": len(self._live),
            "pending": len(self._queue),
            "deferred": self.deferred,
            "peak_active": self.peak_active,
            "fairness_spread": round(self.qos.fairness_spread(), 4),
            "classes": self.qos.snapshot(),
        }


# ---------------------------------------------------------------------- #
# publication: metric families, artifact section, scalars, rows           #
# ---------------------------------------------------------------------- #

#: the fleet section's key in a telemetry artifact.
SECTION = "fleet"

#: aggregate snapshot keys, in cell-result and ``fleet.<key>`` scalar order.
AGGREGATES = ("spawned", "exited", "oom_kills", "protected_kills",
              "deferred", "peak_active", "fairness_spread")


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish tenant lifecycle counters and the live population."""
    if (fleet := kernel.fleet) is None:
        return
    counters = registry.counter(
        "fleet_tenants_total", "cumulative fleet tenant lifecycle events",
        labelnames=("event",))
    gauges = registry.gauge(
        "fleet_tenants", "current fleet tenant population",
        labelnames=("state",))
    for event, value in (("spawned", fleet.spawned),
                         ("exited", fleet.exited),
                         ("oom_killed", fleet.oom_kills),
                         ("deferred", fleet.deferred)):
        counters.labels(event=event).sync(value)
    gauges.labels(state="active").set(fleet.active)
    gauges.labels(state="pending").set(fleet.pending)


def section(kernel: "Kernel") -> dict:
    """The fleet snapshot, or ``{}`` on a kernel without a fleet."""
    return kernel.fleet.snapshot() if kernel.fleet is not None else {}


def scalars(section: dict) -> dict[str, float]:
    """``fleet.<aggregate>`` plus per-class tenants, kills, promotions
    and fault p50/p99."""
    out = {f"fleet.{key}": section[key]
           for key in AGGREGATES if key in section}
    for name, cls in (section.get("classes") or {}).items():
        out[f"fleet.{name}.tenants"] = cls.get("tenants", 0)
        out[f"fleet.{name}.oom_kills"] = cls.get("oom_kills", 0)
        out[f"fleet.{name}.promotions"] = cls.get("promotions", 0)
        hist = cls.get("fault_us") or {}
        for p in ("p50", "p99"):
            if p in hist:
                out[f"fleet.{name}.fault_{p}_us"] = hist[p]
    return out


def rows(section: dict) -> tuple[list[list], list[list]]:
    """One aggregate row and one row per tenant class: the HTML tables."""
    aggregate = [[*(section.get(key, 0) for key in (
        "spawned", "exited", "oom_kills", "protected_kills", "peak_active",
        "deferred")), section.get("fairness_spread", 0.0)]]
    classes = []
    for name, cls in sorted((section.get("classes") or {}).items()):
        hist = cls.get("fault_us") or {}
        classes.append([
            name, *(cls.get(key, 0) for key in (
                "tenants", "oom_kills", "promotions")),
            *(cls.get(key, 0.0) for key in (
                "mean_huge_coverage", "mean_bloat_mb")),
            hist.get("p50", ""), hist.get("p99", "")])
    return aggregate, classes
