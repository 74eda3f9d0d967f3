"""Run telemetry: scrape the kernel into one versioned JSON artifact.

A :class:`TelemetrySampler` attaches to a kernel the way a tracer does
(:func:`attach` / :func:`detach`, zero-cost-when-disabled: the epoch
loop tests ``(ts := kernel.telemetry) is not None and ts.enabled``, and
``repro bench touch`` gates the attached-but-silent state under the
same <5 % ceiling as tracing).  At every epoch boundary (subsampled by
``every_epochs``) it refreshes a :class:`~repro.metrics.registry.MetricsRegistry`
from four sources —

* **kernel counters** (``procfs.vmstat``: faults, promotions, swap, …),
* **procfs gauges** (``procfs.meminfo``, allocated fraction),
* **tracer attribution** (per-subsystem event/span totals, when a
  tracer is attached),
* **the buddy/fragmentation layer** (FMFI, free blocks per order),

— and appends one scrape to its time series.  :meth:`TelemetrySampler.telemetry`
folds the scrapes, the tracer's exact attribution table, its log2
latency histograms (with interpolated p50/p95/p99) and a wall-clock
self-profile of the simulator into a :class:`RunTelemetry`, the single
versioned artifact ``repro report`` consumes and the sweep cache
persists beside every cell result.

The sweep runner captures telemetry without the adapters knowing:
:func:`start_capture` arms a module flag, ``Kernel.__init__`` calls
:func:`autoattach` while it is armed (attaching a small, warn-free
tracer plus a sampler to every kernel the cell builds), and
:func:`end_capture` turns the samplers into artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import audit, heat, trace
from repro.metrics.registry import MetricsRegistry
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: artifact schema version; bump when the RunTelemetry shape changes.
TELEMETRY_VERSION = 1

#: vmstat keys that are point-in-time state, not cumulative counters.
VMSTAT_GAUGES = frozenset({"trace_attached", "audit_attached"})

#: scrape subsampling during sweep capture (every N epochs).
CAPTURE_EVERY_EPOCHS = 10
#: ring-buffer size for capture tracers: small — capture needs the exact
#: counters/histograms, not the event list, and drops are free there.
CAPTURE_TRACE_CAPACITY = 20_000


@dataclass
class RunTelemetry:
    """One run's telemetry: metadata, time series, attribution, profile.

    ``scrapes`` is the registry time series (one
    :meth:`~repro.metrics.registry.MetricsRegistry.scrape` dict per
    sample); ``attribution`` is the tracer's exact per-subsystem table;
    ``histograms`` maps tracepoint names to serialized log2 latency
    histograms (with p50/p95/p99); ``self_profile`` is wall-clock — the
    one deliberately non-deterministic section, excluded from
    :meth:`scalar_metrics` so regression baselines stay machine-neutral.
    """

    version: int = TELEMETRY_VERSION
    meta: dict = field(default_factory=dict)
    scrapes: list[dict] = field(default_factory=list)
    attribution: dict[str, dict] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    #: decision-audit summary ({"funnel": .., "rejections": .., counts})
    #: when an audit log was attached; empty — and omitted from the
    #: artifact — otherwise, so audit-free artifacts keep their bytes.
    decisions: dict = field(default_factory=dict)
    #: spatial heat-monitor snapshot (regions, matrices, WSS percentile
    #: series) when a heat monitor was attached; empty — and omitted
    #: from the artifact — otherwise, so heat-free artifacts keep their
    #: exact bytes (same rule as ``decisions``).
    heat: dict = field(default_factory=dict)
    #: fleet-manager snapshot (tenant churn counters, OOM accounting,
    #: per-class QoS) when a fleet was attached; empty — and omitted —
    #: otherwise (same rule as ``decisions``/``heat``).
    fleet: dict = field(default_factory=dict)
    self_profile: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain JSON-able form (the artifact written beside cache entries)."""
        out = {
            "version": self.version,
            "meta": self.meta,
            "scrapes": self.scrapes,
            "attribution": self.attribution,
            "histograms": self.histograms,
            "self_profile": self.self_profile,
        }
        if self.decisions:
            out["decisions"] = self.decisions
        if self.heat:
            out["heat"] = self.heat
        if self.fleet:
            out["fleet"] = self.fleet
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunTelemetry":
        """Rebuild an artifact parsed from JSON."""
        return cls(
            version=data.get("version", 0),
            meta=data.get("meta", {}),
            scrapes=data.get("scrapes", []),
            attribution=data.get("attribution", {}),
            histograms=data.get("histograms", {}),
            decisions=data.get("decisions", {}),
            heat=data.get("heat", {}),
            fleet=data.get("fleet", {}),
            self_profile=data.get("self_profile", {}),
        )

    def scalar_metrics(self) -> dict[str, float]:
        """Deterministic scalars for baseline comparison.

        Per-subsystem event counts and span totals, plus the latency
        percentiles of every histogram — everything simulated-time, no
        wall-clock, so values are identical across machines for a fixed
        source tree.
        """
        out: dict[str, float] = {}
        for subsystem, entry in self.attribution.items():
            out[f"attribution.{subsystem}.events"] = entry["events"]
            out[f"attribution.{subsystem}.span_us"] = entry["span_us"]
        for kind, hist in self.histograms.items():
            for p in ("p50", "p95", "p99"):
                if p in hist:
                    out[f"hist.{kind}.{p}"] = hist[p]
        for point, stages in (self.decisions.get("funnel") or {}).items():
            for stage, count in stages.items():
                out[f"decision.{point}.{stage}"] = count
        for point, reasons in (self.decisions.get("rejections") or {}).items():
            for reason, count in reasons.items():
                out[f"decision.{point}.reject.{reason}"] = count
        for proc in self.heat.get("processes") or ():
            name = proc.get("process")
            out[f"heat.{name}.regions"] = len(proc.get("regions") or ())
            out[f"heat.{name}.hot_regions"] = proc.get("hot_regions", 0)
            wss = proc.get("wss") or {}
            for p in ("p50", "p95", "p99"):
                if p in wss:
                    out[f"heat.{name}.wss_{p}"] = wss[p]
        if self.fleet:
            for key in ("spawned", "exited", "oom_kills", "protected_kills",
                        "deferred", "peak_active", "fairness_spread"):
                if key in self.fleet:
                    out[f"fleet.{key}"] = self.fleet[key]
            for name, cls in (self.fleet.get("classes") or {}).items():
                out[f"fleet.{name}.tenants"] = cls.get("tenants", 0)
                out[f"fleet.{name}.oom_kills"] = cls.get("oom_kills", 0)
                out[f"fleet.{name}.promotions"] = cls.get("promotions", 0)
                hist = cls.get("fault_us") or {}
                for p in ("p50", "p99"):
                    if p in hist:
                        out[f"fleet.{name}.fault_{p}_us"] = hist[p]
        return out


class TelemetrySampler:
    """Per-kernel epoch-boundary scraper feeding a metrics registry."""

    def __init__(self, kernel: "Kernel", every_epochs: int = 1,
                 registry: MetricsRegistry | None = None):
        self.kernel = kernel
        self.every_epochs = max(1, every_epochs)
        #: per-sampler gate: False pauses sampling while staying attached
        #: (the disabled-overhead benchmark measures exactly this state).
        self.enabled = True
        self.registry = registry if registry is not None else MetricsRegistry()
        self.scrapes: list[dict] = []
        r = self.registry
        self._vm_counters = r.counter(
            "vmstat", "cumulative kernel counters (/proc/vmstat analogue)",
            labelnames=("name",))
        self._vm_gauges = r.gauge(
            "vmstat_state", "point-in-time vmstat keys (e.g. trace_attached)",
            labelnames=("name",))
        self._meminfo = r.gauge(
            "meminfo_kb", "memory gauges in KiB (/proc/meminfo analogue)",
            labelnames=("field",))
        self._fmfi = r.gauge(
            "fmfi", "free memory fragmentation index at order 9")
        self._alloc_frac = r.gauge(
            "allocated_fraction", "fraction of physical memory allocated")
        self._free_blocks = r.gauge(
            "buddy_free_blocks", "free blocks per buddy order",
            labelnames=("order",))
        self._proc_rss = r.gauge(
            "process_rss_pages", "resident pages per process",
            labelnames=("process",))
        self._proc_mmu = r.gauge(
            "process_mmu_overhead", "lifetime MMU overhead per process",
            labelnames=("process",))
        self._trace_events = r.counter(
            "trace_events_total", "tracepoint emissions per subsystem",
            labelnames=("subsystem",))
        self._trace_span = r.counter(
            "trace_span_us_total", "traced simulated-time span per subsystem",
            labelnames=("subsystem",))
        # NUMA families exist only on multi-node kernels: a declared-but
        # -childless family still scrapes as an empty dict, which would
        # change single-node scrape bytes against the committed baseline.
        self._numa_gauges = self._numa_counters = self._numa_remote = None
        if kernel.numa is not None:
            self._numa_gauges = r.gauge(
                "numastat_pages", "per-node page gauges (numastat analogue)",
                labelnames=("name",))
            self._numa_counters = r.counter(
                "numastat", "cumulative NUMA placement/migration counters",
                labelnames=("name",))
            self._numa_remote = r.gauge(
                "numa_remote_walk_share",
                "share of all page-walk cycles hitting remote-node memory")
        # Decision-audit families follow the same rule as NUMA: declared
        # only when an audit log is attached at sampler construction, so
        # audit-free scrapes keep their exact byte shape.
        self._decision_funnel = self._decision_reject = None
        if kernel.audit is not None:
            self._decision_funnel = r.counter(
                "decision_funnel_total",
                "policy decisions reaching each funnel stage",
                labelnames=("point", "stage"))
            self._decision_reject = r.counter(
                "decision_rejections_total",
                "policy rejections per decision point and reason",
                labelnames=("point", "reason"))
        # Heat-monitor families: declared only when a monitor is attached
        # at sampler construction, so heat-free scrapes keep their bytes.
        self._heat_regions = self._heat_wss = self._heat_hot = None
        if kernel.heat is not None:
            self._heat_regions = r.gauge(
                "heat_monitoring_regions",
                "adaptive monitoring regions per process",
                labelnames=("process",))
            self._heat_hot = r.gauge(
                "heat_hot_regions",
                "monitoring regions above the hot-density threshold",
                labelnames=("process",))
            self._heat_wss = r.gauge(
                "heat_wss_pages",
                "monitoring-region working-set estimate in base pages",
                labelnames=("process",))
        # Fleet and huge-page-limit families are declared *lazily* in
        # ``_collect`` (unlike NUMA/audit/heat): a FleetManager attaches
        # after kernel construction — past this constructor — and a
        # fleet may install group limits into the policy at that point
        # too.  Scrape bytes for fleet-free kernels stay identical, the
        # same guarantee the construction-time families give.
        self._fleet_counters = self._fleet_gauges = None
        self._limit_refusals = None
        self._limit_group_held = self._limit_group_cap = None
        # wall-clock self-profile state
        self._wall_origin = time.perf_counter()
        self._last_wall = self._wall_origin
        self._run_wall_s = 0.0
        self._scrape_wall_s = 0.0
        self._epochs_seen = 0

    # ------------------------------------------------------------------ #
    # sampling                                                            #
    # ------------------------------------------------------------------ #

    def on_epoch(self, kernel: "Kernel") -> None:
        """Epoch-boundary hook (called from ``Kernel.run_epoch`` when armed)."""
        now = time.perf_counter()
        self._run_wall_s += now - self._last_wall
        self._last_wall = now
        self._epochs_seen += 1
        if kernel.stats.epochs % self.every_epochs:
            return
        self._collect(kernel)
        self.scrapes.append(self.registry.scrape(kernel.now_us / SEC))
        after = time.perf_counter()
        self._scrape_wall_s += after - self._last_wall
        self._last_wall = after

    def _collect(self, kernel: "Kernel") -> None:
        """Refresh every registry family from the kernel's current state."""
        from repro.kernel import procfs

        for name, value in procfs.vmstat(kernel).items():
            if name in VMSTAT_GAUGES:
                self._vm_gauges.labels(name=name).set(value)
            else:
                self._vm_counters.labels(name=name).sync(value)
        for fieldname, value in procfs.meminfo(kernel).items():
            self._meminfo.labels(field=fieldname).set(value)
        self._fmfi.child().set(kernel.fmfi())
        self._alloc_frac.child().set(kernel.allocated_fraction())
        for order, count in enumerate(kernel.buddy.free_block_counts()):
            self._free_blocks.labels(order=str(order)).set(count)
        for proc in kernel.processes:
            self._proc_rss.labels(process=proc.name).set(proc.rss_pages())
            pmu = kernel.pmu.get(proc.pid)
            if pmu is not None:
                self._proc_mmu.labels(process=proc.name).set(pmu.read_overhead())
        if self._numa_gauges is not None:
            for name, value in procfs.numastat(kernel).items():
                if name.endswith("_pages") or name == "numa_nodes":
                    self._numa_gauges.labels(name=name).set(value)
                else:
                    self._numa_counters.labels(name=name).sync(value)
            self._numa_remote.child().set(kernel.numa.remote_walk_share())
        tracer = kernel.trace
        if tracer is not None:
            for subsystem, (events, span_us) in tracer.attribution().items():
                self._trace_events.labels(subsystem=subsystem).sync(events)
                self._trace_span.labels(subsystem=subsystem).sync(span_us)
        monitor = kernel.heat
        if self._heat_regions is not None and monitor is not None:
            for state in monitor.procs.values():
                self._heat_regions.labels(process=state.name).set(
                    len(state.regions))
                self._heat_hot.labels(process=state.name).set(
                    state.hot_regions())
                self._heat_wss.labels(process=state.name).set(
                    round(state.last_estimate, 2))
        audit_log = kernel.audit
        if self._decision_funnel is not None and audit_log is not None:
            for point, counts in audit_log.funnel.items():
                for stage, count in zip(audit.FUNNEL_STAGES, counts):
                    self._decision_funnel.labels(
                        point=point, stage=stage).sync(count)
            for point, reasons in audit_log.rejections.items():
                for reason, count in reasons.items():
                    self._decision_reject.labels(
                        point=point, reason=reason).sync(count)
        fleet = kernel.fleet
        if fleet is not None:
            if self._fleet_counters is None:
                r = self.registry
                self._fleet_counters = r.counter(
                    "fleet_tenants_total",
                    "cumulative fleet tenant lifecycle events",
                    labelnames=("event",))
                self._fleet_gauges = r.gauge(
                    "fleet_tenants", "current fleet tenant population",
                    labelnames=("state",))
            for event, value in (("spawned", fleet.spawned),
                                 ("exited", fleet.exited),
                                 ("oom_killed", fleet.oom_kills),
                                 ("deferred", fleet.deferred)):
                self._fleet_counters.labels(event=event).sync(value)
            self._fleet_gauges.labels(state="active").set(fleet.active)
            self._fleet_gauges.labels(state="pending").set(fleet.pending)
        limits = getattr(kernel.policy, "limits", None)
        if limits is not None:
            if self._limit_refusals is None:
                r = self.registry
                self._limit_refusals = r.counter(
                    "limit_refusals_total",
                    "huge-page promotions refused by §3.5 caps",
                    labelnames=("kind",))
                self._limit_group_held = r.gauge(
                    "limit_group_held",
                    "huge pages currently held by a limit group",
                    labelnames=("group",))
                self._limit_group_cap = r.gauge(
                    "limit_group_cap", "huge-page cap of a limit group",
                    labelnames=("group",))
            self._limit_refusals.labels(kind="total").sync(limits.refusals)
            self._limit_refusals.labels(kind="group").sync(
                limits.group_refusals)
            for group, (held, cap) in limits.group_stats().items():
                self._limit_group_held.labels(group=group).set(held)
                self._limit_group_cap.labels(group=group).set(cap)

    # ------------------------------------------------------------------ #
    # artifact                                                            #
    # ------------------------------------------------------------------ #

    def self_profile(self) -> dict:
        """Wall-clock profile of the simulator run this sampler watched."""
        run_s = self._run_wall_s
        return {
            "wall_s": round(time.perf_counter() - self._wall_origin, 4),
            "run_s": round(run_s, 4),
            "scrape_s": round(self._scrape_wall_s, 4),
            "epochs": self._epochs_seen,
            "scrapes": len(self.scrapes),
            "epochs_per_wall_s": round(self._epochs_seen / run_s, 1) if run_s > 0 else 0.0,
        }

    def telemetry(self, meta: dict | None = None) -> RunTelemetry:
        """Fold everything sampled so far into one :class:`RunTelemetry`.

        Always ends the series with a scrape of the kernel's final state
        (runs shorter than ``every_epochs`` would otherwise produce an
        empty time series).
        """
        kernel = self.kernel
        end_s = kernel.now_us / SEC
        if not self.scrapes or self.scrapes[-1]["t_s"] != end_s:
            self._collect(kernel)
            self.scrapes.append(self.registry.scrape(end_s))
        full_meta = {
            "policy": type(kernel.policy).__name__,
            "mem_bytes": kernel.config.mem_bytes,
            "epochs": kernel.stats.epochs,
            "t_end_s": kernel.now_us / SEC,
            "processes": sorted(
                {p.name for p in kernel.processes}
                | {run.proc.name for run in kernel.runs}),
        }
        if meta:
            full_meta.update(meta)
        tracer = kernel.trace
        attribution: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        if tracer is not None:
            attribution = {
                subsystem: {"events": events, "span_us": span_us}
                for subsystem, (events, span_us) in sorted(tracer.attribution().items())
            }
            histograms = {
                kind.value: hist.to_dict()
                for kind, hist in sorted(tracer.histograms.items(),
                                         key=lambda item: item[0].value)
            }
        audit_log = kernel.audit
        decisions: dict = {}
        if audit_log is not None:
            decisions = {
                "funnel": audit_log.funnel_summary(),
                "rejections": audit_log.rejection_summary(),
                "recorded": audit_log.recorded,
                "dropped": audit_log.dropped,
            }
        monitor = kernel.heat
        heat_snap: dict = {}
        if monitor is not None:
            snap = monitor.snapshot()
            if snap["samples"] or snap["processes"]:
                heat_snap = snap
        fleet_snap: dict = {}
        if kernel.fleet is not None:
            fleet_snap = kernel.fleet.snapshot()
        return RunTelemetry(
            version=TELEMETRY_VERSION,
            meta=full_meta,
            scrapes=list(self.scrapes),
            attribution=attribution,
            histograms=histograms,
            decisions=decisions,
            heat=heat_snap,
            fleet=fleet_snap,
            self_profile=self.self_profile(),
        )


# ---------------------------------------------------------------------- #
# attachment (mirrors repro.trace)                                        #
# ---------------------------------------------------------------------- #


def attach(kernel: "Kernel", every_epochs: int = 1,
           registry: MetricsRegistry | None = None) -> TelemetrySampler:
    """Attach a :class:`TelemetrySampler` as ``kernel.telemetry``.

    Idempotent: returns the existing sampler if one is attached.
    """
    if kernel.telemetry is None:
        kernel.telemetry = TelemetrySampler(kernel, every_epochs, registry)
    return kernel.telemetry


def detach(kernel: "Kernel") -> TelemetrySampler | None:
    """Detach ``kernel``'s sampler (empties ``kernel.telemetry``)."""
    sampler, kernel.telemetry = kernel.telemetry, None
    return sampler


def reset() -> None:
    """Drop any armed sweep capture (test isolation)."""
    global _capture_samplers, capturing
    _capture_samplers = None
    capturing = False


# ---------------------------------------------------------------------- #
# sweep capture: telemetry without the adapters knowing                   #
# ---------------------------------------------------------------------- #

#: samplers auto-attached since :func:`start_capture` (None = not capturing).
_capture_samplers: Optional[list[TelemetrySampler]] = None

#: armed by :func:`start_capture`; ``Kernel.__init__`` checks this flag
#: (one module-attribute test per kernel construction — negligible).
capturing: bool = False


def start_capture(every_epochs: int = CAPTURE_EVERY_EPOCHS) -> None:
    """Arm auto-attachment for every kernel built until :func:`end_capture`."""
    global _capture_samplers, capturing, _capture_every
    _capture_samplers = []
    _capture_every = every_epochs
    capturing = True


_capture_every: int = CAPTURE_EVERY_EPOCHS


def autoattach(kernel: "Kernel") -> None:
    """Called by ``Kernel.__init__`` while a capture is armed.

    Attaches the tracer, the decision audit and the heat monitor
    *before* the sampler so the sampler sees them all and declares
    their metric families.
    """
    if _capture_samplers is None:
        return
    trace.attach(kernel, CAPTURE_TRACE_CAPACITY, warn_on_drop=False)
    audit.attach(kernel)
    heat.attach(kernel)
    _capture_samplers.append(attach(kernel, every_epochs=_capture_every))


def end_capture(meta: dict | None = None) -> list[RunTelemetry]:
    """Disarm capture; detach and convert every sampler to an artifact."""
    global _capture_samplers, capturing
    samplers, _capture_samplers = _capture_samplers, None
    capturing = False
    artifacts: list[RunTelemetry] = []
    for sampler in samplers or ():
        artifacts.append(sampler.telemetry(meta))
        trace.detach(sampler.kernel)
        audit.detach(sampler.kernel)
        heat.detach(sampler.kernel)
        detach(sampler.kernel)
    return artifacts
