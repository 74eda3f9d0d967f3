"""Run telemetry: scrape the kernel into one versioned JSON artifact.

A :class:`TelemetrySampler` attaches to a kernel the way a tracer does
(:func:`attach` / :func:`detach`, zero-cost-when-disabled: the epoch
loop tests ``(ts := kernel.telemetry) is not None and ts.enabled``, and
``repro bench touch`` gates the attached-but-silent state under the
same <5 % ceiling as tracing).  At every epoch boundary (subsampled by
``every_epochs``) it calls ``collect(registry, kernel)`` of each module
in :data:`PUBLISHERS` and appends one
:meth:`~repro.metrics.registry.MetricsRegistry.scrape` to its time
series.  A publisher declares its families on first use, so an observer
attached after the sampler still shows up in the next scrape.

:meth:`TelemetrySampler.telemetry` folds the scrapes, the tracer's exact
attribution table, its log2 latency histograms (with interpolated
p50/p95/p99), the ``section(kernel)`` of each module in :data:`SECTIONED`
and a wall-clock self-profile of the simulator into a
:class:`RunTelemetry`, the single versioned artifact ``repro report``
consumes and the sweep cache persists beside every cell result.

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
from repro.core import limits
from repro.fleet import manager as fleet
from repro.kernel import procfs
from repro.metrics.registry import MetricsRegistry
from repro.numa import balance as numa
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: artifact schema version; bump when the RunTelemetry shape changes.
TELEMETRY_VERSION = 1

#: modules whose ``collect(registry, kernel)`` runs at every scrape.
PUBLISHERS = (procfs, numa, trace, audit, heat, fleet, limits)

#: publishers that also own an artifact section: ``SECTION`` (its key),
#: ``section(kernel)``, ``scalars(section)`` and ``rows(section)``.
SECTIONED = (audit, heat, fleet)

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
    histograms (with p50/p95/p99); ``sections`` maps the artifact keys
    of :data:`SECTIONED` to their non-empty sections (an absent observer
    costs no bytes); ``self_profile`` is wall-clock — the one
    deliberately non-deterministic section, excluded from
    :meth:`scalar_metrics` so regression baselines stay machine-neutral.
    """

    version: int = TELEMETRY_VERSION
    meta: dict = field(default_factory=dict)
    scrapes: list[dict] = field(default_factory=list)
    attribution: dict[str, dict] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    sections: dict[str, dict] = field(default_factory=dict)
    self_profile: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain JSON-able form (the artifact written beside cache entries)."""
        return {
            "version": self.version,
            "meta": self.meta,
            "scrapes": self.scrapes,
            "attribution": self.attribution,
            "histograms": self.histograms,
            "self_profile": self.self_profile,
            **self.sections,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunTelemetry":
        """Rebuild an artifact parsed from JSON."""
        return cls(
            version=data.get("version", 0),
            meta=data.get("meta", {}),
            scrapes=data.get("scrapes", []),
            attribution=data.get("attribution", {}),
            histograms=data.get("histograms", {}),
            sections={m.SECTION: data[m.SECTION] for m in SECTIONED
                      if data.get(m.SECTION)},
            self_profile=data.get("self_profile", {}),
        )

    def scalar_metrics(self) -> dict[str, float]:
        """Deterministic scalars for baseline comparison.

        Per-subsystem event counts and span totals, the latency
        percentiles of every histogram, then each section's
        ``scalars`` — everything simulated-time, no wall-clock, so
        values are identical across machines for a fixed source tree.
        """
        out: dict[str, float] = {}
        for subsystem, entry in self.attribution.items():
            out[f"attribution.{subsystem}.events"] = entry["events"]
            out[f"attribution.{subsystem}.span_us"] = entry["span_us"]
        for kind, hist in self.histograms.items():
            for p in ("p50", "p95", "p99"):
                if p in hist:
                    out[f"hist.{kind}.{p}"] = hist[p]
        for mod in SECTIONED:
            if mod.SECTION in self.sections:
                out.update(mod.scalars(self.sections[mod.SECTION]))
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
        self._scrape(kernel)
        after = time.perf_counter()
        self._scrape_wall_s += after - self._last_wall
        self._last_wall = after

    def _scrape(self, kernel: "Kernel") -> None:
        """Refresh every publisher's families, then append one scrape."""
        for mod in PUBLISHERS:
            mod.collect(self.registry, kernel)
        self.scrapes.append(self.registry.scrape(kernel.now_us / SEC))

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
        if not self.scrapes or self.scrapes[-1]["t_s"] != kernel.now_us / SEC:
            self._scrape(kernel)
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
        return RunTelemetry(
            version=TELEMETRY_VERSION,
            meta=full_meta,
            scrapes=list(self.scrapes),
            attribution=attribution,
            histograms=histograms,
            sections={mod.SECTION: sec for mod in SECTIONED
                      if (sec := mod.section(kernel))},
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

    Attaches the tracer, the decision audit, the heat monitor and the
    sampler that scrapes them.
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
