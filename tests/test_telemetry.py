"""Tests for the run-telemetry sampler and its artifact."""

from __future__ import annotations

import json

import pytest

from repro import heat, trace
from repro.kernel.kernel import Kernel
from repro.metrics import telemetry
from repro.metrics.telemetry import RunTelemetry, TelemetrySampler
from repro.policies.linux import Linux4KPolicy
from tests.conftest import small_config, spawn_simple


def _run(kernel, epochs=12):
    spawn_simple(kernel, heap_mb=4, work_s=2.0)
    kernel.run_epochs(epochs)


# --------------------------------------------------------------------- #
# attachment lifecycle                                                   #
# --------------------------------------------------------------------- #


def test_attach_arms_flag_and_is_idempotent(kernel4k):
    assert kernel4k.telemetry is None
    sampler = telemetry.attach(kernel4k, every_epochs=2)
    assert kernel4k.telemetry is sampler
    assert telemetry.attach(kernel4k) is sampler
    assert telemetry.detach(kernel4k) is sampler
    assert kernel4k.telemetry is None
    assert telemetry.detach(kernel4k) is None


def test_epoch_hook_scrapes_on_schedule(kernel4k):
    sampler = telemetry.attach(kernel4k, every_epochs=3)
    _run(kernel4k, epochs=9)
    assert len(sampler.scrapes) == 3
    times = [s["t_s"] for s in sampler.scrapes]
    assert times == sorted(times)


def test_disabled_sampler_stays_silent(kernel4k):
    sampler = telemetry.attach(kernel4k)
    sampler.enabled = False
    _run(kernel4k, epochs=6)
    assert sampler.scrapes == []


def test_unattached_kernel_pays_nothing(kernel4k):
    _run(kernel4k, epochs=4)
    assert kernel4k.telemetry is None


def test_counters_monotonic_in_real_run(kernel_hawkeye):
    sampler = telemetry.attach(kernel_hawkeye)
    _run(kernel_hawkeye, epochs=20)
    scrapes = sampler.scrapes
    assert len(scrapes) >= 10
    for name, series in _counter_series(scrapes).items():
        assert all(lo <= hi for lo, hi in zip(series, series[1:])), name


def _counter_series(scrapes):
    out = {}
    for scrape in scrapes:
        for family, children in scrape["counters"].items():
            for key, value in children.items():
                out.setdefault(f"{family}{{{key}}}", []).append(value)
    return out


# --------------------------------------------------------------------- #
# the artifact                                                           #
# --------------------------------------------------------------------- #


def test_artifact_contents_and_round_trip(kernel_hawkeye):
    trace.attach(kernel_hawkeye)
    sampler = telemetry.attach(kernel_hawkeye, every_epochs=5)
    _run(kernel_hawkeye, epochs=15)
    artifact = sampler.telemetry({"cell_id": "x"})
    assert artifact.version == telemetry.TELEMETRY_VERSION
    assert artifact.meta["cell_id"] == "x"
    assert artifact.meta["policy"] == "HawkEyePolicy"
    assert "w" in artifact.meta["processes"]
    assert artifact.scrapes
    assert artifact.attribution["fault"]["events"] > 0
    assert any(h["count"] for h in artifact.histograms.values())
    assert artifact.self_profile["epochs"] == 15
    # scalar metrics are simulated-time only: no wall-clock keys
    scalars = artifact.scalar_metrics()
    assert "attribution.fault.events" in scalars
    assert any(k.startswith("hist.") and k.endswith(".p95") for k in scalars)
    assert not any("wall" in k for k in scalars)
    # artifact round-trips through JSON exactly
    blob = json.dumps(artifact.to_dict())
    rebuilt = RunTelemetry.from_dict(json.loads(blob))
    assert rebuilt.to_dict() == artifact.to_dict()
    assert rebuilt.scalar_metrics() == scalars
    trace.detach(kernel_hawkeye)


def test_short_run_still_gets_final_scrape(kernel4k):
    # the run finishes before the first every_epochs boundary...
    sampler = telemetry.attach(kernel4k, every_epochs=1000)
    _run(kernel4k, epochs=3)
    assert sampler.scrapes == []
    # ...but the artifact always ends with a final-state scrape
    artifact = sampler.telemetry()
    assert len(artifact.scrapes) == 1
    assert artifact.scrapes[-1]["t_s"] == kernel4k.now_us / 1e6


def test_artifact_without_tracer_has_empty_attribution(kernel4k):
    sampler = telemetry.attach(kernel4k)
    _run(kernel4k, epochs=4)
    artifact = sampler.telemetry()
    assert artifact.attribution == {}
    assert artifact.histograms == {}
    assert artifact.scalar_metrics() == {}


# --------------------------------------------------------------------- #
# sweep capture                                                          #
# --------------------------------------------------------------------- #


def test_capture_autoattaches_new_kernels():
    telemetry.start_capture(every_epochs=2)
    try:
        kernel = Kernel(small_config(), Linux4KPolicy)
        assert kernel.telemetry is not None
        assert kernel.trace is not None      # small, warn-free capture tracer
        assert kernel.trace.capacity == telemetry.CAPTURE_TRACE_CAPACITY
        _run(kernel, epochs=6)
    finally:
        artifacts = telemetry.end_capture({"cell_id": "cap"})
    assert len(artifacts) == 1
    assert artifacts[0].meta["cell_id"] == "cap"
    assert artifacts[0].scrapes
    assert telemetry.capturing is False
    assert kernel.telemetry is None
    assert kernel.trace is None
    # kernels built after end_capture are untouched
    after = Kernel(small_config(), Linux4KPolicy)
    assert after.telemetry is None


def test_reset_clears_capture_state(kernel4k):
    telemetry.start_capture()
    telemetry.attach(kernel4k)
    telemetry.reset()
    assert telemetry.capturing is False
    assert telemetry.end_capture() == []


def _attach_order_scrapes(order):
    from repro import audit, heat
    from repro.experiments import Scale, make_kernel
    from repro.units import GB, SEC
    from repro.workloads.microbench import AllocTouchFree

    kernel = make_kernel(16 * GB, "hawkeye-g", Scale(1 / 256))
    attach = {"telemetry": lambda: telemetry.attach(kernel, every_epochs=5),
              "audit": lambda: audit.attach(kernel),
              "heat": lambda: heat.attach(kernel)}
    for name in order:
        attach[name]()
    kernel.spawn(AllocTouchFree(scale=1 / 256, rounds=3, gap_us=20 * SEC))
    kernel.run(max_epochs=200)
    return kernel.telemetry.telemetry().scrapes


def test_scrapes_do_not_depend_on_attach_order():
    """Observers attached after the sampler still publish their families."""
    late = _attach_order_scrapes(("telemetry", "audit", "heat"))
    early = _attach_order_scrapes(("audit", "heat", "telemetry"))
    names = set(late[-1]["counters"]) | set(late[-1]["gauges"])
    assert {"decision_funnel_total", "decision_rejections_total",
            "heat_wss_pages"} <= names
    assert late == early


# --------------------------------------------------------------------- #
# per-process series follow live processes                               #
# --------------------------------------------------------------------- #

#: the families with one child per process (gauges, ``process=`` label).
PER_PROCESS_FAMILIES = (
    "process_rss_pages", "process_mmu_overhead", "heat_monitoring_regions",
    "heat_hot_regions", "heat_wss_pages")


def test_exited_process_series_are_dropped(kernel_hawkeye):
    kernel = kernel_hawkeye
    heat.attach(kernel)
    sampler = telemetry.attach(kernel)
    spawn_simple(kernel, heap_mb=4, work_s=100.0, name="keep")
    gone = spawn_simple(kernel, heap_mb=4, work_s=100.0, name="gone")
    kernel.run(max_epochs=60)  # two access-bit samples: heat sees both
    before = sampler.scrapes[-1]["gauges"]
    for name in PER_PROCESS_FAMILIES:
        assert set(before[name]) == {"process=keep", "process=gone"}, name
    kernel.exit_process(gone.proc)
    # the monitor retires the pid only at its next sample; the scrape
    # in between must already leave it out
    assert gone.proc.pid in kernel.heat.owners
    sampler._scrape(kernel)
    after = sampler.scrapes[-1]["gauges"]
    for name in PER_PROCESS_FAMILIES:
        assert after[name] == {"process=keep": before[name]["process=keep"]}
    # the scalars a baseline or bench digest compares read no scrape
    artifact = sampler.telemetry()
    doc = artifact.to_dict()
    bare = RunTelemetry.from_dict({**doc, "scrapes": []})
    assert bare.scalar_metrics() == artifact.scalar_metrics()


# --------------------------------------------------------------------- #
# artifact byte pin                                                      #
# --------------------------------------------------------------------- #

#: sha256 of one captured artifact's canonical JSON (sorted keys,
#: ``self_profile`` dropped).  A change here means the telemetry bytes
#: moved; refactors of the publication path must leave it alone.
PINNED_ARTIFACT_SHA256 = (
    "cba5bcb42edff5fe4d98854292ee4d1f007e1584d736c93de4f4436700b2a3a9")


def test_captured_artifact_bytes_are_pinned():
    """Tracer, audit, heat, fleet and limits all publish into one cell."""
    import hashlib

    from repro.experiments import Scale, make_kernel, reset_sim_state
    from repro.fleet import FleetManager, FleetSpec
    from repro.units import GB

    reset_sim_state()
    telemetry.start_capture(every_epochs=5)
    try:
        kernel = make_kernel(8 * GB, "hawkeye-g", Scale(1 / 128),
                             boot_zeroed=True)
        FleetManager(kernel, FleetSpec(rate_per_s=2.0, seed=1,
                                       group_limits={"batch-*": 4}),
                     scale_factor=1 / 128)
        kernel.run_epochs(120)
    finally:
        (artifact,) = telemetry.end_capture({"cell_id": "pin"})
    doc = artifact.to_dict()
    doc.pop("self_profile")
    assert {"decisions", "heat", "fleet"} <= set(doc)
    gauges = doc["scrapes"][-1]["gauges"]
    assert "heat_wss_pages" in gauges and "limit_group_held" in gauges
    assert doc["attribution"]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_ARTIFACT_SHA256
