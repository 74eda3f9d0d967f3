"""Tests for the run-telemetry sampler and its artifact."""

from __future__ import annotations

import json

import pytest

from repro import trace
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
