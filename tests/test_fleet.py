"""Fleet subsystem tests: arrivals, OOM killer, churn manager, QoS.

Covers the directed acceptance properties of the fleet experiment:
badness ordering and protected-tenant grace in the OOM killer, the
kill-accounting invariant (total kills == tenant exits attributed to
OOM), deterministic cells, and the zero-cost contract (no fleet key in
telemetry artifacts when no fleet is attached).
"""

import json
import random

import pytest

from repro.experiments import Scale, make_kernel
from repro.fleet import (
    DEFAULT_CLASSES,
    FleetManager,
    FleetSpec,
    OOMKiller,
    PoissonArrivals,
    TenantClass,
    TraceArrivals,
)
from repro.fleet.experiment import run_fleet_smoke
from repro.fleet.tenants import pick_class
from repro.mem.watermarks import Watermarks
from repro.units import GB, MB, SEC


# --------------------------------------------------------------------- #
# arrival models                                                         #
# --------------------------------------------------------------------- #


def test_poisson_arrivals_deterministic_and_increasing():
    a = PoissonArrivals(2.0, random.Random(42))
    b = PoissonArrivals(2.0, random.Random(42))
    ta = tb = 0.0
    last = 0.0
    for _ in range(50):
        ta = a.next_after(ta)
        tb = b.next_after(tb)
        assert ta == tb
        assert ta > last
        last = ta


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0, random.Random(0))


def test_trace_arrivals_pop_in_order_then_exhaust():
    trace = TraceArrivals((3.0, 1.0, 2.0))
    times = [trace.next_after(0.0) for _ in range(3)]
    assert times == [1.0 * SEC, 2.0 * SEC, 3.0 * SEC]
    assert trace.next_after(times[-1]) == float("inf")
    assert trace.remaining == 0


def test_tenant_class_samples_stay_in_bounds():
    cls = TenantClass("web", (64 * MB, 512 * MB), (4.0, 30.0))
    rng = random.Random(7)
    for _ in range(200):
        assert 64 * MB <= cls.sample_footprint(rng) <= 512 * MB
        assert 4.0 * SEC <= cls.sample_lifetime_us(rng) <= 30.0 * SEC


def test_pick_class_respects_weights():
    heavy = TenantClass("heavy", (MB, 2 * MB), (1.0, 2.0), weight=99.0)
    light = TenantClass("light", (MB, 2 * MB), (1.0, 2.0), weight=1.0)
    rng = random.Random(3)
    picks = [pick_class((heavy, light), rng).name for _ in range(300)]
    assert picks.count("heavy") > 250


# --------------------------------------------------------------------- #
# OOM killer                                                             #
# --------------------------------------------------------------------- #


class _Proc:
    """Minimal stand-in: the killer only reads pid, name, rss_pages()."""

    def __init__(self, pid, name, rss):
        self.pid = pid
        self.name = name
        self._rss = rss

    def rss_pages(self):
        return self._rss


def _pressure(oom, procs, epochs=1):
    """Feed ``epochs`` above-high samples; return victims of the last."""
    victims = []
    for _ in range(epochs):
        victims = oom.on_epoch(0.95, procs)
    return victims


def test_oom_badness_orders_by_rss_then_pid():
    oom = OOMKiller(Watermarks(0.88, 0.80), kills_per_epoch=2)
    procs = [_Proc(1, "a", 100), _Proc(2, "b", 500), _Proc(3, "c", 500)]
    victims = _pressure(oom, procs)
    # largest RSS first; equal RSS breaks ties toward the lower pid.
    assert [v.pid for v in victims] == [2, 3]
    assert oom.kills == 2


def test_oom_below_watermark_kills_nothing():
    oom = OOMKiller(Watermarks(0.88, 0.80))
    assert oom.on_epoch(0.50, [_Proc(1, "a", 100)]) == []
    assert oom.kills == 0
    assert oom.pressure_epochs == 0


def test_oom_prefers_unprotected_even_when_smaller():
    oom = OOMKiller(Watermarks(0.88, 0.80), protected_prefixes=("db",),
                    grace_epochs=0)
    procs = [_Proc(1, "db-1", 1000), _Proc(2, "web-1", 10)]
    victims = _pressure(oom, procs, epochs=3)
    assert [v.name for v in victims] == ["web-1"]
    assert oom.protected_kills == 0


def test_oom_protected_grace_then_kill():
    oom = OOMKiller(Watermarks(0.88, 0.80), protected_prefixes=("db",),
                    grace_epochs=3)
    procs = [_Proc(1, "db-1", 100), _Proc(2, "db-2", 200)]
    # within the grace window: pressure mounts but nobody dies.
    for _ in range(3):
        assert oom.on_epoch(0.95, procs) == []
    # grace exhausted: the worst protected tenant finally goes.
    victims = oom.on_epoch(0.95, procs)
    assert [v.name for v in victims] == ["db-2"]
    assert oom.protected_kills == 1
    assert oom.kills == 1


def test_oom_pressure_resets_below_low_watermark():
    oom = OOMKiller(Watermarks(0.88, 0.80), protected_prefixes=("db",),
                    grace_epochs=3)
    procs = [_Proc(1, "db-1", 100)]
    for _ in range(3):
        oom.on_epoch(0.95, procs)
    assert oom.pressure_epochs == 3
    oom.on_epoch(0.50, procs)  # relief: hysteresis deactivates
    assert oom.pressure_epochs == 0
    # the grace window starts over — no kill on the next pressure epoch.
    assert oom.on_epoch(0.95, procs) == []


# --------------------------------------------------------------------- #
# manager churn                                                          #
# --------------------------------------------------------------------- #


def _small_fleet_kernel(policy="linux-4kb"):
    return make_kernel(8 * GB, policy, Scale(1 / 128), boot_zeroed=True)


def test_manager_spawns_runs_and_reaps():
    kernel = _small_fleet_kernel()
    manager = FleetManager(kernel, FleetSpec(rate_per_s=2.0, seed=1),
                           scale_factor=1 / 128)
    assert kernel.fleet is manager
    for _ in range(120):
        kernel.run_epoch()
    assert manager.spawned > 0
    assert manager.exited > 0
    assert manager.spawned == manager.exited + manager.active
    # every live process belongs to the fleet — nothing leaks.
    assert manager.active == len(kernel.processes)
    assert manager.peak_active >= manager.active


def test_manager_kill_accounting_invariant():
    # a cramped machine under a hot arrival rate: the OOM killer must
    # fire, and every kill must show up as an OOM-attributed exit.
    kernel = make_kernel(4 * GB, "linux-4kb", Scale(1 / 128),
                         boot_zeroed=True)
    manager = FleetManager(kernel, FleetSpec(rate_per_s=8.0, seed=5),
                           scale_factor=1 / 128)
    for _ in range(300):
        kernel.run_epoch()
    assert manager.oom_kills > 0
    snap = manager.snapshot()
    per_class_oom = sum(c["oom_kills"] for c in snap["classes"].values())
    assert manager.oom_kills == per_class_oom == manager.oom.kills
    per_class_tenants = sum(c["tenants"] for c in snap["classes"].values())
    assert snap["exited"] == per_class_tenants


def test_manager_max_tenants_cap():
    kernel = _small_fleet_kernel()
    manager = FleetManager(kernel, FleetSpec(rate_per_s=20.0, seed=2,
                                             max_tenants=5),
                           scale_factor=1 / 128)
    for _ in range(60):
        kernel.run_epoch()
        assert manager.active <= 5
    assert manager.peak_active <= 5


def test_manager_installs_group_limits_on_hawkeye_only():
    hk = _small_fleet_kernel("hawkeye-g")
    FleetManager(hk, FleetSpec(group_limits={"batch-*": 4}),
                 scale_factor=1 / 128)
    assert hk.policy.limits is not None
    assert hk.policy.limits.group_stats() == {"batch-": (0, 4)}
    linux = _small_fleet_kernel("linux-2mb")
    FleetManager(linux, FleetSpec(group_limits={"batch-*": 4}),
                 scale_factor=1 / 128)
    assert not hasattr(linux.policy, "limits") or linux.policy.limits is None


def test_trace_driven_fleet_spawns_exactly_scheduled_arrivals():
    kernel = _small_fleet_kernel()
    manager = FleetManager(
        kernel,
        FleetSpec(arrival_times_s=(1.0, 2.0, 3.0), seed=0),
        scale_factor=1 / 128)
    for _ in range(40):
        kernel.run_epoch()
    assert manager.spawned == 3


# --------------------------------------------------------------------- #
# experiment cells                                                       #
# --------------------------------------------------------------------- #


def test_fleet_smoke_cell_deterministic():
    first = run_fleet_smoke("arrival-smoke", "linux-4kb", Scale(1 / 256))
    second = run_fleet_smoke("arrival-smoke", "linux-4kb", Scale(1 / 256))
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    assert first["exited"] >= 100
    for key in ("fairness_spread", "fault_p50_us", "fault_p99_us",
                "oom_kills", "peak_active", "classes", "limit_refusals"):
        assert key in first


# --------------------------------------------------------------------- #
# telemetry integration                                                  #
# --------------------------------------------------------------------- #


def test_telemetry_carries_fleet_snapshot_only_when_attached():
    from repro.metrics import telemetry as tmod

    plain = _small_fleet_kernel()
    sampler = tmod.attach(plain)
    plain.run_epochs(3)
    art = sampler.telemetry()
    assert "fleet" not in art.sections
    assert "fleet" not in art.to_dict()
    tmod.detach(plain)

    kernel = _small_fleet_kernel()
    FleetManager(kernel, FleetSpec(rate_per_s=2.0, seed=1),
                 scale_factor=1 / 128)
    sampler = tmod.attach(kernel)
    kernel.run_epochs(40)
    art = sampler.telemetry()
    tmod.detach(kernel)
    assert art.sections["fleet"]["spawned"] > 0
    assert "fleet" in art.to_dict()
    scalars = art.scalar_metrics()
    assert scalars["fleet.spawned"] == art.sections["fleet"]["spawned"]
    assert any(name.startswith("fleet.web.") for name in scalars)
    # the prometheus-style families are live too.  The sampler scrapes
    # before the fleet hook runs each epoch, so the last scrape may lag
    # the final snapshot by at most that one hook's actions.
    counters = art.scrapes[-1]["counters"]["fleet_tenants_total"]
    assert 0 < counters["event=spawned"] <= art.sections["fleet"]["spawned"]
    assert counters["event=exited"] <= art.sections["fleet"]["exited"]


def test_kernel_fleet_slot_defaults_to_none():
    kernel = _small_fleet_kernel()
    assert kernel.fleet is None


# --------------------------------------------------------------------- #
# scenario integration                                                   #
# --------------------------------------------------------------------- #


def test_scenario_fleet_phase_validates_and_runs():
    from repro.scenario.executor import run_scenario_case
    from repro.scenario.schema import ScenarioError, validate_scenario

    doc = {
        "scenario": 1,
        "name": "fleet-demo",
        "policies": ["linux-4kb"],
        "machine": {"mem_gb": 8.0},
        "max_epochs": 100,
        "drain": False,
        "phases": [
            {"name": "ramp", "fleet": {"rate_per_s": 1.0, "seed": 7},
             "run_s": 30},
            {"name": "surge", "fleet": {"rate_per_s": 4.0}, "run_s": 30},
        ],
    }
    scenario = validate_scenario(doc)
    result = run_scenario_case(scenario, "timeline", "linux-4kb",
                               Scale(1 / 128))
    assert result["fleet"]["spawned"] > 0
    assert result["epochs"] == 60

    bad = dict(doc)
    bad["phases"] = [{"fleet": {"rate_per_s": 0}, "run_s": 1}]
    with pytest.raises(ScenarioError):
        validate_scenario(bad)


def test_scenario_without_fleet_has_no_fleet_key():
    from repro.scenario.executor import run_scenario_case
    from repro.scenario.schema import validate_scenario

    doc = {
        "scenario": 1,
        "name": "no-fleet",
        "policies": ["linux-4kb"],
        "machine": {"mem_gb": 8.0},
        "max_epochs": 20,
        "drain": False,
        "phases": [{"name": "idle", "run_s": 5}],
    }
    scenario = validate_scenario(doc)
    result = run_scenario_case(scenario, "timeline", "linux-4kb",
                               Scale(1 / 128))
    assert "fleet" not in result
