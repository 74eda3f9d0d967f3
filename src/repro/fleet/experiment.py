"""The ``fleet`` registry experiments (paper §4, Fig. 7/8 under churn).

``fleet`` sweeps arrival-rate scales across the paper's policy columns:
thousands of tenant lifetimes per cell, tens of concurrent processes, a
huge-page group cap on the sparse batch tier (HawkEye's §3.5 starvation
mitigation — silently unenforceable under Linux/Ingens, which is the
point), and the OOM killer shaving the peaks.  Each cell reports the
fairness spread and the p50/p99 of per-tenant fault latency — the
fairness/tail comparison of Fig. 7/8 restated for a churning fleet.

``fleet-smoke`` is the same body at CI size: one small arrival case,
two policies, ~100 lifetimes — enough to feed the regression gate and
the warm-cache rerun without stretching the smoke job.

Determinism: the only randomness is the manager's seeded RNG, keyed on
(case, policy) via crc32 so every cell is reproducible in any worker.
"""

from __future__ import annotations

import zlib

from repro.experiments import Scale, make_kernel
from repro.fleet.manager import AGGREGATES, FleetManager, FleetSpec
from repro.runner.registry import register
from repro.units import GB, SEC

FLEET_POLICIES = ("linux-4kb", "linux-2mb", "ingens-90", "hawkeye-g")
#: arrival-rate multipliers over the base rate: 1x is comfortable, 4x
#: oversubscribes the machine and keeps the OOM killer busy.
FLEET_CASES = ("arrival-1x", "arrival-2x", "arrival-4x")
FLEET_SMOKE_POLICIES = ("linux-2mb", "hawkeye-g")

#: tenants per simulated second at the 1x case.
BASE_RATE_PER_S = 2.0
#: simulated machine size (full scale; the sweep's Scale divides it).
FLEET_MEM_FULL = 64 * GB
#: huge pages (scaled) the sparse batch tier may hold in total.
BATCH_GROUP_CAP = 8

#: lifetimes each full-size cell must complete (acceptance floor 1000).
FLEET_LIFETIMES = 1000
SMOKE_LIFETIMES = 100


def _seed(case: str, policy: str) -> int:
    """Stable per-cell seed (hash() is salted per interpreter; crc32 isn't)."""
    return zlib.crc32(f"fleet/{case}/{policy}".encode())


def _rate_multiplier(case: str) -> float:
    name, _, mult = case.rpartition("-")
    if name != "arrival" or not mult.endswith("x"):
        raise ValueError(f"unknown fleet case {case!r}")
    return float(mult[:-1])


def drive_fleet(kernel, manager: FleetManager, target_lifetimes: int,
                max_epochs: int) -> int:
    """Run epochs until ``target_lifetimes`` tenants exited; returns epochs."""
    epochs = 0
    while manager.exited < target_lifetimes and epochs < max_epochs:
        kernel.run_epoch()
        epochs += 1
    return epochs


def fleet_result(kernel, manager: FleetManager, epochs: int) -> dict:
    """The JSON cell result: counters, fairness, per-class QoS."""
    overall = manager.qos.overall()
    limits = getattr(kernel.policy, "limits", None)
    snap = manager.snapshot()
    classes = {}
    for name, cls in snap["classes"].items():
        hist = cls["fault_us"]
        classes[name] = {
            "tenants": cls["tenants"],
            "oom_kills": cls["oom_kills"],
            "promotions": cls["promotions"],
            "mean_huge_coverage": cls["mean_huge_coverage"],
            "mean_bloat_mb": cls["mean_bloat_mb"],
            "fault_p50_us": hist.get("p50", 0.0),
            "fault_p99_us": hist.get("p99", 0.0),
        }
    return {
        "epochs": epochs,
        "t_end_s": kernel.now_us / SEC,
        **{key: snap[key] for key in AGGREGATES},
        "fault_p50_us": overall.quantile(0.50),
        "fault_p99_us": overall.quantile(0.99),
        "mean_fault_us": overall.mean_us,
        "limit_refusals": int(limits.refusals) if limits is not None else 0,
        "classes": classes,
    }


def run_churn(policy: str, scale: Scale, *, rate_per_s: float, seed: int,
              lifetimes: int, max_epochs: int, mem_bytes: float = FLEET_MEM_FULL,
              batch_cap: int = BATCH_GROUP_CAP) -> dict:
    """The :func:`fleet_result` of Poisson tenant churn on a fresh kernel;
    ``batch_cap`` caps the ``batch-*`` tier's huge pages (0: no cap)."""
    kernel = make_kernel(mem_bytes, policy, scale, boot_zeroed=True)
    spec = FleetSpec(rate_per_s=rate_per_s, seed=seed,
                     group_limits={"batch-*": batch_cap} if batch_cap else {})
    manager = FleetManager(kernel, spec, scale_factor=scale.factor)
    epochs = drive_fleet(kernel, manager, lifetimes, max_epochs)
    return fleet_result(kernel, manager, epochs)


def run_fleet(case: str, policy: str, scale: Scale) -> dict:
    """Full fleet cell: >= 1000 tenant lifetimes at one arrival scale."""
    return run_churn(policy, scale, seed=_seed(case, policy),
                     rate_per_s=BASE_RATE_PER_S * _rate_multiplier(case),
                     lifetimes=FLEET_LIFETIMES, max_epochs=8000)


def run_fleet_smoke(case: str, policy: str, scale: Scale) -> dict:
    """CI-sized fleet cell: ~100 lifetimes at the 1x arrival rate."""
    return run_churn(policy, scale, seed=_seed(case, policy),
                     rate_per_s=BASE_RATE_PER_S,
                     lifetimes=SMOKE_LIFETIMES, max_epochs=2000)


register(
    "fleet", "Fleet churn: multi-tenant fairness/tail QoS vs arrival rate",
    cases=FLEET_CASES, policies=FLEET_POLICIES, run=run_fleet,
)
register(
    "fleet-smoke", "Fleet churn smoke grid (CI: small arrival rate)",
    cases=("arrival-smoke",), policies=FLEET_SMOKE_POLICIES,
    run=run_fleet_smoke,
)
