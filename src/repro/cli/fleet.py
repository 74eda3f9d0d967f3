"""`repro fleet`: multi-tenant churn with per-class QoS reporting."""

from repro.experiments import POLICIES, Scale
from repro.units import GB


def register(sub) -> None:
    """Add the ``fleet`` verb."""
    fleet_p = sub.add_parser(
        "fleet",
        help="drive multi-tenant churn (Poisson arrivals, OOM killer) and "
             "report per-class QoS")
    fleet_p.set_defaults(func=cmd_fleet)
    fleet_p.add_argument("--policy", default="hawkeye-g",
                         choices=sorted(POLICIES))
    fleet_p.add_argument("--mem-gb", type=float, default=64.0,
                         help="machine memory in GB at full scale "
                              "(default 64)")
    fleet_p.add_argument("--scale", type=int, default=128,
                         help="linear memory scale divisor (default 128)")
    fleet_p.add_argument("--rate", type=float, default=2.0,
                         help="tenant arrival rate per simulated second "
                              "(default 2.0)")
    fleet_p.add_argument("--tenants", type=int, default=200,
                         help="tenant lifetimes to complete (default 200)")
    fleet_p.add_argument("--seed", type=int, default=0,
                         help="arrival/footprint RNG seed (default 0)")
    fleet_p.add_argument("--max-epochs", type=int, default=4000,
                         help="epoch budget (default 4000)")
    fleet_p.add_argument("--batch-cap", type=int, default=8,
                         help="huge-page group cap for the batch-* tier "
                              "(0 disables; default 8)")
    fleet_p.add_argument("--json", action="store_true",
                         help="emit the full QoS result as JSON")


def cmd_fleet(args) -> int:
    """`repro fleet`: multi-tenant churn with per-class QoS reporting.

    Drives Poisson arrivals through the kernel until ``--tenants``
    lifetimes complete, with the fleet OOM killer shaving pressure
    peaks, then prints the fairness/tail summary (or the full JSON
    result with ``--json``).  Exits 1 if the epoch budget ran out first.
    """
    import json

    from repro.fleet.experiment import run_churn

    result = run_churn(args.policy, Scale(1.0 / args.scale),
                       mem_bytes=args.mem_gb * GB, rate_per_s=args.rate,
                       seed=args.seed, batch_cap=args.batch_cap,
                       lifetimes=args.tenants, max_epochs=args.max_epochs)
    rc = 0 if result["exited"] >= args.tenants else 1
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return rc
    print(f"fleet/{args.policy}: {result['exited']} lifetimes in "
          f"{result['t_end_s']:.0f} simulated s ({result['epochs']} epochs), "
          f"peak {result['peak_active']} active")
    print(f"  oom kills {result['oom_kills']} "
          f"(protected {result['protected_kills']}), "
          f"deferred {result['deferred']}, "
          f"limit refusals {result['limit_refusals']}")
    print(f"  fault latency p50 {result['fault_p50_us']:.1f}us "
          f"p99 {result['fault_p99_us']:.1f}us, "
          f"fairness spread {result['fairness_spread']:.3f}")
    for name, cls in result["classes"].items():
        print(f"  {name:<6} tenants {cls['tenants']:<5} "
              f"oomk {cls['oom_kills']:<4} "
              f"cov {cls['mean_huge_coverage']:.2f} "
              f"bloat {cls['mean_bloat_mb']:.1f}MB "
              f"p50 {cls['fault_p50_us']:.1f}us "
              f"p99 {cls['fault_p99_us']:.1f}us")
    return rc
