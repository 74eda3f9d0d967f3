"""`repro numa`: race NUMA placement modes for one workload."""

import sys

from repro.experiments import POLICIES, Scale
from repro.metrics.tables import format_table


def register(sub) -> None:
    """Add the ``numa`` verb."""
    numa_p = sub.add_parser(
        "numa", help="race NUMA placement modes for one workload")
    numa_p.set_defaults(func=cmd_numa)
    numa_p.add_argument("--policy", default="hawkeye-g",
                        choices=sorted(POLICIES))
    numa_p.add_argument("--nodes", type=int, default=2,
                        help="NUMA nodes (default 2)")
    numa_p.add_argument("--scale", type=int, default=64,
                        help="linear memory scale divisor (default 64)")
    numa_p.add_argument("--modes", default="local,interleave,balanced,replicated",
                        help="comma-separated placement modes")


def cmd_numa(args) -> int:
    """`repro numa`: race placement modes on an asymmetric workload.

    Each mode runs the registry's ``numa`` experiment cell (the compute
    workload homed on node 0), so the table matches `repro sweep run
    numa` output for the same policy and node count.
    """
    from repro.experiments import reset_sim_state
    from repro.runner.adapters import NUMA_CASES, run_numa

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    cases = [f"{mode}-{args.nodes}" for mode in modes]
    unknown = [c for c in cases if c not in NUMA_CASES]
    if unknown:
        print(f"unknown numa cases: {', '.join(unknown)} "
              f"(have {', '.join(NUMA_CASES)})", file=sys.stderr)
        return 2
    scale = Scale(1.0 / args.scale)
    rows = []
    for mode, case in zip(modes, cases):
        reset_sim_state()
        r = run_numa(case, args.policy, scale)
        rows.append([
            mode, round(r["time_s"], 1),
            f"{r['remote_walk_share'] * 100:.1f}%",
            r["hint_faults"], r["pages_migrated"], r["huge_migrated"],
            r["pt_replica_pages"], r["promotions"],
        ])
    print(format_table(
        ["mode", "time s", "remote walk", "hint flt", "pg migr",
         "huge migr", "pt replica pg", "promotions"],
        rows,
        title=f"{args.policy} across {args.nodes} nodes (1/{args.scale} scale)",
    ))
    return 0
