"""`repro list`, `repro run` and `repro compare`."""

import sys

from repro.cli import _execute, add_run_options
from repro.cli.bench import BENCHES
from repro.experiments import POLICIES
from repro.kernel import procfs
from repro.metrics.tables import format_table
from repro.workloads.catalog import WORKLOADS


def register(sub) -> None:
    """Add the ``list``, ``run`` and ``compare`` verbs."""
    list_p = sub.add_parser("list", help="list available policies and workloads")
    list_p.set_defaults(func=cmd_list)

    run_p = sub.add_parser("run", help="run one workload under one policy")
    run_p.set_defaults(func=cmd_run)
    run_p.add_argument("workload", choices=sorted(WORKLOADS))
    add_run_options(run_p)
    run_p.add_argument("--procfs", action="store_true",
                       help="print meminfo/vmstat snapshots at the end")

    cmp_p = sub.add_parser("compare", help="race one workload across policies")
    cmp_p.set_defaults(func=cmd_compare)
    cmp_p.add_argument("workload", choices=sorted(WORKLOADS))
    add_run_options(cmp_p)
    cmp_p.add_argument("--policies",
                       default="linux-4kb,linux-2mb,ingens-90,hawkeye-g",
                       help="comma-separated policy list")


def cmd_list(args) -> int:
    """`repro list`: print the policy, workload and bench registries."""
    print("\n\n".join([
        format_table(["policy"], [[name] for name in sorted(POLICIES)],
                     title="Policies"),
        format_table(["workload", "description"],
                     [[name, desc] for name, (desc, _) in sorted(WORKLOADS.items())],
                     title="Workloads"),
        format_table(["bench", "file"], sorted(BENCHES.items()),
                     title="Paper benches (repro bench <name>)"),
    ]))
    return 0


def cmd_run(args) -> int:
    """`repro run`: execute one workload under one policy; print a summary."""
    result = _execute(args.workload, args.policy, args)
    print(format_table(
        ["field", "value"],
        [
            ["workload", args.workload],
            ["policy", result["policy"]],
            ["outcome", result["outcome"]],
            ["time (simulated s)", round(result["time_s"], 1)],
            ["page faults", result["faults"]],
            ["promotions", result["promotions"]],
            ["demotions", result["demotions"]],
            ["lifetime MMU overhead", f"{result['mmu_overhead'] * 100:.2f}%"],
        ],
    ))
    if args.procfs:
        kernel = result["kernel"]
        print("\n# meminfo\n" + procfs.format_meminfo(kernel))
        print("\n# vmstat")
        for k, v in procfs.vmstat(kernel).items():
            print(f"{k} {int(v)}")
    return result["rc"]


def cmd_compare(args) -> int:
    """`repro compare`: race one workload across several policies."""
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = [_execute(args.workload, p, args) for p in policies]
    finished = [r for r in results if r["outcome"] == "completed"]
    base = finished[0]["time_s"] if finished else None
    rows = []
    for r in results:
        speedup = f"{base / r['time_s']:.3f}x" if base and r["outcome"] == "completed" else "-"
        rows.append([
            r["policy"], r["outcome"], round(r["time_s"], 1), speedup,
            r["faults"], r["promotions"],
            f"{r['mmu_overhead'] * 100:.2f}%",
        ])
    print(format_table(
        ["policy", "outcome", "time s", f"speedup vs {policies[0]}",
         "faults", "promotions", "lifetime ovh"],
        rows,
        title=f"{args.workload} on {args.mem_gb:.0f} GB (1/{args.scale} scale"
              f"{', fragmented' if args.fragment else ''})",
    ))
    return 0
