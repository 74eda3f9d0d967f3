"""Command-line interface: run simulations without writing a script.

Examples::

    python -m repro list
    python -m repro run xsbench --policy hawkeye-g --fragment
    python -m repro compare cg.D --policies linux-4kb,linux-2mb,hawkeye-g
    python -m repro bench fig1
    python -m repro trace run redis-fig1 --policy hawkeye-g --summary
    python -m repro trace view trace.jsonl --kind fault --summary
    python -m repro top xsbench --interval 30
    python -m repro heat xsbench --watch 1 --epochs 12
    python -m repro heat --cache-dir .sweep-cache --process gups
    python -m repro pagemap xsbench --region 16384
    python -m repro why redis-fig1 --point promote --limit 10
    python -m repro audit xsbench --json
    python -m repro numa --policy hawkeye-g --nodes 2
    python -m repro sweep run tab1 tab8 --jobs 4
    python -m repro sweep status

``run`` executes one workload under one policy and prints a summary plus
/proc-style snapshots; ``compare`` races one workload across policies;
``bench`` shells out to the pytest benchmark that regenerates a paper
table or figure; ``trace`` records or replays the kernel tracepoint
stream (JSONL, per-subsystem attribution, latency histograms); ``top``
watches a run through periodic /proc-style snapshots; ``heat`` runs
with the DAMON-style spatial monitor attached and draws access /
utilization / bloat heatmaps, adaptive monitoring regions and WSS
percentiles — live, or aggregated from a sweep cache; ``pagemap`` /
``why`` / ``audit`` run a workload with the decision-provenance audit
attached and answer, respectively, *where is this memory and where did
it come from*, *why did the policy (not) act on this region*, and *how
did candidates funnel into actions*; ``sweep`` drives
experiment grids through the cached, fanned-out sweep runner
(``repro.runner``) with per-cell crash isolation and resume.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import OutOfMemoryError
from repro.experiments import POLICIES, Scale, fragment, make_kernel
from repro.kernel import procfs
from repro.metrics.tables import format_table
from repro.units import GB, SEC
from repro.workloads.catalog import WORKLOADS

#: bench shorthand -> pytest file.
BENCHES = {
    "fig1": "test_fig1_redis_bloat.py",
    "tab1": "test_tab1_fault_latency.py",
    "tab2": "test_tab2_tlb_sensitivity.py",
    "tab3": "test_tab3_npb_characteristics.py",
    "tab4": "test_tab4_pmu_methodology.py",
    "fig3": "test_fig3_first_nonzero.py",
    "fig4": "test_fig4_access_map.py",
    "fig5": "test_fig5_promotion_efficiency.py",
    "fig6": "test_fig6_promotion_timeline.py",
    "fig7": "test_fig7_tab5_identical_workloads.py",
    "tab5": "test_fig7_tab5_identical_workloads.py",
    "fig8": "test_fig8_heterogeneous.py",
    "fig9": "test_fig9_tab6_virtualized.py",
    "tab6": "test_fig9_tab6_virtualized.py",
    "tab7": "test_tab7_bloat_vs_performance.py",
    "tab8": "test_tab8_fast_faults.py",
    "fig10": "test_fig10_prezero_interference.py",
    "fig11": "test_fig11_overcommit.py",
    "tab9": "test_tab9_pmu_vs_g.py",
    "ablations": "test_ablation_design_choices.py",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the `repro` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HawkEye (ASPLOS'19) huge-page management simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available policies and workloads")
    list_p.set_defaults(func=cmd_list)

    def common(p):
        p.add_argument("--policy", default="hawkeye-g", choices=sorted(POLICIES))
        p.add_argument("--mem-gb", type=float, default=48.0,
                       help="full-scale machine memory (default 48)")
        p.add_argument("--scale", type=int, default=128,
                       help="linear memory scale divisor (default 128)")
        p.add_argument("--fragment", action="store_true",
                       help="fragment memory before the workload starts")
        p.add_argument("--max-epochs", type=int, default=6000)
        p.add_argument("--nodes", type=int, default=1,
                       help="NUMA nodes; memory splits into equal zones "
                            "(default 1 = UMA)")
        p.add_argument("--numa-balance", action="store_true",
                       help="enable the knumad hint-fault balancer "
                            "(multi-node only)")

    run_p = sub.add_parser("run", help="run one workload under one policy")
    run_p.set_defaults(func=cmd_run)
    run_p.add_argument("workload", choices=sorted(WORKLOADS))
    common(run_p)
    run_p.add_argument("--procfs", action="store_true",
                       help="print meminfo/vmstat snapshots at the end")

    cmp_p = sub.add_parser("compare", help="race one workload across policies")
    cmp_p.set_defaults(func=cmd_compare)
    cmp_p.add_argument("workload", choices=sorted(WORKLOADS))
    common(cmp_p)
    cmp_p.add_argument("--policies",
                       default="linux-4kb,linux-2mb,ingens-90,hawkeye-g",
                       help="comma-separated policy list")

    bench_p = sub.add_parser(
        "bench",
        help="regenerate a paper table/figure, or run a microbenchmark "
             "(touch fault throughput, epoch engine throughput)",
    )
    bench_p.set_defaults(func=cmd_bench)
    bench_p.add_argument("target", nargs="?", default="touch",
                         choices=sorted(BENCHES) + ["touch", "epoch"],
                         help="paper bench name, 'touch' (default) for the "
                              "fault-throughput microbenchmark, or 'epoch' "
                              "for the vectorized epoch-engine benchmark")
    bench_p.add_argument("--profile", action="store_true",
                         help="print a cProfile hot-path report instead of timings")
    bench_p.add_argument("--json", action="store_true",
                         help="emit the result as JSON (touch/epoch targets only)")
    bench_p.add_argument("--check", metavar="BASELINE",
                         help="compare against a baseline JSON; exit 1 on >25%% "
                              "regression of the benchmark's speedup ratio")
    bench_p.add_argument("--update-baseline", metavar="BASELINE",
                         help="write the result to a baseline JSON file "
                              "(touch/epoch targets only)")

    def trace_filters(p):
        p.add_argument("--kind", default=None,
                       help="comma-separated tracepoint names or subsystems "
                            "(e.g. fault,promote.collapse)")
        p.add_argument("--process", default=None,
                       help="only events attributed to this process name")
        p.add_argument("--since", type=float, default=None,
                       help="only events at or after this simulated second")
        p.add_argument("--until", type=float, default=None,
                       help="only events before this simulated second")
        p.add_argument("--summary", action="store_true",
                       help="print the per-subsystem time-attribution table")
        p.add_argument("--hist", action="store_true",
                       help="print log2 latency histograms per tracepoint")

    trace_p = sub.add_parser(
        "trace", help="record or replay the kernel tracepoint stream")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    trace_run_p = trace_sub.add_parser(
        "run", help="run a workload with tracing on; write a JSONL trace")
    trace_run_p.set_defaults(func=_cmd_trace_run)
    trace_run_p.add_argument("workload", choices=sorted(WORKLOADS))
    common(trace_run_p)
    trace_run_p.add_argument("--out", default="trace.jsonl",
                             help="JSONL output path (default trace.jsonl)")
    trace_run_p.add_argument("--capacity", type=int, default=None,
                             help="trace ring-buffer capacity in events")
    trace_run_p.add_argument("--heat", action="store_true",
                             help="also attach the spatial heat monitor so "
                                  "heat.* WSS counter samples land in the "
                                  "trace (Perfetto counter tracks after "
                                  "'trace export --chrome')")
    trace_filters(trace_run_p)

    trace_view_p = trace_sub.add_parser(
        "view", help="filter and summarise a recorded JSONL trace")
    trace_view_p.set_defaults(func=_cmd_trace_view)
    trace_view_p.add_argument("file", help="JSONL trace written by 'trace run'")
    trace_view_p.add_argument("--limit", type=int, default=20,
                              help="events to print (default 20; 0 = none)")
    trace_filters(trace_view_p)

    trace_export_p = trace_sub.add_parser(
        "export", help="convert a recorded JSONL trace to another format")
    trace_export_p.set_defaults(func=_cmd_trace_export)
    trace_export_p.add_argument("file", help="JSONL trace written by 'trace run'")
    trace_export_p.add_argument("--chrome", action="store_true",
                                help="emit Chrome trace-event JSON "
                                     "(chrome://tracing, ui.perfetto.dev)")
    trace_export_p.add_argument("--out", default=None,
                                help="output path (default: input with .json)")
    trace_export_p.add_argument("--kind", default=None,
                                help="comma-separated tracepoint names or "
                                     "subsystems to keep")
    trace_export_p.add_argument("--process", default=None,
                                help="only events attributed to this process")
    trace_export_p.add_argument("--since", type=float, default=None,
                                help="only events at or after this simulated second")
    trace_export_p.add_argument("--until", type=float, default=None,
                                help="only events before this simulated second")

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

    top_p = sub.add_parser(
        "top", help="run a workload printing periodic /proc-style snapshots")
    top_p.set_defaults(func=cmd_top)
    top_p.add_argument("workload", choices=sorted(WORKLOADS))
    common(top_p)
    top_p.add_argument("--interval", type=float, default=30.0,
                       help="simulated seconds between snapshots (default 30)")
    top_p.add_argument("--trace", action="store_true",
                       help="attach a tracer so the trace drop column is live")
    top_p.add_argument("--trace-capacity", type=int, default=None,
                       help="tracer ring-buffer capacity (with --trace)")
    top_p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                       help="refresh the snapshot row in place, at most once "
                            "per wall-clock SECONDS, instead of appending "
                            "one row per interval")
    top_p.add_argument("--tenants", action="store_true",
                       help="append fleet aggregate columns (tenant count, "
                            "spawn/exit rates, OOM kills); pair with "
                            "--fleet-rate to drive churn")
    top_p.add_argument("--fleet-rate", type=float, default=None,
                       metavar="PER_S",
                       help="attach a fleet manager spawning tenants at this "
                            "Poisson rate alongside the workload "
                            "(implies --tenants)")

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

    pagemap_p = sub.add_parser(
        "pagemap",
        help="run a workload, then dump its regions with frame provenance "
             "(a /proc/pid/pagemap + kpageflags + page_owner view)")
    pagemap_p.set_defaults(func=cmd_pagemap)
    pagemap_p.add_argument("workload", choices=sorted(WORKLOADS))
    common(pagemap_p)
    pagemap_p.add_argument("--region", type=int, default=None, metavar="HVPN",
                           help="expand this huge region frame by frame "
                                "instead of the per-region table")
    pagemap_p.add_argument("--limit", type=int, default=40,
                           help="rows to print (default 40; 0 = all)")

    why_p = sub.add_parser(
        "why",
        help="run a workload, then replay the recent policy decisions "
             "for its regions with the exact numbers the policy compared")
    why_p.set_defaults(func=cmd_why)
    why_p.add_argument("workload", choices=sorted(WORKLOADS))
    common(why_p)
    why_p.add_argument("--region", type=int, default=None, metavar="HVPN",
                       help="only decisions scoped to this huge region")
    why_p.add_argument("--point", default=None,
                       choices=["promote", "collapse_node", "bloat",
                                "knumad", "fault_size"],
                       help="only decisions from this decision point")
    why_p.add_argument("--limit", type=int, default=20,
                       help="decisions to print, newest first (default 20)")

    audit_p = sub.add_parser(
        "audit",
        help="decision-funnel summary (candidates → eligible → "
             "budget-passed → acted): live run, or aggregated from a "
             "sweep cache when no workload is given")
    audit_p.set_defaults(func=cmd_audit)
    audit_p.add_argument("workload", nargs="?", default=None,
                         choices=sorted(WORKLOADS))
    common(audit_p)
    audit_p.add_argument("--cache-dir", default=None,
                         help="sweep cache to aggregate captured decision "
                              "audits from (without a workload)")
    audit_p.add_argument("--json", action="store_true",
                         help="emit the funnel and rejection breakdown "
                              "as JSON")

    heat_p = sub.add_parser(
        "heat",
        help="DAMON-style spatial access heatmap: adaptive monitoring "
             "regions, per-region bloat and WSS percentiles — live run, "
             "or aggregated from a sweep cache when no workload is given")
    heat_p.set_defaults(func=cmd_heat)
    heat_p.add_argument("workload", nargs="?", default=None,
                        choices=sorted(WORKLOADS))
    common(heat_p)
    heat_p.add_argument("--process", default=None,
                        help="only this process name")
    heat_p.add_argument("--region", type=int, default=None, metavar="HVPN",
                        help="show the monitoring region covering this "
                             "huge-page number (plus its bin's time series) "
                             "instead of the full heatmap")
    heat_p.add_argument("--epochs", type=int, default=None, metavar="N",
                        help="keep only the last N sample rows")
    heat_p.add_argument("--matrix", default="heat",
                        choices=["heat", "util", "huge", "bloat"],
                        help="which spatial matrix to draw (default heat)")
    heat_p.add_argument("--bins", type=int, default=None,
                        help="spatial bins per process (default 64)")
    heat_p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                        help="repaint the heatmap in place during the run, "
                             "at most once per wall-clock SECONDS")
    heat_p.add_argument("--json", action="store_true",
                        help="emit the full monitor snapshot as JSON")
    heat_p.add_argument("--cache-dir", default=None,
                        help="sweep cache to aggregate captured heat "
                             "snapshots from (without a workload)")
    heat_p.add_argument("--svg-dir", default=None, metavar="DIR",
                        help="also write standalone SVG heatmaps (one per "
                             "process × matrix) into DIR")

    sweep_p = sub.add_parser(
        "sweep", help="run experiment grids through the cached sweep runner")
    sweep_sub = sweep_p.add_subparsers(dest="sweep_command", required=True)

    def sweep_common(p):
        p.add_argument("--cache-dir", default=None,
                       help="result cache directory (default .sweep-cache, "
                            "or $REPRO_SWEEP_CACHE)")

    sweep_run_p = sweep_sub.add_parser(
        "run", help="execute a selection of experiment cells")
    sweep_run_p.set_defaults(func=_cmd_sweep_run)
    sweep_run_p.add_argument(
        "selectors", nargs="*", default=["all"],
        help="cell selectors: all | EXP | EXP/CASE | EXP:POLICY | "
             "EXP/CASE:POLICY (default: all)")
    sweep_common(sweep_run_p)
    sweep_run_p.add_argument("--jobs", type=int, default=1,
                             help="worker processes (default 1 = in-process)")
    sweep_run_p.add_argument("--timeout", type=float, default=None,
                             help="per-cell wall-clock budget in seconds "
                                  "(default 900)")
    sweep_run_p.add_argument("--retries", type=int, default=None,
                             help="extra attempts per failed cell (default 1)")
    sweep_run_p.add_argument("--scale", type=int, default=128,
                             help="linear memory scale divisor (default 128)")
    sweep_run_p.add_argument("--force", action="store_true",
                             help="re-execute cells even when cached")
    sweep_run_p.add_argument("--resume", action="store_true",
                             help="re-run the last sweep's manifest, skipping "
                                  "completed cells (selectors are ignored)")
    sweep_run_p.add_argument("--json", action="store_true",
                             help="emit per-cell records as JSON Lines instead "
                                  "of the table")
    sweep_run_p.add_argument("--csv", metavar="PATH", default=None,
                             help="also write per-cell records as CSV to PATH")
    sweep_run_p.add_argument("--require-cached", action="store_true",
                             help="exit 1 if any cell actually executed "
                                  "(CI warm-cache check)")
    sweep_run_p.add_argument("--scenario", action="append", metavar="FILE",
                             default=None,
                             help="register a scenario file as an experiment "
                                  "before selecting cells (repeatable); with "
                                  "no explicit selectors, only the scenario "
                                  "cells run")

    sweep_status_p = sweep_sub.add_parser(
        "status", help="show the last sweep's manifest and cache contents")
    sweep_status_p.set_defaults(func=_cmd_sweep_status)
    sweep_common(sweep_status_p)

    sweep_clean_p = sweep_sub.add_parser(
        "clean", help="delete cached results and the sweep manifest")
    sweep_clean_p.set_defaults(func=_cmd_sweep_clean)
    sweep_common(sweep_clean_p)

    scenario_p = sub.add_parser(
        "scenario",
        help="validate, list or run declarative scenario files")
    scenario_sub = scenario_p.add_subparsers(dest="scenario_command",
                                             required=True)

    scenario_run_p = scenario_sub.add_parser(
        "run", help="execute scenario files through the cached sweep runner")
    scenario_run_p.set_defaults(func=_cmd_scenario_run)
    scenario_run_p.add_argument("files", nargs="+", metavar="FILE",
                                help="scenario files (.yaml/.yml/.json)")
    sweep_common(scenario_run_p)
    scenario_run_p.add_argument("--jobs", type=int, default=1,
                                help="worker processes (default 1)")
    scenario_run_p.add_argument("--timeout", type=float, default=None,
                                help="per-cell wall-clock budget in seconds "
                                     "(default 900)")
    scenario_run_p.add_argument("--retries", type=int, default=None,
                                help="extra attempts per failed cell "
                                     "(default 1)")
    scenario_run_p.add_argument("--scale", type=int, default=128,
                                help="linear memory scale divisor "
                                     "(default 128)")
    scenario_run_p.add_argument("--force", action="store_true",
                                help="re-execute cells even when cached")
    scenario_run_p.add_argument("--json", action="store_true",
                                help="emit per-cell records as JSON Lines")
    scenario_run_p.add_argument("--csv", metavar="PATH", default=None,
                                help="also write per-cell records as CSV")
    scenario_run_p.add_argument("--require-cached", action="store_true",
                                help="exit 1 if any cell actually executed")

    scenario_validate_p = scenario_sub.add_parser(
        "validate", help="check scenario files against the schema")
    scenario_validate_p.set_defaults(func=_cmd_scenario_validate)
    scenario_validate_p.add_argument("files", nargs="+", metavar="FILE")

    scenario_list_p = scenario_sub.add_parser(
        "list", help="list the scenarios in a directory")
    scenario_list_p.set_defaults(func=_cmd_scenario_list)
    scenario_list_p.add_argument("--dir", default="examples/scenarios",
                                 help="directory to scan "
                                      "(default examples/scenarios)")

    report_p = sub.add_parser(
        "report", help="render or regression-check a sweep cache")
    report_sub = report_p.add_subparsers(dest="report_command", required=True)

    report_html_p = report_sub.add_parser(
        "html", help="write a self-contained HTML dashboard from the cache")
    report_html_p.set_defaults(func=_cmd_report_html)
    sweep_common(report_html_p)
    report_html_p.add_argument("--out", default="report.html",
                               help="output path (default report.html)")
    report_html_p.add_argument("--title", default="HawkEye repro — run report",
                               help="dashboard title")

    report_regress_p = report_sub.add_parser(
        "regress",
        help="compare the cache against a baseline; exit 1 on regression")
    report_regress_p.set_defaults(func=_cmd_report_regress)
    report_regress_p.add_argument(
        "baseline", help="baseline JSON (see benchmarks/baselines/)")
    sweep_common(report_regress_p)
    report_regress_p.add_argument("--warn", type=float, default=None,
                                  help="warn band as a relative delta "
                                       "(default: the baseline's, else 0.01)")
    report_regress_p.add_argument("--fail", type=float, default=None,
                                  help="fail band as a relative delta "
                                       "(default: the baseline's, else 0.05)")
    report_regress_p.add_argument("--bless", action="store_true",
                                  help="write the cache's current metrics to "
                                       "BASELINE instead of comparing")
    report_regress_p.add_argument("--note", default="",
                                  help="free-form note stored when blessing")
    report_regress_p.add_argument("--verbose", action="store_true",
                                  help="print every metric delta, not just "
                                       "the flagged ones")

    return parser


def _execute(workload_name: str, policy: str, args, setup=None) -> dict:
    scale = Scale(1.0 / args.scale)
    kernel = make_kernel(
        args.mem_gb * GB, policy, scale,
        numa_nodes=getattr(args, "nodes", 1),
        numa_balance=getattr(args, "numa_balance", False),
    )
    if args.fragment:
        fragment(kernel)
    if setup is not None:
        setup(kernel)
    _, factory = WORKLOADS[workload_name]
    run = kernel.spawn(factory(scale.factor))
    outcome = "completed"
    try:
        kernel.run(max_epochs=args.max_epochs)
    except OutOfMemoryError:
        outcome = "OOM"
    if not run.finished and outcome == "completed":
        outcome = f"timeout after {args.max_epochs} epochs"
    proc = run.proc
    return {
        "kernel": kernel,
        "run": run,
        "policy": policy,
        "outcome": outcome,
        "time_s": run.elapsed_us / SEC,
        "faults": proc.stats.faults,
        "promotions": proc.stats.promotions,
        "demotions": proc.stats.demotions,
        "mmu_overhead": kernel.pmu[proc.pid].read_overhead(),
    }


def cmd_list(args) -> int:
    """`repro list`: print the policy, workload and bench registries."""
    print(format_table(
        ["policy"], [[name] for name in sorted(POLICIES)],
        title="Policies",
    ))
    print()
    print(format_table(
        ["workload", "description"],
        [[name, desc] for name, (desc, _) in sorted(WORKLOADS.items())],
        title="Workloads",
    ))
    print()
    print(format_table(
        ["bench", "file"],
        [[k, v] for k, v in sorted(BENCHES.items())],
        title="Paper benches (repro bench <name>)",
    ))
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
    return 0 if result["outcome"] == "completed" else 1


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


def cmd_bench(args) -> int:
    """`repro bench`: paper benches via pytest, or the touch microbenchmark."""
    import subprocess
    from pathlib import Path

    if args.target in ("touch", "epoch"):
        return _cmd_bench_micro(args)

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    target = bench_dir / BENCHES[args.target]
    if args.profile:
        from repro import perf

        # pytest-benchmark's timed block cannot be profiled (it installs
        # its own sys profiler hook), so profile the experiment function.
        import importlib.util

        spec = importlib.util.spec_from_file_location(target.stem, target)
        module = importlib.util.module_from_spec(spec)
        sys.path.insert(0, str(bench_dir))
        try:
            spec.loader.exec_module(module)
            run = getattr(module, "run_policy", None) or getattr(module, "run_config", None)
            if run is None:
                print(f"{target.name} exposes no run_policy/run_config to profile",
                      file=sys.stderr)
                return 2
            import inspect

            fill = {"policy": "hawkeye-g", "label": "profile", "scale": Scale(1 / 128)}
            kwargs = {
                name: fill[name]
                for name in inspect.signature(run).parameters
                if name in fill
            }
            print(perf.profile_target(lambda: run(**kwargs), args.target))
        finally:
            sys.path.remove(str(bench_dir))
        return 0
    return subprocess.call([
        sys.executable, "-m", "pytest", str(target),
        "--benchmark-only", "-q", "-s",
    ])


def _cmd_bench_micro(args) -> int:
    """The touch/epoch microbenchmarks with baseline check support."""
    import json

    from repro import perf

    if args.check:
        import os

        if not os.path.exists(args.check):
            print(f"baseline file not found: {args.check}", file=sys.stderr)
            return 2
    if args.profile:
        print(perf.profile(args.target))
        return 0
    result = perf.benchmark(args.target)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(perf.format_report(result))
    if args.update_baseline:
        with open(args.update_baseline, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"baseline written to {args.update_baseline}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = perf.check(result, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        # Keep stdout valid JSON under --json: status goes to stderr.
        print(f"within tolerance of {args.check} "
              f"(baseline speedup {baseline['speedup']:.2f}x)",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def _trace_kinds(args) -> list[str] | None:
    """Parse the --kind filter into a list of names/subsystems."""
    if not args.kind:
        return None
    return [k.strip() for k in args.kind.split(",") if k.strip()]


def _event_histograms(events):
    """Per-kind log2 latency histograms rebuilt from an event stream."""
    from repro import trace

    by_kind: dict = {}
    for e in events:
        if e.span_us > 0.0:
            by_kind.setdefault(e.kind, trace.LatencyHistogram()).add(e.span_us)
    return by_kind


def _print_trace_reports(events, args, exact_attribution=None,
                         exact_histograms=None) -> None:
    """Shared --summary/--hist rendering for trace run/view.

    The --summary percentile rows are interpolated from the log2
    buckets: the estimate lands in the true quantile's bucket, so it is
    within 2x of the true latency (see LatencyHistogram.quantile).
    """
    from repro import trace

    if args.summary:
        table = exact_attribution if exact_attribution is not None else trace.attribution(events)
        print(trace.format_attribution(table))
        hists = exact_histograms if exact_histograms is not None \
            else _event_histograms(events)
        if hists:
            rows = []
            for kind in sorted(hists, key=lambda k: k.value):
                p = hists[kind].percentiles()
                rows.append((kind.value, hists[kind].count,
                             round(p["p50"], 1), round(p["p95"], 1),
                             round(p["p99"], 1)))
            print(format_table(
                ["kind", "n", "p50_us", "p95_us", "p99_us"], rows,
                title="latency percentiles "
                      "(log2-bucket interpolation, within 2x):"))
    if args.hist:
        by_kind = _event_histograms(events)
        for kind in sorted(by_kind, key=lambda k: k.value):
            print(trace.format_histogram(by_kind[kind], kind.value))


def _cmd_trace_run(args) -> int:
    """`repro trace run`: record a traced run and write a JSONL trace."""
    from repro import trace
    from repro.metrics.export import trace_to_jsonl

    tracer_box: list[trace.Tracer] = []

    def setup(kernel):
        capacity = args.capacity if args.capacity else trace.DEFAULT_CAPACITY
        tracer_box.append(trace.attach(kernel, capacity))
        if args.heat:
            from repro import heat

            heat.attach(kernel)

    result = _execute(args.workload, args.policy, args, setup=setup)
    tracer = tracer_box[0]
    kinds = _trace_kinds(args)
    filtered = tracer.filter(kinds, args.process, args.since, args.until)
    with open(args.out, "w") as fh:
        fh.write(trace_to_jsonl(filtered))
    unfiltered = kinds is None and args.process is None \
        and args.since is None and args.until is None
    print(f"{args.workload}/{args.policy}: {result['outcome']}, "
          f"{result['time_s']:.1f} simulated s")
    print(f"{sum(tracer.counts.values())} events emitted "
          f"({tracer.dropped} dropped by the ring buffer); "
          f"{len(filtered)} written to {args.out}")
    # With no filters the tracer's incremental counters give the exact
    # attribution even when the ring buffer dropped events.
    _print_trace_reports(
        filtered, args,
        exact_attribution=tracer.attribution() if unfiltered else None,
        exact_histograms=tracer.histograms if unfiltered else None,
    )
    return 0 if result["outcome"] == "completed" else 1


def _cmd_trace_view(args) -> int:
    """`repro trace view`: filter and summarise a recorded JSONL trace."""
    import os

    from repro import trace
    from repro.metrics.export import trace_from_jsonl

    if not os.path.exists(args.file):
        print(f"trace file not found: {args.file}", file=sys.stderr)
        return 2
    with open(args.file) as fh:
        events = trace_from_jsonl(fh.read())
    filtered = trace.filter_events(
        events, _trace_kinds(args), args.process, args.since, args.until)
    print(f"{len(filtered)} events (of {len(events)} in {args.file})")
    for e in filtered[: args.limit]:
        print(e)
    if args.limit and len(filtered) > args.limit:
        print(f"... {len(filtered) - args.limit} more "
              f"(raise --limit to see them)")
    _print_trace_reports(filtered, args)
    return 0


def _cmd_trace_export(args) -> int:
    """`repro trace export`: convert a JSONL trace to Chrome trace JSON."""
    import os

    from repro import trace
    from repro.metrics.export import trace_from_jsonl, trace_to_chrome

    if not args.chrome:
        print("choose an export format: --chrome", file=sys.stderr)
        return 2
    if not os.path.exists(args.file):
        print(f"trace file not found: {args.file}", file=sys.stderr)
        return 2
    with open(args.file) as fh:
        events = trace_from_jsonl(fh.read())
    filtered = trace.filter_events(
        events, _trace_kinds(args), args.process, args.since, args.until)
    out = args.out or (os.path.splitext(args.file)[0] + ".chrome.json")
    with open(out, "w") as fh:
        fh.write(trace_to_chrome(filtered))
    print(f"{len(filtered)} events (of {len(events)} in {args.file}) "
          f"written to {out}; open in chrome://tracing or ui.perfetto.dev")
    return 0


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


#: columns of the `repro top` display, in print order.  ``trdrop/s`` is
#: the tracer ring-buffer drop rate — "-" with no tracer attached, 0
#: for a lossless trace, nonzero when the recorded trace is lossy.
TOP_COLUMNS = [
    "t_s", "free_mb", "alloc_%", "thp_mb", "fmfi",
    "pgfault/s", "promo/s", "split/s", "swap/s", "trdrop/s",
]


def cmd_top(args) -> int:
    """`repro top`: run a workload printing periodic snapshot rows.

    Each row is a /proc-style sample: meminfo gauges plus vmstat counter
    *rates* over the interval — like watching ``vmstat <interval>`` on
    the machine while the experiment runs.  With ``--watch SECONDS`` the
    latest row repaints in place (ANSI cursor-up), throttled to one
    repaint per wall-clock SECONDS — a one-line live dashboard instead
    of a scrolling log.
    """
    import time

    from repro.metrics.tables import ColumnStream, InPlacePainter

    columns = list(TOP_COLUMNS)
    nodes = getattr(args, "nodes", 1)
    if nodes > 1:
        # per-node placement columns, fed by procfs.numastat; single-node
        # output stays byte-identical (no extra columns, no numastat call).
        for n in range(nodes):
            columns += [f"n{n}_free", f"n{n}_alloc"]
        columns.append("numamig/s")
    fleet_rate = getattr(args, "fleet_rate", None)
    tenants = getattr(args, "tenants", False) or fleet_rate is not None
    if tenants:
        # fleet aggregate columns; without --tenants/--fleet-rate the
        # default output stays byte-identical (no extra columns).
        columns += ["tenants", "spawn/s", "exit/s", "oomk"]
    stream = ColumnStream(columns)
    print(stream.header())
    state = {"last_t": 0.0, "last_vmstat": None, "last_numastat": None,
             "last_fleet": None, "last_wall": 0.0}
    painter = InPlacePainter()
    watch = getattr(args, "watch", None)

    def snapshot(kernel):
        t_s = kernel.now_us / SEC
        if state["last_vmstat"] is not None and t_s - state["last_t"] < args.interval:
            return
        vm = procfs.vmstat(kernel)
        prev = state["last_vmstat"]
        dt = t_s - state["last_t"]
        if prev is None or dt <= 0:
            rates = {k: 0.0 for k in vm}
        else:
            rates = {k: (vm[k] - prev[k]) / dt for k in vm}
        mem = procfs.meminfo(kernel)
        row = [
            f"{t_s:.0f}",
            f"{mem['MemFree'] // 1024}",
            f"{100.0 * mem['MemAllocated'] / mem['MemTotal']:.1f}",
            f"{mem['AnonHugePages'] // 1024}",
            f"{kernel.fmfi():.2f}",
            f"{rates['pgfault']:.0f}",
            f"{rates['thp_collapse_alloc'] + rates['thp_promote_inplace']:.1f}",
            f"{rates['thp_split']:.1f}",
            f"{rates['pswpout'] + rates['pswpin']:.1f}",
            "-" if not vm["trace_attached"] else f"{rates['trace_dropped']:.0f}",
        ]
        if nodes > 1:
            ns = procfs.numastat(kernel)
            prev_ns = state["last_numastat"]
            for n in range(nodes):
                # pages -> MB at 4 KiB pages: 256 pages per MB.
                row.append(f"{ns[f'node{n}_free_pages'] // 256}")
                row.append(f"{ns[f'node{n}_allocated_pages'] // 256}")
            migrated = ns["numa_pages_migrated"] + 512 * ns["numa_huge_migrated"]
            if prev_ns is None or dt <= 0:
                row.append("0")
            else:
                prev_migrated = (prev_ns["numa_pages_migrated"]
                                 + 512 * prev_ns["numa_huge_migrated"])
                row.append(f"{(migrated - prev_migrated) / dt:.0f}")
            state["last_numastat"] = ns
        if tenants:
            fleet = kernel.fleet
            spawned = fleet.spawned if fleet is not None else 0
            exited = fleet.exited if fleet is not None else 0
            prev_fl = state["last_fleet"]
            if prev_fl is None or dt <= 0:
                spawn_rate = exit_rate = 0.0
            else:
                spawn_rate = (spawned - prev_fl[0]) / dt
                exit_rate = (exited - prev_fl[1]) / dt
            row += [
                f"{fleet.active if fleet is not None else 0}",
                f"{spawn_rate:.1f}",
                f"{exit_rate:.1f}",
                f"{fleet.oom_kills if fleet is not None else 0}",
            ]
            state["last_fleet"] = (spawned, exited)
        line = stream.row(row)
        if watch is None:
            print(line)
        else:
            wall = time.monotonic()
            if not painter.drawn or wall - state["last_wall"] >= watch:
                painter.paint(line)
                state["last_wall"] = wall
        state["last_t"] = t_s
        state["last_vmstat"] = vm

    def setup(kernel):
        if args.trace:
            from repro import trace

            capacity = args.trace_capacity or trace.DEFAULT_CAPACITY
            # drops are surfaced in the trdrop/s column; the one-shot
            # RuntimeWarning would just interleave with the table.
            trace.attach(kernel, capacity, warn_on_drop=False)
        if fleet_rate is not None:
            from repro.fleet import FleetManager, FleetSpec

            FleetManager(kernel, FleetSpec(rate_per_s=fleet_rate),
                         scale_factor=1.0 / args.scale)
        kernel.epoch_hooks.append(snapshot)

    try:
        result = _execute(args.workload, args.policy, args, setup=setup)
    finally:
        # Ctrl-C can land between the clear sequence and the rewrite,
        # leaving the cursor on a blanked row; make sure the terminal
        # is handed back on a fresh line either way.
        if watch is not None:
            painter.finish()
    print(f"{args.workload}/{args.policy}: {result['outcome']}, "
          f"{result['time_s']:.1f} simulated s, {result['faults']} faults, "
          f"{result['promotions']} promotions")
    return 0 if result["outcome"] == "completed" else 1


def cmd_fleet(args) -> int:
    """`repro fleet`: multi-tenant churn with per-class QoS reporting.

    Drives Poisson arrivals through the kernel until ``--tenants``
    lifetimes complete, with the fleet OOM killer shaving pressure
    peaks, then prints the fairness/tail summary (or the full JSON
    result with ``--json``).
    """
    import json

    from repro.fleet import FleetManager, FleetSpec
    from repro.fleet.experiment import drive_fleet, fleet_result

    scale = Scale(1.0 / args.scale)
    kernel = make_kernel(args.mem_gb * GB, args.policy, scale,
                         boot_zeroed=True)
    group_limits = {"batch-*": args.batch_cap} if args.batch_cap else {}
    spec = FleetSpec(rate_per_s=args.rate, seed=args.seed,
                     group_limits=group_limits)
    manager = FleetManager(kernel, spec, scale_factor=scale.factor)
    epochs = drive_fleet(kernel, manager, args.tenants, args.max_epochs)
    result = fleet_result(kernel, manager, epochs)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0 if result["exited"] >= args.tenants else 1
    print(f"fleet/{args.policy}: {result['exited']} lifetimes in "
          f"{result['t_end_s']:.0f} simulated s ({epochs} epochs), "
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
    return 0 if result["exited"] >= args.tenants else 1


def _attach_audit(args):
    """Shared setup for pagemap/why/audit: run with the audit attached."""
    from repro import audit

    log_box: list = []

    def setup(kernel):
        log_box.append(audit.attach(kernel))

    result = _execute(args.workload, args.policy, args, setup=setup)
    return result, log_box[0]


def cmd_pagemap(args) -> int:
    """`repro pagemap`: region/frame dump with flags and provenance.

    The per-region table is the /proc/pid/pagemap view (what maps
    where); ``--region`` expands one huge region frame by frame with
    kpageflags-style flag letters and the page_owner-style provenance
    columns (allocation site/pid/epoch, last lifecycle event).
    """
    from repro.units import PAGES_PER_HUGE
    from repro.vm.page_table import ACCESSED, DIRTY, SHARED_COW, SHARED_ZERO

    result, log = _attach_audit(args)
    kernel, proc = result["kernel"], result["run"].proc
    ledger = log.ledger
    numa = kernel.numa
    node_of = (numa.allocator.node_map.node_of
               if numa is not None else (lambda _f: 0))
    pt = proc.page_table

    def prov(frame):
        d = ledger.describe(frame)
        if not d["events"]:
            return d, "-"
        name, epoch, _arg = d["events"][-1]
        return d, f"{name}@{epoch}"

    status = 0 if result["outcome"] == "completed" else 1
    if args.region is not None:
        hvpn = args.region
        huge = pt.region_huge(hvpn)
        rows = []
        for vpn in range(hvpn * PAGES_PER_HUGE, (hvpn + 1) * PAGES_PER_HUGE):
            if huge:
                frame = int(pt.hframe[hvpn]) + (vpn - hvpn * PAGES_PER_HUGE)
                bits = int(pt.hflags[hvpn])
                flags = ("HA" if bits & ACCESSED else "H-") \
                    + ("D" if bits & DIRTY else "-")
            else:
                if not pt.base_mapped(vpn):
                    continue
                frame, bits = int(pt.frame[vpn]), int(pt.flags[vpn])
                flags = ("-" + ("A" if bits & ACCESSED else "-")
                         + ("D" if bits & DIRTY else "-")
                         + ("Z" if bits & SHARED_ZERO else "")
                         + ("C" if bits & SHARED_COW else ""))
            d, last = prov(frame)
            rows.append([vpn, frame, flags, node_of(frame),
                         "yes" if d["live"] else "no", d["site"],
                         d["pid"], d["epoch"], last])
        shown = rows[: args.limit] if args.limit else rows
        print(format_table(
            ["vpn", "frame", "flags", "node", "live", "site",
             "alloc pid", "alloc epoch", "last event"],
            shown,
            title=f"{args.workload} pid {proc.pid} region {args.region} "
                  f"(flags: Huge/Accessed/Dirty, Zero-shared, Cow-shared)",
        ))
        if args.limit and len(rows) > len(shown):
            print(f"... {len(rows) - len(shown)} more mapped pages "
                  f"(raise --limit)")
        return status

    rows = []
    table = proc.regions
    for hvpn, slot in sorted(table.slot_of.items()):
        if pt.region_huge(hvpn):
            frame, mapping = int(pt.hframe[hvpn]), "huge"
        else:
            frames, _ = pt.region_mirror(hvpn)
            mapped = frames[frames >= 0]
            frame, mapping = (int(mapped[0]) if mapped.size else -1), "base"
        if frame < 0:
            continue
        d, last = prov(frame)
        rows.append([hvpn, mapping, pt.region_resident(hvpn),
                     f"{table.coverage_ema.item(slot):.1f}", frame,
                     node_of(frame), d["site"], d["pid"], d["epoch"], last])
    shown = rows[: args.limit] if args.limit else rows
    print(format_table(
        ["region", "map", "resident", "ema", "head frame", "node", "site",
         "alloc pid", "alloc epoch", "last event"],
        shown,
        title=f"{args.workload}/{args.policy} pid {proc.pid}: "
              f"{len(rows)} populated regions "
              f"(provenance of each region's head frame)",
    ))
    if args.limit and len(rows) > len(shown):
        print(f"... {len(rows) - len(shown)} more regions "
              f"(raise --limit, or --region HVPN to zoom in)")
    return status


def cmd_why(args) -> int:
    """`repro why`: replay recent policy decisions with their inputs.

    Prints the newest :class:`~repro.audit.DecisionRecord`\\ s affecting
    the workload's process — each line carries the exact numbers the
    policy compared (coverage EMA, thresholds, budget left, …), so "why
    was this region never promoted" is answerable after the fact.
    Kernel-thread decisions (pid -1, e.g. a budget denial that stopped
    a whole scan) are included: they affect every process.
    """
    result, log = _attach_audit(args)
    proc = result["run"].proc
    records = [
        rec for rec in log.decisions_for(hvpn=args.region, point=args.point)
        if rec.pid == proc.pid or rec.pid < 0
    ]
    shown = records[: args.limit] if args.limit else records
    scope = "".join([
        f" region={args.region}" if args.region is not None else "",
        f" point={args.point}" if args.point else "",
    ])
    print(f"{len(records)} replayable decisions for pid {proc.pid}{scope} "
          f"({log.recorded} recorded, {log.dropped} aged out of the "
          f"{log.capacity}-record ring); newest first:")
    for rec in shown:
        print(rec)
    if len(records) > len(shown):
        print(f"... {len(records) - len(shown)} more (raise --limit)")
    if not records:
        print("  (none matched — the policy never weighed this scope; "
              "run `repro audit` for the full funnel)")
    return 0 if result["outcome"] == "completed" else 1


def cmd_audit(args) -> int:
    """`repro audit`: the decision funnel, live or from a sweep cache."""
    import json

    from repro import audit

    if args.workload is None:
        return _cmd_audit_cache(args)
    result, log = _attach_audit(args)
    doc = {
        "workload": args.workload,
        "policy": args.policy,
        "outcome": result["outcome"],
        **log.summary(),
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(audit.format_funnel(
            doc, title=f"decision funnel: {args.workload}/{args.policy} "
                       f"({log.recorded} decisions)"))
    return 0 if result["outcome"] == "completed" else 1


def _cmd_audit_cache(args) -> int:
    """Aggregate captured decision audits across a sweep cache."""
    import json

    from repro import audit
    from repro.report.data import cell_sections, latest_envelopes

    cache, _ = _sweep_paths(args)
    sections = cell_sections(latest_envelopes(cache), audit.SECTION)
    cells = dict(sections)
    total = audit.merge(sec for _, sec in sections)
    if args.json:
        print(json.dumps({"cells": cells, "total": total},
                         indent=2, sort_keys=True))
        return 0
    if not cells:
        print(f"no captured decision audits in {cache.root} "
              f"(cells cached before the audit layer, or audit disabled)")
        return 0
    print(audit.format_funnel(
        total, title=f"decision funnel: {len(cells)} cells in {cache.root}"))
    return 0


def _write_heat_svgs(snapshots: dict[str, dict], svg_dir: str) -> None:
    """Write every labelled heat snapshot's SVG panels; report the count."""
    from repro.report.html import write_heat_svgs

    written = sum(len(write_heat_svgs(snap, svg_dir, label=label))
                  for label, snap in snapshots.items())
    print(f"{written} SVG heatmap(s) written to {svg_dir}", file=sys.stderr)


def _print_heat_proc(proc_snap: dict, args) -> None:
    """One process's heat view: heatmap + regions + WSS, or one region."""
    from repro import heat

    if args.region is not None:
        lo, hi = proc_snap.get("span", (0, 0))
        region = next((r for r in proc_snap.get("regions") or []
                       if r["start"] <= args.region < r["end"]), None)
        if region is None:
            print(f"hvpn {args.region} is outside "
                  f"{proc_snap.get('process')}'s monitored span [{lo},{hi})")
            return
        print(format_table(
            ["span_hvpn", "width", "sample", "ema", "density", "age"],
            [[f"[{region['start']},{region['end']})",
              region["end"] - region["start"], region["sample"],
              region["ema"], region["density"], region["age"]]],
            title=f"monitoring region covering hvpn {args.region} — "
                  f"{proc_snap.get('process')}"))
        nb = proc_snap.get("bins") or 1
        if hi > lo:
            col = min(nb - 1, (args.region - lo) * nb // (hi - lo))
            rows = [[t, row[col]] for t, row in
                    zip(proc_snap.get("t_s") or [],
                        proc_snap.get(args.matrix) or [])
                    if col < len(row)]
            if args.epochs is not None:
                rows = rows[-args.epochs:]
            print(format_table(["t_s", args.matrix], rows,
                               title=f"bin {col} ({args.matrix}) over time"))
        return
    print(heat.format_heatmap(proc_snap, epochs=args.epochs,
                              matrix=args.matrix))
    print()
    print(heat.format_regions(proc_snap))
    print()
    print(heat.format_wss(proc_snap))


def cmd_heat(args) -> int:
    """`repro heat`: spatial access heatmap, live or from a sweep cache."""
    import json

    from repro import heat
    from repro.metrics.tables import InPlacePainter

    if args.workload is None:
        return _cmd_heat_cache(args)
    monitor_box: list = []
    painter = InPlacePainter()
    state = {"last_wall": 0.0, "last_samples": 0}

    def repaint(kernel):
        import time

        monitor = monitor_box[0]
        # only redraw when a new access-bit sample was folded, throttled
        # to one repaint per --watch wall-clock seconds.
        if monitor.samples == state["last_samples"]:
            return
        wall = time.monotonic()
        if painter.drawn and wall - state["last_wall"] < args.watch:
            return
        state["last_samples"] = monitor.samples
        state["last_wall"] = wall
        blocks = []
        for pid in sorted(monitor.owners):
            snap = monitor.process_snapshot(pid)
            if args.process and snap["process"] != args.process:
                continue
            blocks.append(heat.format_heatmap(
                snap, epochs=args.epochs or 12, matrix=args.matrix))
        if blocks:
            painter.paint("\n\n".join(blocks))

    def setup(kernel):
        config = {}
        if args.bins:
            config["nbins"] = args.bins
        monitor_box.append(heat.attach(kernel, **config))
        if args.watch is not None:
            kernel.epoch_hooks.append(repaint)

    try:
        result = _execute(args.workload, args.policy, args, setup=setup)
    finally:
        if args.watch is not None:
            painter.finish()
    snapshot = monitor_box[0].snapshot()
    procs = snapshot["processes"]
    if args.process:
        procs = [p for p in procs if p.get("process") == args.process]
        if not procs:
            print(f"no monitored process named {args.process!r}",
                  file=sys.stderr)
            return 2
    if args.svg_dir:
        _write_heat_svgs({f"{args.workload}-{args.policy}":
                          {"processes": procs}}, args.svg_dir)
    if args.json:
        print(json.dumps(
            {"workload": args.workload, "policy": args.policy,
             "outcome": result["outcome"], "samples": snapshot["samples"],
             "processes": procs}, indent=2))
        return 0 if result["outcome"] == "completed" else 1
    for i, proc_snap in enumerate(procs):
        if i:
            print()
        _print_heat_proc(proc_snap, args)
    print(f"\n{args.workload}/{args.policy}: {result['outcome']}, "
          f"{snapshot['samples']} access-bit samples folded")
    return 0 if result["outcome"] == "completed" else 1


def _cmd_heat_cache(args) -> int:
    """Aggregate captured heat snapshots across a sweep cache."""
    import json

    from repro import heat
    from repro.report.data import cell_sections, latest_envelopes

    cache, _ = _sweep_paths(args)
    cells = {cell_id: snap for cell_id, snap in
             cell_sections(latest_envelopes(cache), heat.SECTION)
             if snap.get("processes")}
    if args.json:
        print(json.dumps({"cells": cells}, indent=2, sort_keys=True))
        return 0
    if not cells:
        print(f"no captured heat snapshots in {cache.root} "
              f"(cells cached before the heat layer)")
        return 0
    if args.svg_dir:
        _write_heat_svgs(cells, args.svg_dir)
    rows = [[cell_id, *row] for cell_id, snap in cells.items()
            for row in heat.rows(snap)
            if not args.process or row[0] == args.process]
    print(format_table(
        ["cell", "process", "samples", "regions", "hot",
         "wss_p50", "wss_p95", "wss_p99"],
        rows, title=f"heat: {len(cells)} cells in {cache.root}"))
    if args.process:
        # with a process filter the cache view also renders the full
        # per-cell heatmaps, same layout as a live run.
        for cell_id, snap in cells.items():
            for proc in snap["processes"]:
                if proc.get("process") == args.process:
                    print(f"\n[{cell_id}]")
                    _print_heat_proc(proc, args)
    return 0


def _sweep_paths(args):
    """Resolve (cache, manifest path) from --cache-dir/$REPRO_SWEEP_CACHE."""
    from pathlib import Path

    from repro.runner import ResultCache, default_cache_dir

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    return ResultCache(root), root / "manifest.json"


def _drive_cells(args, cells, cache, manifest) -> tuple[int, object]:
    """Shared sweep/scenario drive loop: run, print, export.

    Returns ``(exit_code, SweepReport)``; the exit code covers cache
    and outcome health, callers may tighten it further (scenario
    assertions).
    """
    from repro import runner
    from repro.metrics.export import cells_to_csv, cells_to_jsonl
    from repro.runner import run_sweep

    def progress(outcome):
        line = f"  [{outcome.status:>7s}] {outcome.cell.cell_id}"
        if outcome.status != "cached":
            line += f"  ({outcome.wall_s:.1f}s, attempt {outcome.attempts})"
        print(line, file=sys.stderr)

    report = run_sweep(
        cells,
        jobs=args.jobs,
        timeout_s=args.timeout if args.timeout is not None
        else runner.DEFAULT_TIMEOUT_S,
        retries=args.retries if args.retries is not None
        else runner.DEFAULT_RETRIES,
        cache=cache,
        manifest=manifest,
        force=args.force,
        progress=progress,
    )

    records = [o.as_record() for o in report.outcomes]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(cells_to_csv(records))
        print(f"per-cell CSV written to {args.csv}", file=sys.stderr)
    if args.json:
        print(cells_to_jsonl(records), end="")
    else:
        rows = [
            [o.cell.cell_id, o.status, o.attempts, round(o.wall_s, 2),
             (o.error or "").splitlines()[-1][:48] if o.error else ""]
            for o in report.outcomes
        ]
        print(format_table(
            ["cell", "status", "attempts", "wall s", "error"], rows,
            title=f"sweep: {len(cells)} cells, jobs={args.jobs}",
        ))
    counts = report.counts()
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"{summary}; executed {report.executed}, "
          f"{report.wall_s:.1f}s wall; cache {cache.root}", file=sys.stderr)
    if args.require_cached and report.executed:
        print(f"--require-cached: {report.executed} cells executed "
              f"(expected 100% cache hits)", file=sys.stderr)
        return 1, report
    return (0 if report.ok else 1), report


def _register_scenario_files(paths) -> list[str]:
    """Register scenario files; returns their experiment names.

    Raises :class:`repro.scenario.ScenarioError` on an invalid file.
    """
    from repro.scenario import register_scenario_file

    return [register_scenario_file(path).name for path in paths]


def _cmd_sweep_run(args) -> int:
    """`repro sweep run`: drive selected cells through the cached runner."""
    from repro import runner
    from repro.runner import Manifest, UnknownCellError
    from repro.scenario import ScenarioError

    cache, manifest_path = _sweep_paths(args)
    scenario_experiments: list[str] = []
    if getattr(args, "scenario", None):
        try:
            scenario_experiments = _register_scenario_files(args.scenario)
        except ScenarioError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.resume:
        manifest = Manifest.load(manifest_path)
        if manifest is None:
            print(f"nothing to resume: no manifest at {manifest_path}",
                  file=sys.stderr)
            return 2
        cells = manifest.cells()
        print(f"resuming {len(cells)} cells from {manifest_path} "
              f"({len(manifest.pending_cells())} incomplete)",
              file=sys.stderr)
    else:
        selectors = args.selectors
        if scenario_experiments and selectors == ["all"]:
            # `--scenario FILE` with no explicit selectors runs exactly
            # the scenario cells, not every registered experiment.
            selectors = scenario_experiments
        try:
            cells = runner.parse_selectors(selectors, args.scale)
        except UnknownCellError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        manifest = Manifest(manifest_path)
    if not cells:
        print("no cells selected", file=sys.stderr)
        return 2
    rc, _ = _drive_cells(args, cells, cache, manifest)
    return rc


def _print_failed_assertions(report) -> int:
    """Scenario assertion failures to stderr; returns how many failed.

    Each line names the measured value and the threshold it broke
    (see :func:`repro.scenario.executor.format_assertion_failure`).
    """
    from repro.scenario.executor import format_assertion_failure

    failed = 0
    for outcome in report.outcomes:
        result = outcome.result if outcome.good else None
        if not result:
            continue
        for record in result.get("assertions", ()):
            if not record.get("passed"):
                failed += 1
                print(f"  assertion failed [{outcome.cell.cell_id}] "
                      f"{format_assertion_failure(record)}", file=sys.stderr)
    return failed


def _cmd_scenario_run(args) -> int:
    """`repro scenario run`: execute scenario files as sweep cells."""
    from repro.runner import Manifest, cells_for
    from repro.scenario import ScenarioError

    cache, manifest_path = _sweep_paths(args)
    try:
        experiments = _register_scenario_files(args.files)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cells = [cell for name in experiments
             for cell in cells_for(name, args.scale)]
    rc, report = _drive_cells(args, cells, cache, Manifest(manifest_path))
    failed = _print_failed_assertions(report)
    if failed:
        print(f"{failed} scenario assertion(s) failed", file=sys.stderr)
        return 1
    return rc


def _cmd_scenario_validate(args) -> int:
    """`repro scenario validate`: schema-check files, precise errors."""
    from repro.scenario import ScenarioError, load_scenario

    bad = 0
    for path in args.files:
        try:
            scenario = load_scenario(path)
        except ScenarioError as exc:
            print(f"{path}: INVALID\n  {exc}")
            bad += 1
            continue
        print(f"{path}: ok — scenario {scenario.name!r}, "
              f"{len(scenario.cases)} case(s) x "
              f"{len(scenario.policies)} policies, "
              f"{len(scenario.phases)} phases, "
              f"{len(scenario.assertions)} assertions")
    return 1 if bad else 0


def _cmd_scenario_list(args) -> int:
    """`repro scenario list`: table of the scenarios in a directory."""
    from repro.scenario import ScenarioError, discover_scenarios, load_scenario

    try:
        paths = discover_scenarios(args.dir)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = []
    for path in paths:
        try:
            s = load_scenario(path)
            rows.append([path.name, s.name,
                         "x".join([str(len(s.cases)),
                                   str(len(s.policies))]),
                         len(s.phases), s.title[:40]])
        except ScenarioError as exc:
            rows.append([path.name, "-", "-", "-", f"INVALID: {exc}"[:60]])
    print(format_table(
        ["file", "scenario", "cells", "phases", "title"], rows,
        title=f"scenarios in {args.dir}",
    ))
    return 0


def _cmd_sweep_status(args) -> int:
    """`repro sweep status`: summarise the manifest and cache contents."""
    from repro.runner import Manifest

    cache, manifest_path = _sweep_paths(args)
    manifest = Manifest.load(manifest_path)
    if manifest is None:
        print(f"no sweep manifest at {manifest_path}")
    else:
        entries = manifest.data["cells"]
        rows = [
            [cell_id, e.get("status", "pending"), e.get("attempts", 0),
             e.get("wall_s", 0.0)]
            for cell_id, e in sorted(entries.items())
        ]
        print(format_table(
            ["cell", "status", "attempts", "wall s"], rows,
            title=f"manifest {manifest_path}",
        ))
        summary = ", ".join(
            f"{v} {k}" for k, v in sorted(manifest.summary().items()))
        print(summary)
    print(f"{len(cache)} cached results in {cache.results_dir}")
    return 0


def _cmd_sweep_clean(args) -> int:
    """`repro sweep clean`: drop cached results and the manifest."""
    cache, manifest_path = _sweep_paths(args)
    removed = cache.clear()
    had_manifest = manifest_path.exists()
    if had_manifest:
        manifest_path.unlink()
    print(f"removed {removed} cached results"
          + (" and the manifest" if had_manifest else "")
          + f" from {cache.root}")
    return 0


def _cmd_report_html(args) -> int:
    """`repro report html`: write the self-contained dashboard."""
    from repro.report import render_report

    cache, _ = _sweep_paths(args)
    html = render_report(cache, title=args.title)
    with open(args.out, "w") as fh:
        fh.write(html)
    print(f"report written to {args.out} "
          f"({len(html) // 1024} KiB, no external assets)")
    return 0


def _cmd_report_regress(args) -> int:
    """`repro report regress`: gate the cache against a baseline."""
    from repro.report import bless, compare, load_baseline
    from repro.report.regress import (
        DEFAULT_FAIL,
        DEFAULT_WARN,
        BaselineError,
        format_report,
        save_baseline,
    )

    cache, _ = _sweep_paths(args)
    if args.bless:
        try:
            doc = bless(cache,
                        warn=args.warn if args.warn is not None else DEFAULT_WARN,
                        fail=args.fail if args.fail is not None else DEFAULT_FAIL,
                        note=args.note)
        except BaselineError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        path = save_baseline(doc, args.baseline)
        print(f"blessed {len(doc['cells'])} cells into {path}")
        return 0
    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = compare(baseline, cache, warn=args.warn, fail=args.fail)
    print(format_report(report, verbose=args.verbose))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
