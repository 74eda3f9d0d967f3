"""`repro bench`: paper benches via pytest, or the touch/epoch
microbenchmarks of :mod:`repro.perf`."""

import sys

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


def register(sub) -> None:
    """Add the ``bench`` verb."""
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


def cmd_bench(args) -> int:
    """`repro bench`: paper benches via pytest, or the touch microbenchmark."""
    import subprocess
    from pathlib import Path

    if args.target in ("touch", "epoch"):
        return _cmd_bench_micro(args)

    bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    target = bench_dir / BENCHES[args.target]
    if args.profile:
        from repro import perf

        report = perf.profile_bench_file(target, args.target)
        if report is None:
            print(f"{target.name} exposes no run_policy/run_config to profile",
                  file=sys.stderr)
            return 2
        print(report)
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
