"""``python -m bench run``: the sweep-path benchmark.

One parent process launches one fresh child interpreter per workload
run, one at a time, and waits for it: a closed loop with a single
client.  The child pins itself to one CPU and runs the workload's cells
back to back through ``run_sweep(jobs=1)`` (see :mod:`bench.child`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer ones.  The exit code is 0
only when every cell ran and produced its expected result.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench.metrics import END_TO_END, FAILED_RATIO, PER_LAYER, UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC_DIR = ROOT_DIR / "src"
OUT_DIR = BENCH_DIR / "out"
RESULTS_DIR = BENCH_DIR / "results"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: workload names in their default run order (alternated across repeats).
WORKLOAD_NAMES = ("fault-storm", "frag-promote", "bloat-churn", "fleet-churn")
#: seeds whose per-cell result digests ``--bless`` records: 0 reproduces
#: the registry cells, 1 is held out for performance claims.
BLESSED_SEEDS = (0, 1)
#: seconds one run measures when ``--seconds`` is not given; the same as
#: ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 25


class ChildError(RuntimeError):
    """A child run exited abnormally or printed no report."""


def run_child(spec: dict, timeout_s: float) -> dict:
    """Run one child to completion; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(ROOT_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", json.dumps(spec)],
        cwd=ROOT_DIR, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout_s, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{spec['workload']} child exited {proc.returncode}")
    return json.loads(lines[-1])


def _spec(workload: str, seed: int, seconds: float, mode: str, quick: bool,
          check: bool = True, trace_out: str | None = None) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "mode": mode, "quick": quick, "check": check,
            "trace_out": trace_out}


def _timeout(seconds: float) -> float:
    """Kill a child that overruns its budget by this much (a hang)."""
    return 2 * seconds + 120


def summarize_runs(reports: list[dict], key: str) -> dict[str, dict]:
    """Median, min, max and run count of each metric over child reports."""
    out = {}
    for name in reports[0][key]:
        values = [r[key][name] for r in reports]
        out[name] = {"value": statistics.median(values), "unit": UNITS[name],
                     "min": min(values), "max": max(values), "n": len(values)}
    return out


def print_e2e(name: str, reports: list[dict], stats: dict) -> None:
    first = reports[0]
    print(f"\n{name}  seed {first['seed']}  cells {first['cells']}  "
          f"passes/run {first['passes']}  runs {len(reports)}")
    print(f"  {'metric':<14}{'unit':<10}{'median':>12}{'min':>12}"
          f"{'max':>12}{'n':>4}  bound")
    for metric in END_TO_END + (FAILED_RATIO,):
        s = stats[metric.name]
        bound = f"{metric.bound:.0%} {metric.better}" if metric.bound else "-"
        print(f"  {metric.name:<14}{metric.unit:<10}{s['value']:>12.4f}"
              f"{s['min']:>12.4f}{s['max']:>12.4f}{s['n']:>4}  {bound}")
    measured = {key: statistics.median(r["measured"][key] for r in reports)
                for key in reports[0]["measured"]}
    calib = statistics.median(r["calib_s"] for r in reports)
    ratio = statistics.median(r["wall_per_calib"] for r in reports)
    slowdown = statistics.median(s for r in reports for s in r["pass_slowdowns"])
    print(f"  measured (not gated): wall_s {measured['wall_s']:.4f}  "
          f"setup_s {measured['setup_s']:.4f}  "
          f"sim_s_per_s {measured['sim_s_per_s']:.4f}  calib_s {calib:.4f}  "
          f"wall_s/calib_s {ratio:.3f}  host slowdown {slowdown:.2f}")


def print_layers(name: str, report: dict) -> None:
    per_layer = report["per_layer"]
    print(f"\n{name} layers  trace_overhead {per_layer['trace_overhead']:+.1%}"
          f"  unattributed_share {per_layer['unattributed_share']:.2%}"
          f"  obs.capture_ratio {per_layer['obs.capture_ratio']:+.1%}")
    print(f"  {'layer':<14}{'self_s':>10}{'share':>9}{'calls':>10}")
    for layer, self_s, share, calls in report["layers"]:
        print(f"  {layer:<14}{self_s:>10.4f}{share:>9.1%}{calls:>10}")
    top = [row[0] for row in report["layers"] if row[0] != "unattributed"][:3]
    print(f"  top three layers: {', '.join(top)}")


def print_errors(reports: list[dict]) -> None:
    for report in reports:
        for error in report["errors"]:
            print(f"FAILED {report['workload']} seed {report['seed']}: {error}",
                  file=sys.stderr)


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    mode = "trace" if args.trace else "e2e"
    seconds = 0 if args.quick else args.seconds
    by_workload: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeat):
        order = names if repeat % 2 == 0 else names[::-1]
        for name in order:
            trace_out = str(OUT_DIR / f"trace-{name}.json") if args.trace else None
            by_workload[name].append(run_child(
                _spec(name, args.seed, seconds, mode, args.quick,
                      trace_out=trace_out), _timeout(seconds)))

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name, reports in by_workload.items():
        print_errors(reports)
        attempted += sum(r["attempted"] for r in reports)
        failed += sum(r["failed"] for r in reports)
        if args.trace:
            print_layers(name, reports[-1])
            stats = summarize_runs(reports, "per_layer")
            chosen = [m.name for m in PER_LAYER]
        else:
            stats = summarize_runs(reports, "e2e")
            print_e2e(name, reports, stats)
            chosen = [m.name for m in END_TO_END]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in chosen:
            metrics[prefix + metric] = {"value": stats[metric]["value"],
                                        "unit": stats[metric]["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def cmd_bless(args) -> int:
    """Record per-cell result digests for every blessed seed and scale."""
    seeds: dict[str, dict[str, str]] = {}
    bad = 0
    for seed in BLESSED_SEEDS:
        digests: dict[str, str] = {}
        for name in WORKLOAD_NAMES:
            for quick in (False, True):
                report = run_child(_spec(name, seed, 0, "e2e", quick,
                                         check=False), _timeout(0))
                print_errors([report])
                bad += report["failed"]
                digests.update(report["digests"])
        seeds[str(seed)] = dict(sorted(digests.items()))
        print(f"seed {seed}: {len(digests)} cells blessed", file=sys.stderr)
    if bad:
        print(f"not blessing: {bad} cells failed", file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT_DIR)}")
    return 0


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT_DIR,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cmd_record(args) -> int:
    """Write one trajectory point: every metric of every workload."""
    entry: dict = {
        "date": datetime.date.today().isoformat(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for name in WORKLOAD_NAMES:
        e2e = run_child(_spec(name, args.seed, args.seconds, "e2e", False),
                        _timeout(args.seconds))
        traced = run_child(_spec(name, args.seed, args.seconds, "trace", False),
                           _timeout(args.seconds))
        print_errors([e2e, traced])
        failed += e2e["failed"] + traced["failed"]
        print_e2e(name, [e2e], summarize_runs([e2e], "e2e"))
        print_layers(name, traced)
        entry["python"], entry["numpy"] = e2e["python"], e2e["numpy"]
        entry["workloads"][name] = {
            "cells": e2e["cells"],
            "passes": e2e["passes"],
            "calib_s": e2e["calib_s"],
            "wall_per_calib": e2e["wall_per_calib"],
            "host_slowdowns": e2e["pass_slowdowns"],
            "end_to_end": {k: {"value": v, "unit": UNITS[k]}
                           for k, v in e2e["e2e"].items()},
            "measured": {k: {"value": v, "unit": UNITS[k]}
                         for k, v in e2e["measured"].items()},
            "per_layer": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in sorted(traced["per_layer"].items())},
            "layers": traced["layers"],
            "entry_points": traced["entry_points"],
        }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{entry['date']}.json"
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT_DIR)}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=WORKLOAD_NAMES,
                     help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=0,
                     help="workload seed; 0 reproduces the registry cells")
    # BENCHMARK.json's command is invoked as `<command> --workload W
    # --seed S --seconds <run_seconds> --trace 0|1`, so --seconds and a
    # valued --trace are part of its interface.
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                     help="host seconds each run measures (whole passes)")
    run.add_argument("--repeat", type=int, default=1,
                     help="child runs per workload; metrics are their median")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report per-layer metrics instead")
    run.add_argument("--quick", action="store_true",
                     help="every workload once at a tiny scale (CI)")
    run.add_argument("--bless", action="store_true",
                     help="record result digests to bench/expected.json")
    run.add_argument("--record", action="store_true",
                     help="write a bench/results/BENCH_<date>.json trajectory point")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC_DIR}",
              file=sys.stderr)
        return 2
    try:
        if args.bless:
            return cmd_bless(args)
        if args.record:
            return cmd_record(args)
        return cmd_run(args)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
