"""`repro sweep`, `repro scenario` and `repro report`: experiment grids
through the cached sweep runner, declarative scenario files, and the
HTML dashboard and regression gate over the cache."""

import sys

from repro.cli import sweep_paths
from repro.metrics.tables import format_table


def _add_cache_dir(p) -> None:
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default .sweep-cache, "
                        "or $REPRO_SWEEP_CACHE)")


def _add_drive_options(p, jobs: str) -> None:
    """The cache and runner options :func:`_drive_cells` reads."""
    _add_cache_dir(p)
    p.add_argument("--jobs", type=int, default=1, help=jobs)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock budget in seconds (default 900)")
    p.add_argument("--retries", type=int, default=None,
                   help="extra attempts per failed cell (default 1)")
    p.add_argument("--scale", type=int, default=128,
                   help="linear memory scale divisor (default 128)")
    p.add_argument("--force", action="store_true",
                   help="re-execute cells even when cached")


def register(sub) -> None:
    """Add ``sweep``, ``scenario`` and ``report`` and their sub-verbs."""
    sweep_p = sub.add_parser(
        "sweep", help="run experiment grids through the cached sweep runner")
    sweep_sub = sweep_p.add_subparsers(dest="sweep_command", required=True)

    run_p = sweep_sub.add_parser(
        "run", help="execute a selection of experiment cells")
    run_p.set_defaults(func=cmd_sweep_run)
    run_p.add_argument(
        "selectors", nargs="*", default=["all"],
        help="cell selectors: all | EXP | EXP/CASE | EXP:POLICY | "
             "EXP/CASE:POLICY (default: all)")
    _add_drive_options(run_p, jobs="worker processes (default 1 = in-process)")
    run_p.add_argument("--resume", action="store_true",
                       help="re-run the last sweep's manifest, skipping "
                            "completed cells (selectors are ignored)")
    run_p.add_argument("--json", action="store_true",
                       help="emit per-cell records as JSON Lines instead "
                            "of the table")
    run_p.add_argument("--csv", metavar="PATH", default=None,
                       help="also write per-cell records as CSV to PATH")
    run_p.add_argument("--require-cached", action="store_true",
                       help="exit 1 if any cell actually executed "
                            "(CI warm-cache check)")
    run_p.add_argument("--scenario", action="append", metavar="FILE",
                       default=None,
                       help="register a scenario file as an experiment "
                            "before selecting cells (repeatable); with "
                            "no explicit selectors, only the scenario "
                            "cells run")

    status_p = sweep_sub.add_parser(
        "status", help="show the last sweep's manifest and cache contents")
    status_p.set_defaults(func=cmd_sweep_status)
    _add_cache_dir(status_p)

    clean_p = sweep_sub.add_parser(
        "clean", help="delete cached results and the sweep manifest")
    clean_p.set_defaults(func=cmd_sweep_clean)
    _add_cache_dir(clean_p)

    scenario_p = sub.add_parser(
        "scenario",
        help="validate, list or run declarative scenario files")
    scenario_sub = scenario_p.add_subparsers(dest="scenario_command",
                                             required=True)

    scenario_run_p = scenario_sub.add_parser(
        "run", help="execute scenario files through the cached sweep runner")
    scenario_run_p.set_defaults(func=cmd_scenario_run)
    scenario_run_p.add_argument("files", nargs="+", metavar="FILE",
                                help="scenario files (.yaml/.yml/.json)")
    _add_drive_options(scenario_run_p, jobs="worker processes (default 1)")
    scenario_run_p.add_argument("--json", action="store_true",
                                help="emit per-cell records as JSON Lines")
    scenario_run_p.add_argument("--csv", metavar="PATH", default=None,
                                help="also write per-cell records as CSV")
    scenario_run_p.add_argument("--require-cached", action="store_true",
                                help="exit 1 if any cell actually executed")

    validate_p = scenario_sub.add_parser(
        "validate", help="check scenario files against the schema")
    validate_p.set_defaults(func=cmd_scenario_validate)
    validate_p.add_argument("files", nargs="+", metavar="FILE")

    list_p = scenario_sub.add_parser(
        "list", help="list the scenarios in a directory")
    list_p.set_defaults(func=cmd_scenario_list)
    list_p.add_argument("--dir", default="examples/scenarios",
                        help="directory to scan "
                             "(default examples/scenarios)")

    report_p = sub.add_parser(
        "report", help="render or regression-check a sweep cache")
    report_sub = report_p.add_subparsers(dest="report_command", required=True)

    html_p = report_sub.add_parser(
        "html", help="write a self-contained HTML dashboard from the cache")
    html_p.set_defaults(func=cmd_report_html)
    _add_cache_dir(html_p)
    html_p.add_argument("--out", default="report.html",
                        help="output path (default report.html)")
    html_p.add_argument("--title", default="HawkEye repro — run report",
                        help="dashboard title")

    regress_p = report_sub.add_parser(
        "regress",
        help="compare the cache against a baseline; exit 1 on regression")
    regress_p.set_defaults(func=cmd_report_regress)
    regress_p.add_argument(
        "baseline", help="baseline JSON (see benchmarks/baselines/)")
    _add_cache_dir(regress_p)
    regress_p.add_argument("--warn", type=float, default=None,
                           help="warn band as a relative delta "
                                "(default: the baseline's, else 0.01)")
    regress_p.add_argument("--fail", type=float, default=None,
                           help="fail band as a relative delta "
                                "(default: the baseline's, else 0.05)")
    regress_p.add_argument("--bless", action="store_true",
                           help="write the cache's current metrics to "
                                "BASELINE instead of comparing")
    regress_p.add_argument("--note", default="",
                           help="free-form note stored when blessing")
    regress_p.add_argument("--verbose", action="store_true",
                           help="print every metric delta, not just "
                                "the flagged ones")


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
        cells, jobs=args.jobs, cache=cache, manifest=manifest,
        timeout_s=runner.DEFAULT_TIMEOUT_S if args.timeout is None else args.timeout,
        retries=runner.DEFAULT_RETRIES if args.retries is None else args.retries,
        force=args.force, progress=progress)

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


def cmd_sweep_run(args) -> int:
    """`repro sweep run`: drive selected cells through the cached runner."""
    from repro import runner
    from repro.runner import Manifest, UnknownCellError
    from repro.scenario import ScenarioError, register_scenario_file

    cache, manifest_path = sweep_paths(args)
    scenario_experiments: list[str] = []
    if args.scenario:
        try:
            scenario_experiments = [register_scenario_file(path).name
                                    for path in args.scenario]
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


def cmd_sweep_status(args) -> int:
    """`repro sweep status`: summarise the manifest and cache contents."""
    from repro.runner import Manifest

    cache, manifest_path = sweep_paths(args)
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


def cmd_sweep_clean(args) -> int:
    """`repro sweep clean`: drop cached results and the manifest."""
    cache, manifest_path = sweep_paths(args)
    removed = cache.clear()
    had_manifest = manifest_path.exists()
    if had_manifest:
        manifest_path.unlink()
    print(f"removed {removed} cached results"
          + (" and the manifest" if had_manifest else "")
          + f" from {cache.root}")
    return 0


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


def cmd_scenario_run(args) -> int:
    """`repro scenario run`: execute scenario files as sweep cells."""
    from repro.runner import Manifest, cells_for
    from repro.scenario import ScenarioError, register_scenario_file

    cache, manifest_path = sweep_paths(args)
    try:
        experiments = [register_scenario_file(path).name for path in args.files]
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


def cmd_scenario_validate(args) -> int:
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


def cmd_scenario_list(args) -> int:
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


def cmd_report_html(args) -> int:
    """`repro report html`: write the self-contained dashboard."""
    from repro.report import render_report

    cache, _ = sweep_paths(args)
    html = render_report(cache, title=args.title)
    with open(args.out, "w") as fh:
        fh.write(html)
    print(f"report written to {args.out} "
          f"({len(html) // 1024} KiB, no external assets)")
    return 0


def cmd_report_regress(args) -> int:
    """`repro report regress`: gate the cache against a baseline."""
    from repro.report import bless, compare, load_baseline
    from repro.report.regress import (
        DEFAULT_FAIL,
        DEFAULT_WARN,
        BaselineError,
        format_report,
        save_baseline,
    )

    cache, _ = sweep_paths(args)
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
