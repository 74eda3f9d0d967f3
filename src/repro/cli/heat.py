"""`repro heat`: the DAMON-style spatial access heatmap, live or from a
sweep cache."""

import sys

from repro.cli import _execute, add_run_options, cached_sections
from repro.metrics.tables import format_table
from repro.workloads.catalog import WORKLOADS


def register(sub) -> None:
    """Add the ``heat`` verb."""
    heat_p = sub.add_parser(
        "heat",
        help="DAMON-style spatial access heatmap: adaptive monitoring "
             "regions, per-region bloat and WSS percentiles — live run, "
             "or aggregated from a sweep cache when no workload is given")
    heat_p.set_defaults(func=cmd_heat)
    heat_p.add_argument("workload", nargs="?", default=None,
                        choices=sorted(WORKLOADS))
    add_run_options(heat_p)
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
        print(heat.format_region(proc_snap, args.region, args.matrix,
                                 args.epochs))
        return
    print("\n\n".join([
        heat.format_heatmap(proc_snap, epochs=args.epochs, matrix=args.matrix),
        heat.format_regions(proc_snap), heat.format_wss(proc_snap)]))


def cmd_heat(args) -> int:
    """`repro heat`: spatial access heatmap, live or from a sweep cache."""
    import json
    import time

    from repro import heat
    from repro.metrics.tables import InPlacePainter

    if args.workload is None:
        return _cmd_heat_cache(args)
    painter = InPlacePainter()
    state = {"last_wall": 0.0, "last_samples": 0}

    def repaint(kernel):
        monitor = kernel.heat
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
        heat.attach(kernel, **({"nbins": args.bins} if args.bins else {}))
        if args.watch is not None:
            kernel.epoch_hooks.append(repaint)

    try:
        result = _execute(args.workload, args.policy, args, setup=setup)
    finally:
        if args.watch is not None:
            painter.finish()
    snapshot = result["kernel"].heat.snapshot()
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
        return result["rc"]
    for i, proc_snap in enumerate(procs):
        if i:
            print()
        _print_heat_proc(proc_snap, args)
    print(f"\n{args.workload}/{args.policy}: {result['outcome']}, "
          f"{snapshot['samples']} access-bit samples folded")
    return result["rc"]


def _cmd_heat_cache(args) -> int:
    """Aggregate captured heat snapshots across a sweep cache."""
    import json

    from repro import heat

    loaded = cached_sections(
        args, heat, "heat snapshots", "cells cached before the heat layer",
        keep=lambda snap: snap.get("processes"))
    if loaded is None:
        return 0
    root, sections = loaded
    cells = dict(sections)
    if args.json:
        print(json.dumps({"cells": cells}, indent=2, sort_keys=True))
        return 0
    if args.svg_dir:
        _write_heat_svgs(cells, args.svg_dir)
    rows = [[cell_id, *row] for cell_id, snap in cells.items()
            for row in heat.rows(snap)
            if not args.process or row[0] == args.process]
    print(format_table(
        ["cell", "process", "samples", "regions", "hot",
         "wss_p50", "wss_p95", "wss_p99"],
        rows, title=f"heat: {len(cells)} cells in {root}"))
    if args.process:
        # with a process filter the cache view also renders the full
        # per-cell heatmaps, same layout as a live run.
        for cell_id, snap in cells.items():
            for proc in snap["processes"]:
                if proc.get("process") == args.process:
                    print(f"\n[{cell_id}]")
                    _print_heat_proc(proc, args)
    return 0
