"""`repro trace run|view|export`: record or replay the tracepoint stream."""

import sys

from repro.cli import _execute, add_run_options
from repro.workloads.catalog import WORKLOADS


def _add_filters(p, kind="comma-separated tracepoint names or subsystems "
                         "(e.g. fault,promote.collapse)",
                 process="only events attributed to this process name",
                 reports=True) -> None:
    p.add_argument("--kind", default=None, help=kind)
    p.add_argument("--process", default=None, help=process)
    p.add_argument("--since", type=float, default=None,
                   help="only events at or after this simulated second")
    p.add_argument("--until", type=float, default=None,
                   help="only events before this simulated second")
    if reports:
        p.add_argument("--summary", action="store_true",
                       help="print the per-subsystem time-attribution table")
        p.add_argument("--hist", action="store_true",
                       help="print log2 latency histograms per tracepoint")


def register(sub) -> None:
    """Add ``trace`` and its ``run``, ``view`` and ``export`` sub-verbs."""
    trace_p = sub.add_parser(
        "trace", help="record or replay the kernel tracepoint stream")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    run_p = trace_sub.add_parser(
        "run", help="run a workload with tracing on; write a JSONL trace")
    run_p.set_defaults(func=cmd_trace_run)
    run_p.add_argument("workload", choices=sorted(WORKLOADS))
    add_run_options(run_p)
    run_p.add_argument("--out", default="trace.jsonl",
                       help="JSONL output path (default trace.jsonl)")
    run_p.add_argument("--capacity", type=int, default=None,
                       help="trace ring-buffer capacity in events")
    run_p.add_argument("--heat", action="store_true",
                       help="also attach the spatial heat monitor so "
                            "heat.* WSS counter samples land in the "
                            "trace (Perfetto counter tracks after "
                            "'trace export --chrome')")
    _add_filters(run_p)

    view_p = trace_sub.add_parser(
        "view", help="filter and summarise a recorded JSONL trace")
    view_p.set_defaults(func=cmd_trace_view)
    view_p.add_argument("file", help="JSONL trace written by 'trace run'")
    view_p.add_argument("--limit", type=int, default=20,
                        help="events to print (default 20; 0 = none)")
    _add_filters(view_p)

    export_p = trace_sub.add_parser(
        "export", help="convert a recorded JSONL trace to another format")
    export_p.set_defaults(func=cmd_trace_export)
    export_p.add_argument("file", help="JSONL trace written by 'trace run'")
    export_p.add_argument("--chrome", action="store_true",
                          help="emit Chrome trace-event JSON "
                               "(chrome://tracing, ui.perfetto.dev)")
    export_p.add_argument("--out", default=None,
                          help="output path (default: input with .json)")
    _add_filters(export_p,
                 kind="comma-separated tracepoint names or subsystems to keep",
                 process="only events attributed to this process", reports=False)


def _trace_kinds(args) -> list[str] | None:
    """Parse the --kind filter into a list of names/subsystems."""
    if not args.kind:
        return None
    return [k.strip() for k in args.kind.split(",") if k.strip()]


def _load_filtered(args):
    """``(events, filtered)`` of the JSONL trace ``args.file``; None,
    after saying so, when the file is missing."""
    import os

    from repro import trace
    from repro.metrics.export import trace_from_jsonl

    if not os.path.exists(args.file):
        print(f"trace file not found: {args.file}", file=sys.stderr)
        return None
    with open(args.file) as fh:
        events = trace_from_jsonl(fh.read())
    return events, trace.filter_events(
        events, _trace_kinds(args), args.process, args.since, args.until)


def _print_trace_reports(events, args, tracer=None) -> None:
    """Shared --summary/--hist rendering for trace run/view.  With the
    ``tracer`` of an unfiltered run, its incremental counters give the
    exact attribution and histograms even when the ring buffer dropped
    events."""
    from repro import trace

    if args.summary:
        exact = tracer is not None
        print(trace.format_attribution(
            tracer.attribution() if exact else trace.attribution(events)))
        hists = tracer.histograms if exact else trace.histograms(events)
        if hists:
            print(trace.format_percentiles(hists))
    if args.hist:
        by_kind = trace.histograms(events)
        for kind in sorted(by_kind, key=lambda k: k.value):
            print(trace.format_histogram(by_kind[kind], kind.value))


def cmd_trace_run(args) -> int:
    """`repro trace run`: record a traced run and write a JSONL trace."""
    from repro import trace
    from repro.metrics.export import trace_to_jsonl

    def setup(kernel):
        trace.attach(kernel, args.capacity or trace.DEFAULT_CAPACITY)
        if args.heat:
            from repro import heat

            heat.attach(kernel)

    result = _execute(args.workload, args.policy, args, setup=setup)
    tracer = result["kernel"].trace
    filters = (_trace_kinds(args), args.process, args.since, args.until)
    filtered = tracer.filter(*filters)
    with open(args.out, "w") as fh:
        fh.write(trace_to_jsonl(filtered))
    print(f"{args.workload}/{args.policy}: {result['outcome']}, "
          f"{result['time_s']:.1f} simulated s")
    print(f"{sum(tracer.counts.values())} events emitted "
          f"({tracer.dropped} dropped by the ring buffer); "
          f"{len(filtered)} written to {args.out}")
    unfiltered = filters == (None, None, None, None)
    _print_trace_reports(filtered, args, tracer if unfiltered else None)
    return result["rc"]


def cmd_trace_view(args) -> int:
    """`repro trace view`: filter and summarise a recorded JSONL trace."""
    loaded = _load_filtered(args)
    if loaded is None:
        return 2
    events, filtered = loaded
    print(f"{len(filtered)} events (of {len(events)} in {args.file})")
    for e in filtered[: args.limit]:
        print(e)
    if args.limit and len(filtered) > args.limit:
        print(f"... {len(filtered) - args.limit} more "
              f"(raise --limit to see them)")
    _print_trace_reports(filtered, args)
    return 0


def cmd_trace_export(args) -> int:
    """`repro trace export`: convert a JSONL trace to Chrome trace JSON."""
    import os

    from repro.metrics.export import trace_to_chrome

    if not args.chrome:
        print("choose an export format: --chrome", file=sys.stderr)
        return 2
    loaded = _load_filtered(args)
    if loaded is None:
        return 2
    events, filtered = loaded
    out = args.out or (os.path.splitext(args.file)[0] + ".chrome.json")
    with open(out, "w") as fh:
        fh.write(trace_to_chrome(filtered))
    print(f"{len(filtered)} events (of {len(events)} in {args.file}) "
          f"written to {out}; open in chrome://tracing or ui.perfetto.dev")
    return 0
