"""`repro top`: run a workload printing periodic rows scraped off the
metrics registry."""

from repro.cli import _execute, add_run_options
from repro.units import SEC
from repro.workloads.catalog import WORKLOADS

#: columns of the `repro top` display, in print order.  ``trdrop/s`` is
#: the tracer ring-buffer drop rate — "-" with no tracer attached, 0
#: for a lossless trace, nonzero when the recorded trace is lossy.
TOP_COLUMNS = [
    "t_s", "free_mb", "alloc_%", "thp_mb", "fmfi",
    "pgfault/s", "promo/s", "split/s", "swap/s", "trdrop/s",
]


def register(sub) -> None:
    """Add the ``top`` verb."""
    top_p = sub.add_parser(
        "top", help="run a workload printing periodic /proc-style snapshots")
    top_p.set_defaults(func=cmd_top)
    top_p.add_argument("workload", choices=sorted(WORKLOADS))
    add_run_options(top_p)
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


def _value(scrape: dict, family: str, key: str = ""):
    """One gauge or counter child of a registry scrape; 0 while its
    publisher has declared nothing (a ``--tenants`` run with no fleet)."""
    children = scrape["gauges"].get(family) or scrape["counters"].get(family)
    return children.get(key, 0) if children else 0


def _migrated_pages(scrape: dict) -> float:
    """NUMA migrations in base pages (a huge migration moves 512)."""
    return (_value(scrape, "numastat", "name=numa_pages_migrated")
            + 512 * _value(scrape, "numastat", "name=numa_huge_migrated"))


def cmd_top(args) -> int:
    """`repro top`: run a workload printing periodic snapshot rows.

    Each row is one registry scrape filled by the ``collect`` of procfs,
    NUMA and fleet: gauges as they stand, counters as *rates* over the
    interval — ``vmstat <interval>`` for the simulated machine.  With
    ``--watch SECONDS`` the latest row repaints in place (ANSI cursor-up),
    at most once per wall-clock SECONDS.
    """
    import time

    from repro.fleet import manager as fleet
    from repro.kernel import procfs
    from repro.metrics.registry import MetricsRegistry
    from repro.metrics.tables import ColumnStream, InPlacePainter
    from repro.numa import balance as numa

    columns = list(TOP_COLUMNS)
    nodes = args.nodes
    if nodes > 1:
        # per-node placement columns; like the fleet ones, off by default.
        for n in range(nodes):
            columns += [f"n{n}_free", f"n{n}_alloc"]
        columns.append("numamig/s")
    fleet_rate = args.fleet_rate
    tenants = args.tenants or fleet_rate is not None
    if tenants:
        columns += ["tenants", "spawn/s", "exit/s", "oomk"]
    stream = ColumnStream(columns)
    print(stream.header())
    registry = MetricsRegistry()
    state = {"prev": None, "last_wall": 0.0}
    painter = InPlacePainter()
    watch = args.watch

    def snapshot(kernel):
        t_s = kernel.now_us / SEC
        prev = state["prev"]
        if prev is not None and t_s - prev["t_s"] < args.interval:
            return
        for mod in (procfs, numa, fleet):
            mod.collect(registry, kernel)
        cur = state["prev"] = registry.scrape(t_s)
        dt = t_s - prev["t_s"] if prev is not None else 0.0

        def now(family, key=""):
            return _value(cur, family, key)

        def rate(read):
            """Per-second change of ``read(scrape)`` since the previous row."""
            return 0.0 if dt <= 0 else (read(cur) - read(prev)) / dt

        def counter(family, key):
            return rate(lambda scrape: _value(scrape, family, key))

        def vm(name):
            return counter("vmstat", f"name={name}")

        def kb(field):
            return now("meminfo_kb", f"field={field}")

        row = [
            f"{t_s:.0f}",
            f"{int(kb('MemFree')) // 1024}",
            f"{100.0 * kb('MemAllocated') / kb('MemTotal'):.1f}",
            f"{int(kb('AnonHugePages')) // 1024}",
            f"{now('fmfi'):.2f}",
            f"{vm('pgfault'):.0f}",
            f"{vm('thp_collapse_alloc') + vm('thp_promote_inplace'):.1f}",
            f"{vm('thp_split'):.1f}",
            f"{vm('pswpout') + vm('pswpin'):.1f}",
            f"{vm('trace_dropped'):.0f}"
            if now("vmstat_state", "name=trace_attached") else "-",
        ]
        if nodes > 1:
            # pages -> MB at 4 KiB pages: 256 pages per MB.
            row += [f"{int(now('numastat_pages', f'name=node{n}_{what}')) // 256}"
                    for n in range(nodes)
                    for what in ("free_pages", "allocated_pages")]
            row.append(f"{rate(_migrated_pages):.0f}")
        if tenants:
            row += [f"{int(now('fleet_tenants', 'state=active'))}",
                    f"{counter('fleet_tenants_total', 'event=spawned'):.1f}",
                    f"{counter('fleet_tenants_total', 'event=exited'):.1f}",
                    f"{int(now('fleet_tenants_total', 'event=oom_killed'))}"]
        line = stream.row(row)
        if watch is None:
            print(line)
        else:
            wall = time.monotonic()
            if not painter.drawn or wall - state["last_wall"] >= watch:
                painter.paint(line)
                state["last_wall"] = wall

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
    return result["rc"]
