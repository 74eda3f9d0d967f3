"""Command-line interface: run simulations without writing a script.

Examples::

    python -m repro compare cg.D --policies linux-4kb,linux-2mb,hawkeye-g
    python -m repro trace run redis-fig1 --policy hawkeye-g --summary
    python -m repro top xsbench --interval 30 --nodes 2 --fleet-rate 1
    python -m repro why redis-fig1 --point promote --limit 10
    python -m repro heat --cache-dir .sweep-cache --process gups
    python -m repro sweep run tab1 tab8 --jobs 4

Each verb, or tight family of verbs (``trace run|view|export``;
``pagemap``/``why``/``audit``; ``sweep``/``scenario``/``report``), is one
module of this package whose ``register(sub)`` adds its parser next to
its handler; :func:`build_parser` calls them in verb order.  Optional
and heavy imports stay inside the handlers.
"""

import argparse

from repro.errors import OutOfMemoryError
from repro.experiments import POLICIES, Scale, fragment, make_kernel
from repro.units import GB, SEC
from repro.workloads.catalog import WORKLOADS


def add_run_options(p: argparse.ArgumentParser) -> None:
    """The machine and run options of every verb that calls :func:`_execute`."""
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


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the `repro` command."""
    # imported here: the verb modules import this package's helpers.
    from repro.cli import audit, bench, fleet, heat, numa, run, sweep, top, trace

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HawkEye (ASPLOS'19) huge-page management simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (run, bench, trace, numa, top, fleet, audit, heat, sweep):
        module.register(sub)
    return parser


def _execute(workload_name: str, policy: str, args, setup=None) -> dict:
    """Run one workload under ``policy``; ``setup(kernel)`` attaches
    observers before the workload spawns.  The result carries the
    kernel, so a verb reads what it attached off ``result["kernel"]``,
    and the exit code ``rc``: 1 for an OOM or an epoch timeout."""
    scale = Scale(1.0 / args.scale)
    kernel = make_kernel(
        args.mem_gb * GB, policy, scale,
        numa_nodes=args.nodes, numa_balance=args.numa_balance,
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
        "rc": 0 if outcome == "completed" else 1,
        "time_s": run.elapsed_us / SEC,
        "faults": proc.stats.faults,
        "promotions": proc.stats.promotions,
        "demotions": proc.stats.demotions,
        "mmu_overhead": kernel.pmu[proc.pid].read_overhead(),
    }


def sweep_paths(args):
    """Resolve (cache, manifest path) from --cache-dir/$REPRO_SWEEP_CACHE."""
    from pathlib import Path

    from repro.runner import ResultCache, default_cache_dir

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    return ResultCache(root), root / "manifest.json"


def cached_sections(args, mod, what: str, why: str, keep=bool):
    """``(cache root, [(cell_id, section), ...])``: the captured
    ``mod.SECTION`` of every cached artifact that passes ``keep`` (one
    pair per kernel a cell built).  With none and no ``--json``, says so
    and returns None."""
    from repro.report.data import cell_sections, latest_envelopes

    cache, _ = sweep_paths(args)
    sections = [(cell_id, sec) for cell_id, sec in
                cell_sections(latest_envelopes(cache), mod.SECTION) if keep(sec)]
    if not sections and not args.json:
        print(f"no captured {what} in {cache.root} ({why})")
        return None
    return cache.root, sections


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
