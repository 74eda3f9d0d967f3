"""`repro pagemap`, `repro why` and `repro audit`: a run with the
decision-provenance audit attached, read back three ways."""

from repro.cli import _execute, add_run_options, cached_sections
from repro.metrics.tables import format_table
from repro.workloads.catalog import WORKLOADS


def register(sub) -> None:
    """Add the ``pagemap``, ``why`` and ``audit`` verbs."""
    pagemap_p = sub.add_parser(
        "pagemap",
        help="run a workload, then dump its regions with frame provenance "
             "(a /proc/pid/pagemap + kpageflags + page_owner view)")
    pagemap_p.set_defaults(func=cmd_pagemap)
    pagemap_p.add_argument("workload", choices=sorted(WORKLOADS))
    add_run_options(pagemap_p)
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
    add_run_options(why_p)
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
    add_run_options(audit_p)
    audit_p.add_argument("--cache-dir", default=None,
                         help="sweep cache to aggregate captured decision "
                              "audits from (without a workload)")
    audit_p.add_argument("--json", action="store_true",
                         help="emit the funnel and rejection breakdown "
                              "as JSON")


def _audited(args) -> tuple[dict, object]:
    """Run ``args.workload`` with the audit attached: (result, its log)."""
    from repro import audit

    result = _execute(args.workload, args.policy, args, setup=audit.attach)
    return result, result["kernel"].audit


def cmd_pagemap(args) -> int:
    """`repro pagemap`: region/frame dump with flags and provenance.

    The per-region table is the /proc/pid/pagemap view (what maps
    where); ``--region`` expands one huge region frame by frame with
    kpageflags-style flag letters and the page_owner-style provenance
    columns (allocation site/pid/epoch, last lifecycle event).
    """
    from repro.units import PAGES_PER_HUGE
    from repro.vm.page_table import ACCESSED, DIRTY, SHARED_COW, SHARED_ZERO

    result, log = _audited(args)
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
        headers = ["vpn", "frame", "flags", "node", "live", "site",
                   "alloc pid", "alloc epoch", "last event"]
        title = (f"{args.workload} pid {proc.pid} region {args.region} "
                 f"(flags: Huge/Accessed/Dirty, Zero-shared, Cow-shared)")
        more = "mapped pages (raise --limit)"
    else:
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
        headers = ["region", "map", "resident", "ema", "head frame", "node",
                   "site", "alloc pid", "alloc epoch", "last event"]
        title = (f"{args.workload}/{args.policy} pid {proc.pid}: "
                 f"{len(rows)} populated regions "
                 f"(provenance of each region's head frame)")
        more = "regions (raise --limit, or --region HVPN to zoom in)"
    shown = rows[: args.limit] if args.limit else rows
    print(format_table(headers, shown, title=title))
    if args.limit and len(rows) > len(shown):
        print(f"... {len(rows) - len(shown)} more {more}")
    return result["rc"]


def cmd_why(args) -> int:
    """`repro why`: replay recent policy decisions with their inputs.

    Prints the newest :class:`~repro.audit.DecisionRecord`\\ s affecting
    the workload's process — each line carries the exact numbers the
    policy compared (coverage EMA, thresholds, budget left, …), so "why
    was this region never promoted" is answerable after the fact.
    Kernel-thread decisions (pid -1, e.g. a budget denial that stopped
    a whole scan) are included: they affect every process.
    """
    result, log = _audited(args)
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
    return result["rc"]


def cmd_audit(args) -> int:
    """`repro audit`: the decision funnel, live or from a sweep cache."""
    import json

    from repro import audit

    if args.workload is None:
        return _cmd_audit_cache(args)
    result, log = _audited(args)
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
    return result["rc"]


def _cmd_audit_cache(args) -> int:
    """Aggregate captured decision audits across a sweep cache."""
    import json

    from repro import audit

    loaded = cached_sections(
        args, audit, "decision audits",
        "cells cached before the audit layer, or audit disabled")
    if loaded is None:
        return 0
    root, sections = loaded
    cells = dict(sections)
    # every captured kernel's funnel counts, not just each cell's last one
    total = audit.merge(sec for _, sec in sections)
    if args.json:
        print(json.dumps({"cells": cells, "total": total},
                         indent=2, sort_keys=True))
        return 0
    print(audit.format_funnel(
        total, title=f"decision funnel: {len(cells)} cells in {root}"))
    return 0
