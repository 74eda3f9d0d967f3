"""Metric definitions: names, units, directions and regression bounds.

``BENCHMARK.json`` at the repository root mirrors these tables (the
tests check that the two agree).  End-to-end metrics are host time
measured with tracing off; per-layer metrics come from the separate
traced pass and carry no bound.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: allowed worsening, as a share of the parent commit's median
    #: (end-to-end metrics only).
    bound: float | None = None


#: Host times are in reference seconds (see ``bench.child.CALIB_REF_S``):
#: measured seconds spread by up to 62% over ten seeded runs on a shared
#: host whose speed drifts by up to 2x.  Reference seconds spread by up
#: to 23% there, so they get the largest bound allowed; peak RSS holds
#: 10% (README, "Why the bounds").
END_TO_END: tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("sim_s_per_s", "sim_s/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: reported beside the end-to-end metrics but not gated: failures are
#: the ``failed`` count of the result line, and a share that is 0 on
#: every good run has no median to bound against.
FAILED_RATIO = Metric("failed_ratio", "fraction", "lower")


def _m(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


PER_LAYER: tuple[Metric, ...] = (
    # runner: execute, capture finalisation, cache write
    _m("runner.execute_s", "s"),
    _m("runner.finalize_s", "s"),
    _m("runner.cache_put_s", "s"),
    _m("runner.envelope_mb", "MiB"),
    # observability capture (tracer, audit, heat, telemetry sampler)
    _m("obs.capture_s", "s"),
    _m("obs.capture_ratio", "ratio"),
    _m("trace.events", "count"),
    _m("audit.decisions", "count"),
    _m("heat.on_sample_s", "s"),
    _m("telemetry.scrape_s", "s"),
    # set-up
    _m("setup.s", "s"),
    _m("setup.kernel_init_s", "s"),
    # kernel epoch loop
    _m("kernel.epochs", "count"),
    _m("kernel.epoch_ms_p50", "ms"),
    _m("kernel.epoch_ms_tail", "ms"),
    _m("kernel.epoch_tail_pct", "percentile"),
    _m("kernel.run_epoch.self_s", "s"),
    _m("kernel.sample.self_s", "s"),
    _m("kernel.sample.calls", "count"),
    # workload stepping
    _m("workloads.step.self_s", "s"),
    _m("workloads.step.calls", "count"),
    _m("workloads.step.quiescent_ratio", "ratio"),
    # fault path
    _m("fault.s", "s"),
    _m("fault.range_s", "s"),
    _m("fault.range_calls", "count"),
    _m("fault.page_calls", "count"),
    _m("fault.faults", "count"),
    _m("fault.ns_per_fault", "ns"),
    # process lifecycle: unmap, exit, spawn
    _m("lifecycle.s", "s"),
    _m("unmap.calls", "count"),
    _m("exit.calls", "count"),
    _m("spawn.s", "s"),
    # compaction: kcompactd and direct compaction
    _m("compaction.s", "s"),
    _m("compaction.calls", "count"),
    _m("compaction.pages_moved", "count"),
    # policy
    _m("policy.s", "s"),
    _m("policy.on_epoch.self_s", "s"),
    _m("policy.on_sample_s", "s"),
    _m("promotion.s", "s"),
    _m("promote.calls", "count"),
    _m("promote.ok_ratio", "ratio", "higher"),
    _m("prezero.s", "s"),
    _m("bloat.s", "s"),
    _m("demote.calls", "count"),
    _m("dedup.calls", "count"),
    # tlb
    _m("tlb.mmu_epoch_calls", "count"),
    # fleet
    _m("fleet.spawned", "count"),
    _m("fleet.exited", "count"),
    # the traced pass itself
    _m("trace_overhead", "ratio"),
    _m("unattributed_share", "ratio"),
)

UNITS: dict[str, str] = {m.name: m.unit
                         for m in END_TO_END + PER_LAYER + (FAILED_RATIO,)}
