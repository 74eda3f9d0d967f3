"""Performance harness for the simulator's hot paths.

Two entry points, both reachable through ``python -m repro bench``:

* :func:`touch_benchmark` — the touch-throughput microbenchmark: a dense
  fault-heavy workload (touch, sparse free, re-touch) run once through
  the batched fault fast path and once with ``kernel.batched_faults``
  forced off.  Reporting both gives a machine-independent speedup ratio
  (used by CI) next to the absolute pages/second (used for baselines).
* :func:`profile_target` — a cProfile report over a paper benchmark's
  experiment function, bypassing pytest-benchmark (whose timed block
  installs its own profiler hook and would hide everything).

The workload here is self-contained so the numbers do not move when the
paper benchmarks are retuned.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import statistics
import time

from repro import audit, heat, trace
from repro.experiments import POLICIES, Scale, make_kernel, reset_sim_state
from repro.metrics import telemetry
from repro.units import GB, MB, PAGES_PER_HUGE, SEC
from repro.workloads.base import (
    AccessProfile,
    ContentSpec,
    FreeOp,
    Phase,
    RegionAccessSpec,
    TouchOp,
    Workload,
)

#: pages in the microbenchmark's touch region (256 MiB effective).
TOUCH_PAGES = 256 * MB // 4096


class _TouchBench(Workload):
    """Dense touch / free / re-touch — the fault-dominated shape.

    The free is dense (the whole region) so the re-touch allocates from
    large coalesced blocks; a sparse free shreds physical memory into
    ~3-page extents and measures the fragmented path for *both* modes
    instead of fault throughput.  Sparse frees are covered by the
    scalar-vs-batched equivalence tests.
    """

    name = "touch-bench"

    def __init__(self, npages: int):
        self.npages = npages

    def build_phases(self) -> list[Phase]:
        content = ContentSpec(first_nonzero=9)
        return [
            Phase("grow", ops=[TouchOp("heap", npages=self.npages, content=content)]),
            Phase("shrink", ops=[FreeOp("heap")]),
            Phase("regrow", ops=[TouchOp("heap", npages=self.npages, content=content)]),
        ]

    def mmap_bytes(self) -> int:
        return self.npages * 4096


def _run_once(policy: str, npages: int, batched: bool, trace_mode: str = "off") -> float:
    """One timed run; returns wall seconds.

    ``trace_mode`` selects the observability state under test: ``"off"``
    (no tracer, sampler, audit or heat monitor — the production default),
    ``"disabled"`` (tracer, telemetry sampler, decision audit *and*
    spatial heat monitor attached to the kernel's slots, but every
    instance gate off so each guard is evaluated and rejected — the
    state the <5 % overhead gate measures) or ``"on"`` (full emission,
    sampling and auditing).
    """
    reset_sim_state()
    # make_kernel takes the *full-scale* size; 2x headroom over the region
    # keeps the pressure paths (reclaim/swap) out of the measurement.
    scale = Scale(1 / 128)
    kernel = make_kernel(2 * npages * 4096 / scale.factor, policy, scale)
    kernel.batched_faults = batched
    if trace_mode != "off":
        tracer = trace.attach(kernel)
        tracer.enabled = trace_mode == "on"
        sampler = telemetry.attach(kernel)
        sampler.enabled = trace_mode == "on"
        log = audit.attach(kernel)
        log.enabled = trace_mode == "on"
        monitor = heat.attach(kernel)
        monitor.enabled = trace_mode == "on"
    bench = _TouchBench(npages)
    run = kernel.spawn(bench)
    kernel.mmap(run.proc, bench.mmap_bytes(), "heap")
    try:
        t0 = time.perf_counter()
        kernel.run(max_epochs=20000)
        elapsed = time.perf_counter() - t0
    finally:
        if trace_mode != "off":
            trace.detach(kernel)
            telemetry.detach(kernel)
            audit.detach(kernel)
            heat.detach(kernel)
    if not run.finished:
        raise RuntimeError("touch benchmark did not finish within the epoch cap")
    return elapsed


def touch_benchmark(
    policy: str = "hawkeye-g", npages: int = TOUCH_PAGES, repeats: int = 3
) -> dict:
    """Touch-throughput microbenchmark, batched vs forced-scalar.

    Returns a JSON-friendly dict with the best-of-``repeats`` wall time
    for each mode, the derived pages/second, and the batched/scalar
    speedup ratio.  A third timed configuration — a tracer *and* a
    telemetry sampler attached but with emission/sampling disabled
    (``trace_mode="disabled"``) — yields ``trace_overhead``, the
    fractional cost of the *attached-but-silent* observability guards
    relative to the bare run; the zero-cost-when-disabled contract
    gates this below 5 % for tracepoints and registry alike.
    """
    total_pages = 2 * npages  # grow + regrow both touch the full region
    scalar_s = min(_run_once(policy, npages, batched=False) for _ in range(repeats))
    # The no-tracer vs disabled-tracer comparison feeds a tight (<5 %)
    # ratio gate, so it needs a far lower-variance estimate than the
    # speedup ratio does.  Three defenses against timing noise:
    # * GC off during each timed pair (collections over the kernel's
    #   large object graph otherwise land in arbitrary runs);
    # * the ratio is computed *per adjacent pair*, so slow drift in
    #   machine state cancels within each sample;
    # * the order within a pair alternates — the first run after a
    #   gc.collect() is systematically slower (allocator/cache warm-up),
    #   and alternation makes that bias symmetric so the median of an
    #   even number of pairs cancels it.
    batched_times, disabled_times, overhead_ratios = [], [], []
    for i in range(2 * max(repeats, 5)):
        gc.collect()
        gc.disable()
        try:
            if i % 2 == 0:
                b = _run_once(policy, npages, batched=True)
                d = _run_once(policy, npages, batched=True, trace_mode="disabled")
            else:
                d = _run_once(policy, npages, batched=True, trace_mode="disabled")
                b = _run_once(policy, npages, batched=True)
        finally:
            gc.enable()
        batched_times.append(b)
        disabled_times.append(d)
        overhead_ratios.append(d / b - 1.0)
    batched_s = min(batched_times)
    disabled_s = min(disabled_times)
    return {
        "policy": policy,
        "pages": total_pages,
        "batched_s": round(batched_s, 4),
        "scalar_s": round(scalar_s, 4),
        "trace_disabled_s": round(disabled_s, 4),
        "batched_pages_per_s": round(total_pages / batched_s),
        "scalar_pages_per_s": round(total_pages / scalar_s),
        "speedup": round(scalar_s / batched_s, 2),
        "trace_overhead": round(statistics.median(overhead_ratios), 4),
    }


def format_touch_report(result: dict) -> str:
    """Human-readable rendering of a :func:`touch_benchmark` result."""
    return "\n".join([
        f"touch throughput ({result['policy']}, {result['pages']} pages touched)",
        f"  batched: {result['batched_s']:.3f}s"
        f"  ({result['batched_pages_per_s']:,} pages/s)",
        f"  scalar:  {result['scalar_s']:.3f}s"
        f"  ({result['scalar_pages_per_s']:,} pages/s)",
        f"  speedup: {result['speedup']:.2f}x",
        f"  tracing disabled-overhead: {result['trace_overhead']:+.1%}"
        f"  ({result['trace_disabled_s']:.3f}s with silent tracer)",
    ])


#: ceiling on the disabled-tracing overhead ratio (the tentpole's
#: zero-cost-when-disabled contract): an attached-but-silent tracer must
#: cost less than this fraction over the no-tracer run.
TRACE_OVERHEAD_CEILING = 0.05


def check_regression(result: dict, baseline: dict, tolerance: float = 0.25) -> list[str]:
    """Compare a fresh result against a checked-in baseline.

    Returns a list of failure messages (empty when within tolerance).
    The absolute-throughput check only fires on machines comparable to
    the baseline's; the batched/scalar *ratio* check is machine-neutral
    and is the one CI relies on.  The disabled-tracing overhead check is
    also machine-neutral (same-machine A/B within one result) and fails
    when the attached-but-silent tracepoint guards cost >= 5 %.
    """
    failures = []
    floor = baseline["speedup"] * (1 - tolerance)
    if result["speedup"] < floor:
        failures.append(
            f"batched/scalar speedup {result['speedup']:.2f}x fell below "
            f"{floor:.2f}x (baseline {baseline['speedup']:.2f}x - {tolerance:.0%})"
        )
    overhead = result.get("trace_overhead")
    if overhead is not None and overhead >= TRACE_OVERHEAD_CEILING:
        failures.append(
            f"disabled-tracing overhead {overhead:+.1%} reached the "
            f"{TRACE_OVERHEAD_CEILING:.0%} ceiling (tracepoints must be "
            "near-free when not emitting)"
        )
    return failures


# ---------------------------------------------------------------------- #
# epoch-engine throughput                                                 #
# ---------------------------------------------------------------------- #

#: huge regions the epoch microbenchmark keeps under sampling.
EPOCH_REGIONS = 2048
#: sampled epochs timed per measurement.
EPOCH_EPOCHS = 200
#: hard floor on the vectorized/scalar epoch speedup (machine-neutral).
EPOCH_SPEEDUP_FLOOR = 3.0


class _EpochBench(Workload):
    """Sparse grow + long serve — the sampler/ranker-dominated shape.

    ``stride_pages=512`` faults exactly one base page per huge region, so
    thousands of regions become access-bit-scan, EMA and access_map work
    without the fault cost of populating them densely.  The serve phase's
    profile keeps half the regions hot at high coverage and a quarter at
    low coverage, so every sample exercises EMA updates, idle marking and
    cross-bucket access_map churn.
    """

    name = "epoch-bench"

    def __init__(self, regions: int, serve_us: float):
        self.regions = regions
        self.serve_us = serve_us

    def build_phases(self) -> list[Phase]:
        """One sparse grow op, then a profiled serve phase."""
        profile = AccessProfile(specs=[
            RegionAccessSpec("heap", coverage=180, hot_start=0.0, hot_len=0.5),
            RegionAccessSpec("heap", coverage=40, hot_start=0.5, hot_len=0.25),
        ])
        return [
            Phase("grow", ops=[
                TouchOp("heap", npages=self.regions * PAGES_PER_HUGE,
                        stride_pages=PAGES_PER_HUGE),
            ]),
            Phase("serve", duration_us=self.serve_us, profile=profile),
        ]

    def mmap_bytes(self) -> int:
        """Virtual span: one huge region per sampled region."""
        return self.regions * PAGES_PER_HUGE * 4096


def _epoch_setup(policy: str, regions: int, serve_epochs: int,
                 vectorized: bool):
    """Build a kernel and drive the bench workload to its serve phase.

    ``epoch_us`` is set to the 30 s sampling interval so *every* epoch
    runs the access-bit sampler — the serve phase then measures the epoch
    engine, not idle wall-time bookkeeping.
    """
    reset_sim_state()
    scale = Scale(1 / 128)
    epoch_us = 30 * SEC
    kernel = make_kernel(
        2 * regions * PAGES_PER_HUGE * 4096 / scale.factor,
        policy, scale, epoch_us=epoch_us)
    kernel.vectorized = vectorized
    bench = _EpochBench(regions, (serve_epochs + 4) * epoch_us)
    run = kernel.spawn(bench)
    kernel.mmap(run.proc, bench.mmap_bytes(), "heap")
    guard = 0
    while not run.finished and run.phase_name() != "serve":
        kernel.run_epochs(1)
        guard += 1
        if guard > 10_000:
            raise RuntimeError("epoch benchmark never reached its serve phase")
    return kernel, run


def _run_epoch_once(policy: str, regions: int, epochs: int, vectorized: bool,
                    trace_mode: str = "off") -> float:
    """One timed serve-phase measurement; returns wall seconds.

    ``trace_mode`` mirrors :func:`_run_once`: ``"off"`` (bare),
    ``"disabled"`` (tracer, sampler, audit and heat monitor attached
    but gated off) or ``"on"``.
    """
    kernel, _run = _epoch_setup(policy, regions, epochs, vectorized)
    if trace_mode != "off":
        tracer = trace.attach(kernel)
        tracer.enabled = trace_mode == "on"
        sampler = telemetry.attach(kernel)
        sampler.enabled = trace_mode == "on"
        log = audit.attach(kernel)
        log.enabled = trace_mode == "on"
        monitor = heat.attach(kernel)
        monitor.enabled = trace_mode == "on"
    try:
        t0 = time.perf_counter()
        kernel.run_epochs(epochs)
        return time.perf_counter() - t0
    finally:
        if trace_mode != "off":
            trace.detach(kernel)
            telemetry.detach(kernel)
            audit.detach(kernel)
            heat.detach(kernel)


def _scan_speedup(policy: str, regions: int, iters: int = 30) -> float:
    """Scalar/vectorized ratio of the access-bit scan pass in isolation.

    Times repeated ``_sample_access_bits`` calls (which include the
    policy's on_sample ranking) on one prepared kernel, per mode, after a
    warm-up call each.
    """
    kernel, _run = _epoch_setup(policy, regions, serve_epochs=4,
                                vectorized=True)
    timings = {}
    for vectorized in (False, True):
        kernel.vectorized = vectorized
        kernel._sample_access_bits()  # warm caches / allocator state
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(iters):
                kernel._sample_access_bits()
            timings[vectorized] = time.perf_counter() - t0
        finally:
            gc.enable()
    return timings[False] / timings[True]


def epoch_benchmark(
    policy: str = "hawkeye-4kb", regions: int = EPOCH_REGIONS,
    epochs: int = EPOCH_EPOCHS, repeats: int = 3,
) -> dict:
    """Epoch-engine throughput, vectorized vs forced-scalar.

    The default policy is HawkEye with huge faults off, which keeps every
    region base-mapped: the sampler, EMA ranking and access_map churn
    stay maximal instead of collapsing once regions are promoted.
    Returns a JSON-friendly dict with best-of-``repeats`` wall times, the
    derived epochs/second, the vectorized/scalar speedup, the isolated
    access-scan speedup, and the disabled-tracing overhead measured with
    the same GC-paired A/B scheme as :func:`touch_benchmark`.
    """
    scalar_s = min(
        _run_epoch_once(policy, regions, epochs, vectorized=False)
        for _ in range(repeats))
    vector_times, overhead_ratios = [], []
    for i in range(2 * max(repeats, 4)):
        gc.collect()
        gc.disable()
        try:
            if i % 2 == 0:
                v = _run_epoch_once(policy, regions, epochs, vectorized=True)
                d = _run_epoch_once(policy, regions, epochs, vectorized=True,
                                    trace_mode="disabled")
            else:
                d = _run_epoch_once(policy, regions, epochs, vectorized=True,
                                    trace_mode="disabled")
                v = _run_epoch_once(policy, regions, epochs, vectorized=True)
        finally:
            gc.enable()
        vector_times.append(v)
        overhead_ratios.append(d / v - 1.0)
    vectorized_s = min(vector_times)
    return {
        "policy": policy,
        "regions": regions,
        "epochs": epochs,
        "vectorized_s": round(vectorized_s, 4),
        "scalar_s": round(scalar_s, 4),
        "vectorized_epochs_per_s": round(epochs / vectorized_s),
        "scalar_epochs_per_s": round(epochs / scalar_s),
        "speedup": round(scalar_s / vectorized_s, 2),
        "scan_speedup": round(_scan_speedup(policy, regions), 2),
        "trace_overhead": round(statistics.median(overhead_ratios), 4),
    }


def format_epoch_report(result: dict) -> str:
    """Human-readable rendering of an :func:`epoch_benchmark` result."""
    return "\n".join([
        f"epoch throughput ({result['policy']}, {result['regions']} regions"
        f" x {result['epochs']} sampled epochs)",
        f"  vectorized: {result['vectorized_s']:.3f}s"
        f"  ({result['vectorized_epochs_per_s']:,} epochs/s)",
        f"  scalar:     {result['scalar_s']:.3f}s"
        f"  ({result['scalar_epochs_per_s']:,} epochs/s)",
        f"  speedup: {result['speedup']:.2f}x"
        f"  (access-scan alone: {result['scan_speedup']:.2f}x)",
        f"  tracing disabled-overhead: {result['trace_overhead']:+.1%}",
    ])


def check_epoch_regression(result: dict, baseline: dict,
                           tolerance: float = 0.25) -> list[str]:
    """Gate an :func:`epoch_benchmark` result against its baseline.

    Machine-neutral: the vectorized/scalar speedup must clear both the
    hard :data:`EPOCH_SPEEDUP_FLOOR` and the baseline ratio minus
    ``tolerance``, and the disabled-tracing overhead must stay under the
    same <5 % ceiling the touch benchmark enforces.
    """
    failures = []
    floor = max(EPOCH_SPEEDUP_FLOOR, baseline["speedup"] * (1 - tolerance))
    if result["speedup"] < floor:
        failures.append(
            f"vectorized/scalar epoch speedup {result['speedup']:.2f}x fell "
            f"below {floor:.2f}x (baseline {baseline['speedup']:.2f}x - "
            f"{tolerance:.0%}, hard floor {EPOCH_SPEEDUP_FLOOR:.0f}x)"
        )
    scan_floor = baseline.get("scan_speedup", 0.0) * (1 - tolerance)
    if result.get("scan_speedup", 0.0) < scan_floor:
        failures.append(
            f"access-scan speedup {result.get('scan_speedup', 0.0):.2f}x "
            f"fell below {scan_floor:.2f}x "
            f"(baseline {baseline['scan_speedup']:.2f}x - {tolerance:.0%})"
        )
    overhead = result.get("trace_overhead")
    if overhead is not None and overhead >= TRACE_OVERHEAD_CEILING:
        failures.append(
            f"disabled-tracing overhead {overhead:+.1%} reached the "
            f"{TRACE_OVERHEAD_CEILING:.0%} ceiling on the vectorized "
            "epoch path"
        )
    return failures


def profile_epoch(policy: str = "hawkeye-4kb", regions: int = EPOCH_REGIONS,
                  epochs: int = EPOCH_EPOCHS, top: int = 25) -> str:
    """Profile one vectorized run of the epoch microbenchmark."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    return profile_target(
        lambda: _run_epoch_once(policy, regions, epochs, vectorized=True),
        f"epoch microbenchmark ({policy})",
        top,
    )


def profile_target(run, label: str, top: int = 25) -> str:
    """cProfile ``run()`` and return the cumulative-time hot-path report.

    ``run`` must be a plain callable: pytest-benchmark's timed loop
    cannot be profiled (it installs its own ``sys`` profiler hook), so
    callers pass the underlying experiment function instead.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative")
    out.write(f"hot paths: {label}\n")
    stats.print_stats(top)
    return out.getvalue()


def profile_touch(policy: str = "hawkeye-g", npages: int = TOUCH_PAGES, top: int = 25) -> str:
    """Profile one batched run of the touch microbenchmark."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    return profile_target(
        lambda: _run_once(policy, npages, batched=True),
        f"touch microbenchmark ({policy})",
        top,
    )
