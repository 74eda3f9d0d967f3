"""Performance harness for the simulator's hot paths.

One harness times the microbenchmarks of :data:`TARGETS` (``python -m
repro bench touch|epoch``): a fast pass against the same pass on a kernel
running :mod:`repro.oracle`'s references (``speedup``) and against a
kernel with every observer paused (``trace_overhead``).  :func:`benchmark`
measures, :func:`format_report` renders, :func:`check` applies
:data:`GATES` to a baseline and :func:`profile` runs one fast pass under
cProfile, as :func:`profile_target` does for any callable.  The workloads
are self-contained, so the paper benchmarks' tuning does not move them.
"""

from __future__ import annotations

import cProfile
import gc
import io
import math
import pstats
import statistics
import time
from contextlib import contextmanager

from repro import audit, heat, oracle, trace
from repro.experiments import Scale, make_kernel, reset_sim_state
from repro.metrics import telemetry
from repro.units import MB, PAGES_PER_HUGE, SEC
from repro.workloads.base import (
    AccessProfile,
    ContentSpec,
    FreeOp,
    Phase,
    RegionAccessSpec,
    TouchOp,
    Workload,
)

#: pages in the touch microbenchmark's region (256 MiB effective).
TOUCH_PAGES = 256 * MB // 4096
#: stride of the strided touch timing (the fleet's sparse batch tier).
TOUCH_STRIDE = 4
#: huge regions the epoch microbenchmark keeps under sampling.
EPOCH_REGIONS = 2048
#: sampled epochs in one timed epoch pass.
EPOCH_EPOCHS = 200
#: hard floor on the vectorized/scalar epoch speedup (machine-neutral).
EPOCH_SPEEDUP_FLOOR = 3.0
#: ceiling on the disabled-tracing overhead: a kernel with every observer
#: attached but paused must cost less than this fraction over a bare one.
TRACE_OVERHEAD_CEILING = 0.05
#: how far a speedup ratio may fall below its baseline's.
TOLERANCE = 0.25
#: host seconds of bare passes in one overhead sample: host speed shifts
#: up to 2x over tenths of a second, which this much work averages out.
SAMPLE_FLOOR_S = 0.5
#: most passes in one overhead sample, so tiny test sizes stay quick.
SAMPLE_MAX_PASSES = 32
#: host seconds a run advances before the next takes its turn: short next
#: to host speed shifts, long next to a kernel switch's cache refill.
TURN_S = 0.02


class _TouchBench(Workload):
    """Dense touch / free / re-touch — the fault-dominated shape.

    The free is dense (the whole region) so the re-touch allocates from
    large coalesced blocks; a sparse free shreds physical memory into
    ~3-page extents and measures the fragmented path for *both* modes
    instead of fault throughput.  Sparse frees are covered by the
    scalar-vs-batched equivalence tests.  The :data:`TOUCH_STRIDE`
    touches are timed too, ungated.
    """

    name = "touch-bench"
    policy = "hawkeye-g"
    epoch_us = SEC
    unit = "pages"
    first_phase = "grow"

    def __init__(self, npages: int = TOUCH_PAGES, stride: int = 1):
        self.npages = npages
        self.stride = stride
        self.work = 2 * npages  # grow + regrow both touch the full region

    def build_phases(self) -> list[Phase]:
        content = ContentSpec(first_nonzero=9)
        grow, regrow = (TouchOp("heap", npages=self.npages, stride_pages=self.stride,
                                content=content) for _ in range(2))
        return [
            Phase("grow", ops=[grow]),
            Phase("shrink", ops=[FreeOp("heap")]),
            Phase("regrow", ops=[regrow]),
        ]

    def mmap_bytes(self) -> int:
        return self.npages * 4096

    def extra(self, repeats: int) -> dict:
        fast_s, reference_s = _best(_TouchBench(self.npages, TOUCH_STRIDE), repeats)
        return {"stride": TOUCH_STRIDE, "strided_s": round(fast_s, 4),
                "strided_reference_s": round(reference_s, 4),
                "strided_speedup": round(reference_s / fast_s, 2)}


class _EpochBench(Workload):
    """Sparse grow + long serve — the sampler/ranker-dominated shape.

    ``stride_pages=512`` faults exactly one base page per huge region, so
    thousands of regions become access-bit-scan, EMA and access_map work
    without the fault cost of populating them densely.  The serve phase's
    profile keeps half the regions hot at high coverage and a quarter at
    low coverage, so every sample exercises EMA updates, idle marking and
    cross-bucket access_map churn.  HawkEye with huge faults off keeps
    regions base-mapped, so that work never collapses into promotions;
    ``epoch_us`` is the 30 s sampling interval, so every serve epoch runs
    the sampler.  The scan alone is timed too (``scan_speedup``).
    """

    name = "epoch-bench"
    policy = "hawkeye-4kb"
    epoch_us = 30 * SEC
    unit = "epochs"
    first_phase = "serve"
    work = EPOCH_EPOCHS

    def __init__(self, regions: int = EPOCH_REGIONS):
        self.regions = regions

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
            Phase("serve", duration_us=EPOCH_EPOCHS * self.epoch_us, profile=profile),
        ]

    def mmap_bytes(self) -> int:
        """Virtual span: one huge region per sampled region."""
        return self.regions * PAGES_PER_HUGE * 4096

    def extra(self, repeats: int) -> dict:
        return {"scan_speedup": round(_scan_speedup(self.regions), 2)}


#: the microbenchmarks by name.  Each workload class names its policy,
#: kernel epoch, the phase its timed pass (the rest of the workload)
#: starts at, and ``extra`` result entries (``*_speedup`` ones reported).
TARGETS = {"touch": _TouchBench, "epoch": _EpochBench}

#: every gate :func:`check` applies, as (target, key, label, bound).  A
#: ``trace_overhead`` row fails at or above ``bound``; a ratio row below
#: its baseline's less :data:`TOLERANCE`, or below ``bound`` if higher.
GATES = (
    ("touch", "speedup", "batched/scalar speedup", 0.0),
    ("touch", "trace_overhead", "disabled-tracing overhead", TRACE_OVERHEAD_CEILING),
    ("epoch", "speedup", "vectorized/scalar epoch speedup", EPOCH_SPEEDUP_FLOOR),
    ("epoch", "scan_speedup", "access-scan speedup", 0.0),
    ("epoch", "trace_overhead", "disabled-tracing overhead", TRACE_OVERHEAD_CEILING),
)


@contextmanager
def _observers(kernel):
    """Attach tracer, telemetry sampler, audit and heat monitor, all
    paused (the state the <5 % overhead gate measures), for the block."""
    observers = (trace, telemetry, audit, heat)
    for mod in observers:
        mod.attach(kernel).enabled = False
    try:
        yield
    finally:
        for mod in observers:
            mod.detach(kernel)


def _build(bench: Workload, reference: bool = False):
    """Spawn ``bench`` on a fresh kernel (``reference``: with the oracle
    installed) and drive it to its timed pass.  Collecting first frees
    earlier kernels: each pass starts from the same heap."""
    gc.collect()
    reset_sim_state()
    # make_kernel takes the *full-scale* size; 2x headroom over the region
    # keeps the pressure paths (reclaim/swap) out of the measurement.
    scale = Scale(1 / 128)
    kernel = make_kernel(2 * bench.mmap_bytes() / scale.factor, bench.policy,
                         scale, epoch_us=bench.epoch_us)
    if reference:
        oracle.install(kernel)
    run = kernel.spawn(bench)
    kernel.mmap(run.proc, bench.mmap_bytes(), "heap")
    for _ in range(10_000):
        if run.phase_name() == bench.first_phase:
            return run
        kernel.run_epoch()
    raise RuntimeError(f"{bench.name} never reached its {bench.first_phase} phase")


def _timed(runs) -> list[float]:
    """Seconds each of ``runs`` takes to finish its workload, GC off; the
    runs take turns of :data:`TURN_S`, the order flipping every turn."""
    totals = [0.0] * len(runs)
    gc.disable()
    try:
        for turn in range(20_000):
            if all(run.finished for run in runs):
                return totals
            for i in (range(len(runs)) if turn % 2 == 0 else reversed(range(len(runs)))):
                t0 = now = time.perf_counter()
                while not runs[i].finished and now - t0 < TURN_S:
                    runs[i].kernel.run_epoch()
                    now = time.perf_counter()
                totals[i] += now - t0
    finally:
        gc.enable()
    raise RuntimeError("a benchmark pass did not finish within 20,000 turns")


def _pass(bench: Workload, reference: bool = False) -> float:
    """Seconds of one pass on its own freshly built kernel."""
    return _timed([_build(bench, reference)])[0]


def _best(bench: Workload, repeats: int) -> tuple[float, float]:
    """Best of ``repeats`` fast and ``repeats`` reference passes, taken in
    turns so that both sides meet the same spread of host speeds."""
    times = ([], [])
    for i in range(repeats):
        for reference in ((False, True) if i % 2 == 0 else (True, False)):
            times[reference].append(_pass(bench, reference))
    return min(times[0]), min(times[1])


def _paired(bench: Workload, pairs: int) -> tuple[float, int]:
    """Time ``pairs`` samples of a bare kernel against one with every
    observer paused: k :func:`_timed` passes of a fresh pair, k set once
    so a sample covers :data:`SAMPLE_FLOOR_S`, the pair's build and turn
    order alternating.  Returns the median ``paused / bare - 1`` and k."""
    passes = min(SAMPLE_MAX_PASSES, math.ceil(SAMPLE_FLOOR_S / _pass(bench)))
    ratios = []
    for _ in range(pairs):
        totals = [0.0, 0.0]
        for i in range(passes):
            runs = [_build(bench), _build(bench)]
            paused = i % 2
            with _observers(runs[paused].kernel):
                times = _timed(runs)
            totals[0] += times[1 - paused]
            totals[1] += times[paused]
        ratios.append(totals[1] / totals[0] - 1.0)
    return statistics.median(ratios), passes


def _scan_speedup(regions: int, iters: int = 30) -> float:
    """Reference/vectorized ratio of the access-bit scan pass alone:
    ``_sample_access_bits`` calls (with the policy's on_sample ranking)
    on an oracle-installed and a plain kernel, each after a warm-up."""
    timings = []
    for reference in (True, False):
        kernel = _build(_EpochBench(regions), reference).kernel
        kernel._sample_access_bits()  # warm caches / allocator state
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(iters):
                kernel._sample_access_bits()
            timings.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    return timings[0] / timings[1]


def benchmark(target: str, size: int | None = None, repeats: int = 3) -> dict:
    """Measure ``target`` (a :data:`TARGETS` name) at ``size`` pages or
    regions (its default when ``None``): a JSON-friendly dict of the best
    fast and reference pass (:func:`_best`), their ``speedup``, the
    ``trace_overhead`` of ``2 * repeats`` samples (:func:`_paired`) and
    the target's extra entries."""
    bench = TARGETS[target]() if size is None else TARGETS[target](size)
    gc.collect()
    gc.freeze()  # each pass's collection then walks only what passes built
    try:
        fast_s, reference_s = _best(bench, repeats)
        overhead, passes = _paired(bench, 2 * repeats)
        extra = bench.extra(repeats)
    finally:
        gc.unfreeze()
    return {"target": target, "policy": bench.policy, "work": bench.work,
            "unit": bench.unit, "fast_s": round(fast_s, 4),
            "reference_s": round(reference_s, 4), "speedup": round(reference_s / fast_s, 2),
            "trace_overhead": round(overhead, 4), "samples": 2 * repeats,
            "passes": passes, **extra}


def format_report(result: dict) -> str:
    """Human-readable rendering of a :func:`benchmark` result."""
    work, unit = result["work"], result["unit"]
    return "\n".join([
        f"{result['target']} microbenchmark ({result['policy']}, {work} {unit} per pass)",
        *(f"  {side}: {result[side + '_s']:.3f}s  ({work / result[side + '_s']:,.0f} {unit}/s)"
          for side in ("fast", "reference")),
        f"  tracing disabled-overhead: {result['trace_overhead']:+.1%}"
        f"  ({result['samples']} samples of {result['passes']} passes)",
        *(f"  {key}: {value:.2f}x" for key, value in result.items() if key.endswith("speedup")),
    ])


def check(result: dict, baseline: dict) -> list[str]:
    """Failure messages of ``result["target"]``'s :data:`GATES` rows
    (empty when all hold); a result without ``trace_overhead`` skips it."""
    failures = []
    for target, key, label, bound in GATES:
        if target != result["target"]:
            continue
        if key == "trace_overhead":
            value = result.get(key)
            if value is not None and value >= bound:
                failures.append(f"{label} {value:+.1%} reached the {bound:.0%}"
                                f" ceiling on the {target} path")
            continue
        value, base = result.get(key, 0.0), baseline.get(key, 0.0)
        floor = max(bound, base * (1 - TOLERANCE))
        if value < floor:
            hard = f", hard floor {bound:.0f}x" if bound else ""
            failures.append(f"{label} {value:.2f}x fell below {floor:.2f}x "
                            f"(baseline {base:.2f}x - {TOLERANCE:.0%}{hard})")
    return failures


def profile(target: str) -> str:
    """cProfile one fast pass of ``target`` at its default size."""
    bench = TARGETS[target]()
    return profile_target(lambda: _pass(bench),
                          f"{target} microbenchmark ({bench.policy})")


def profile_target(run, label: str) -> str:
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
    stats.print_stats(25)
    return out.getvalue()
