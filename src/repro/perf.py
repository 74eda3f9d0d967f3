"""Performance harness for the simulator's hot paths.

One harness times the microbenchmarks of :data:`TARGETS` (``python -m
repro bench touch|epoch``): the best fast pass in calibration slices
(``fast_per_calib``) and a paused-observer kernel against a bare one
(``trace_overhead``).  :func:`benchmark` measures, :func:`format_report`
renders, :func:`check` applies :data:`GATES` to a baseline and
:func:`profile` runs one fast pass under cProfile, as
:func:`profile_target` does for any callable and :func:`profile_bench_file`
for a paper benchmark's experiment.  The workloads are self-contained,
so the paper benchmarks' tuning does not move them.
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

from repro import audit, heat, trace
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
#: iterations of one calibration slice; the loop is the bench's
#: (``bench/child.py``), so both harnesses time in the same unit.
CALIB_ITERS = 1_500_000
#: ceiling on the disabled-tracing overhead: a kernel with every observer
#: attached but paused must cost less than this fraction over a bare one.
TRACE_OVERHEAD_CEILING = 0.05
#: how far a calibrated time may rise above its baseline's.
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
    """Dense touch / free / re-touch; the pass's fault path is timed.

    The free is dense (the whole region) so the re-touch allocates from
    large coalesced blocks; a sparse free shreds physical memory into
    ~3-page extents and measures the fragmented path instead of fault
    throughput.  The free takes most of a pass, so only the time in
    ``Kernel.fault_range`` counts.  The :data:`TOUCH_STRIDE` touches are
    timed too, ungated.
    """

    name = "touch-bench"
    policy = "hawkeye-g"
    epoch_us = SEC
    unit = "pages"
    first_phase = "grow"
    span = "fault_range"

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
        strided = _TouchBench(self.npages, TOUCH_STRIDE)
        return {"stride": TOUCH_STRIDE,
                **_calibrated("strided", lambda: _spent(strided, self.span), repeats)}


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
    the sampler.  The pass's time in ``Kernel._sample_access_bits`` (the
    scan with the policy's ranking) is gated on its own too.
    """

    name = "epoch-bench"
    policy = "hawkeye-4kb"
    epoch_us = 30 * SEC
    unit = "epochs"
    first_phase = "serve"
    span = "run_epoch"
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
        return _calibrated("scan", lambda: _spent(self, "_sample_access_bits"), repeats)


#: the microbenchmarks by name.  Each workload class names its policy,
#: kernel epoch, the phase its timed pass starts at, the ``Kernel`` method
#: whose time in a pass is gated (``span``) and ``extra`` entries.
TARGETS = {"touch": _TouchBench, "epoch": _EpochBench}

#: every gate :func:`check` applies, as (target, key, label, bound).  A
#: ``trace_overhead`` row fails at or above ``bound``; a calibrated row
#: above its baseline's value times ``1 + bound``.
GATES = (
    ("touch", "fast_per_calib", "calibrated fault-path time", TOLERANCE),
    ("touch", "trace_overhead", "disabled-tracing overhead", TRACE_OVERHEAD_CEILING),
    ("epoch", "fast_per_calib", "calibrated epoch-engine time", TOLERANCE),
    ("epoch", "scan_per_calib", "calibrated access-scan time", TOLERANCE),
    ("epoch", "trace_overhead", "disabled-tracing overhead", TRACE_OVERHEAD_CEILING),
)


def calibrate() -> float:
    """Host seconds for one slice of a fixed pure-Python loop, the unit of
    every gated time: it slows with the host, which drifts up to 2x."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CALIB_ITERS):
        acc = (acc * 1103515245 + i) & 0xFFFF_FFFF
        table[acc & 1023] = i
    return time.perf_counter() - start


def _calibrated(name: str, measure, repeats: int) -> dict:
    """``<name>_s``, the best of ``repeats`` calls of ``measure`` (host
    seconds), and ``<name>_per_calib``, the median of each call's seconds
    over the mean of the slices timed just before and after it."""
    slices, times = [calibrate()], []
    for _ in range(repeats):
        times.append(measure())
        slices.append(calibrate())
    per_calib = [2 * t / (a + b) for t, a, b in zip(times, slices, slices[1:])]
    return {f"{name}_s": round(min(times), 4),
            f"{name}_per_calib": round(statistics.median(per_calib), 5)}


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


def _build(bench: Workload):
    """Spawn ``bench`` on a fresh kernel, driven to its timed pass (after
    a collection, so every pass starts from the same heap)."""
    gc.collect()
    reset_sim_state()
    # make_kernel takes the *full-scale* size; 2x headroom over the region
    # keeps the pressure paths (reclaim/swap) out of the measurement.
    scale = Scale(1 / 128)
    kernel = make_kernel(2 * bench.mmap_bytes() / scale.factor, bench.policy,
                         scale, epoch_us=bench.epoch_us)
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


def _spent(bench: Workload, span: str = "run_epoch") -> float:
    """Seconds one pass on a fresh kernel spends in ``Kernel.<span>``
    (by default the whole pass)."""
    run = _build(bench)
    inner, spent = getattr(run.kernel, span), [0.0]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = inner(*args, **kwargs)
        spent[0] += time.perf_counter() - t0
        return out

    setattr(run.kernel, span, timed)
    _timed([run])
    return spent[0]


def _paired(bench: Workload, pairs: int) -> tuple[float, int]:
    """Time ``pairs`` samples of a bare kernel against one with every
    observer paused: k :func:`_timed` passes of a fresh pair, k set once
    so a sample covers :data:`SAMPLE_FLOOR_S`, the pair's build and turn
    order alternating.  Returns the median ``paused / bare - 1`` and k."""
    passes = min(SAMPLE_MAX_PASSES, math.ceil(SAMPLE_FLOOR_S / _spent(bench)))
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


def benchmark(target: str, size: int | None = None, repeats: int = 5) -> dict:
    """Measure ``target`` (a :data:`TARGETS` name) at ``size`` pages or
    regions (default when ``None``): a JSON-friendly dict of ``repeats``
    fast passes (:func:`_calibrated`), the ``trace_overhead`` of
    ``repeats + 1`` samples (:func:`_paired`) and the target's extras."""
    bench = TARGETS[target]() if size is None else TARGETS[target](size)
    gc.collect()
    gc.freeze()  # each pass's collection then walks only what passes built
    try:
        fast = _calibrated("fast", lambda: _spent(bench, bench.span), repeats)
        overhead, passes = _paired(bench, repeats + 1)
        extra = bench.extra(repeats)
    finally:
        gc.unfreeze()
    return {"target": target, "policy": bench.policy, "work": bench.work,
            "unit": bench.unit, **fast, "trace_overhead": round(overhead, 4),
            "samples": repeats + 1, "passes": passes, **extra}


def format_report(result: dict) -> str:
    """Human-readable rendering of a :func:`benchmark` result."""
    work, unit, fast_s = result["work"], result["unit"], result["fast_s"]
    return "\n".join([
        f"{result['target']} microbenchmark ({result['policy']}, {work} {unit} per pass)",
        f"  fast: {fast_s:.3f}s  ({work / fast_s:,.0f} {unit}/s)",
        f"  tracing disabled-overhead: {result['trace_overhead']:+.1%}"
        f"  ({result['samples']} samples of {result['passes']} passes)",
        *(f"  {key}: {value:.5f} calibration slices"
          for key, value in result.items() if key.endswith("_per_calib")),
    ])


def check(result: dict, baseline: dict) -> list[str]:
    """Failure messages of ``result["target"]``'s :data:`GATES` rows
    (empty when all hold).  Fails closed on a baseline of another target
    and on a calibrated key missing from either side; a result without
    ``trace_overhead`` skips that row."""
    target = result["target"]
    if baseline.get("target") != target:
        return [f"baseline is for target {baseline.get('target')!r}, not {target!r}"]
    failures = []
    for key, label, bound in (row[1:] for row in GATES if row[0] == target):
        value, base = result.get(key), baseline.get(key)
        if key == "trace_overhead":
            if value is not None and value >= bound:
                failures.append(f"{label} {value:+.1%} reached the {bound:.0%}"
                                f" ceiling on the {target} path")
        elif value is None or base is None:
            side = "result" if value is None else "baseline"
            failures.append(f"{label}: the {side} has no {key}")
        elif value > (ceiling := base * (1 + bound)):
            failures.append(f"{label} {value:.5f} rose above {ceiling:.5f} "
                            f"(baseline {base:.5f} + {bound:.0%})")
    return failures


def profile(target: str) -> str:
    """cProfile one fast pass of ``target`` at its default size."""
    bench = TARGETS[target]()
    return profile_target(lambda: _spent(bench),
                          f"{target} microbenchmark ({bench.policy})")


def profile_bench_file(path, label: str) -> str | None:
    """cProfile one call of a paper benchmark file's ``run_policy`` (or
    ``run_config``) under hawkeye-g at 1/128 scale; None if it has
    neither.  The file's directory is on ``sys.path`` while it loads."""
    import importlib.util
    import inspect
    import sys

    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
        run = getattr(module, "run_policy", None) or getattr(module, "run_config", None)
        if run is None:
            return None
        fill = {"policy": "hawkeye-g", "label": "profile", "scale": Scale(1 / 128)}
        kwargs = {name: fill[name] for name in inspect.signature(run).parameters
                  if name in fill}
        return profile_target(lambda: run(**kwargs), label)
    finally:
        sys.path.remove(str(path.parent))


def profile_target(run, label: str) -> str:
    """cProfile ``run()`` and return the cumulative-time hot-path report.
    ``run`` must be a plain callable, not pytest-benchmark's timed loop
    (which installs its own ``sys`` profiler hook)."""
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
