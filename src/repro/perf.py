"""Performance harness for the simulator's hot paths.

Two entry points, both reachable through ``python -m repro bench``:

* :func:`touch_benchmark` — the touch-throughput microbenchmark: a dense
  fault-heavy workload (touch, free, re-touch) run once through the
  batched fault fast path and once on a kernel running the per-page
  references of :mod:`repro.oracle`.  Reporting both gives a
  machine-independent speedup ratio (used by CI) next to the absolute
  pages/second (used for baselines).  The same workload touching every
  :data:`TOUCH_STRIDE`-th page is timed the same way and reported
  beside it, ungated.
* :func:`epoch_benchmark` — the same scheme for the vectorized epoch
  engine (access-bit sampling, access_map ranking, NUMA harvest).
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
from contextlib import contextmanager

from repro import audit, heat, oracle, trace
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
#: stride of the strided touch timing (the fleet's sparse batch tier).
TOUCH_STRIDE = 4


class _TouchBench(Workload):
    """Dense touch / free / re-touch — the fault-dominated shape.

    The free is dense (the whole region) so the re-touch allocates from
    large coalesced blocks; a sparse free shreds physical memory into
    ~3-page extents and measures the fragmented path for *both* modes
    instead of fault throughput.  Sparse frees are covered by the
    scalar-vs-batched equivalence tests.
    """

    name = "touch-bench"

    def __init__(self, npages: int, stride: int = 1):
        self.npages = npages
        self.stride = stride

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


@contextmanager
def _observers(kernel, trace_mode: str):
    """Attach tracer, telemetry sampler, audit and heat monitor for the
    block, emitting (``"on"``) or with every gate off (``"disabled"``,
    the state the <5 % overhead gate measures); ``"off"`` attaches none.
    """
    if trace_mode == "off":
        yield
        return
    observers = (trace, telemetry, audit, heat)
    for mod in observers:
        mod.attach(kernel).enabled = trace_mode == "on"
    try:
        yield
    finally:
        for mod in observers:
            mod.detach(kernel)


def _paired(run_a, run_b, pairs: int) -> tuple[float, float, float]:
    """Time ``pairs`` adjacent (a, b) runs for a tight ratio gate.

    Returns the best a and b times and the median per-pair ``b / a - 1``.
    GC is off during each pair (collections over the kernel's object
    graph land in arbitrary runs), per-pair ratios cancel slow drift, and
    the order alternates so the post-``gc.collect()`` warm-up bias
    cancels in the median.
    """
    runs, times = (run_a, run_b), ([], [])
    for i in range(pairs):
        gc.collect()
        gc.disable()
        try:
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[k].append(runs[k]())
        finally:
            gc.enable()
    ratios = [b / a - 1.0 for a, b in zip(*times)]
    return min(times[0]), min(times[1]), statistics.median(ratios)


def _run_once(policy: str, npages: int, reference: bool = False,
              trace_mode: str = "off", stride: int = 1) -> float:
    """One timed run; returns wall seconds.

    ``reference`` runs the kernel with :func:`repro.oracle.install`'s
    per-page fault and unmap loops; ``trace_mode`` selects the
    observability state under test (see :func:`_observers`); ``stride``
    touches every ``stride``-th page of the region.
    """
    reset_sim_state()
    # make_kernel takes the *full-scale* size; 2x headroom over the region
    # keeps the pressure paths (reclaim/swap) out of the measurement.
    scale = Scale(1 / 128)
    kernel = make_kernel(2 * npages * 4096 / scale.factor, policy, scale)
    if reference:
        oracle.install(kernel)
    with _observers(kernel, trace_mode):
        bench = _TouchBench(npages, stride)
        run = kernel.spawn(bench)
        kernel.mmap(run.proc, bench.mmap_bytes(), "heap")
        t0 = time.perf_counter()
        kernel.run(max_epochs=20000)
        elapsed = time.perf_counter() - t0
    if not run.finished:
        raise RuntimeError("touch benchmark did not finish within the epoch cap")
    return elapsed


def touch_benchmark(
    policy: str = "hawkeye-g", npages: int = TOUCH_PAGES, repeats: int = 3
) -> dict:
    """Touch-throughput microbenchmark, batched vs per-page reference.

    Returns a JSON-friendly dict with the best-of-``repeats`` wall time
    for each mode, the derived pages/second, and the batched/scalar
    speedup ratio.  A third configuration, every observer attached but
    silent (``trace_mode="disabled"``), yields ``trace_overhead``: the
    cost of the guards relative to the bare run, gated below 5 %.  The
    ``strided_*`` entries time the stride-:data:`TOUCH_STRIDE` touch,
    batched and per-page, best of ``repeats`` each; no check reads them.
    """
    total_pages = 2 * npages  # grow + regrow both touch the full region
    scalar_s = min(_run_once(policy, npages, reference=True) for _ in range(repeats))
    batched_s, disabled_s, overhead = _paired(
        lambda: _run_once(policy, npages),
        lambda: _run_once(policy, npages, trace_mode="disabled"),
        2 * max(repeats, 5),
    )
    strided_s, strided_scalar_s = (
        min(_run_once(policy, npages, reference=reference, stride=TOUCH_STRIDE)
            for _ in range(repeats))
        for reference in (False, True))
    return {
        "policy": policy,
        "pages": total_pages,
        "batched_s": round(batched_s, 4),
        "scalar_s": round(scalar_s, 4),
        "trace_disabled_s": round(disabled_s, 4),
        "batched_pages_per_s": round(total_pages / batched_s),
        "scalar_pages_per_s": round(total_pages / scalar_s),
        "speedup": round(scalar_s / batched_s, 2),
        "trace_overhead": round(overhead, 4),
        "stride": TOUCH_STRIDE,
        "strided_batched_s": round(strided_s, 4),
        "strided_scalar_s": round(strided_scalar_s, 4),
        "strided_speedup": round(strided_scalar_s / strided_s, 2),
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
        f"  stride {result['stride']}: batched {result['strided_batched_s']:.3f}s, scalar"
        f" {result['strided_scalar_s']:.3f}s, speedup {result['strided_speedup']:.2f}x"
        " (not gated)",
    ])


#: ceiling on the disabled-tracing overhead ratio (the tentpole's
#: zero-cost-when-disabled contract): an attached-but-silent tracer must
#: cost less than this fraction over the no-tracer run.
TRACE_OVERHEAD_CEILING = 0.05


def check_regression(result: dict, baseline: dict, tolerance: float = 0.25) -> list[str]:
    """Compare a fresh result against a checked-in baseline.

    Returns a list of failure messages (empty when within tolerance).
    Both checks are machine-neutral same-machine A/Bs: the batched/scalar
    speedup must stay within ``tolerance`` of the baseline's, and the
    attached-but-silent tracepoint guards must cost < 5 %.
    """
    return (_ratio_failures("batched/scalar speedup", "speedup", result,
                            baseline, tolerance)
            + _overhead_failures(
                result, "(tracepoints must be near-free when not emitting)"))


def _ratio_failures(label: str, key: str, result: dict, baseline: dict,
                    tolerance: float, hard_floor: float = 0.0) -> list[str]:
    """Fail when ``result[key]`` drops below the baseline's ratio minus
    ``tolerance`` (or below ``hard_floor``, whichever is higher)."""
    base = baseline.get(key, 0.0)
    floor = max(hard_floor, base * (1 - tolerance))
    value = result.get(key, 0.0)
    if value >= floor:
        return []
    hard = f", hard floor {hard_floor:.0f}x" if hard_floor else ""
    return [f"{label} {value:.2f}x fell below {floor:.2f}x "
            f"(baseline {base:.2f}x - {tolerance:.0%}{hard})"]


def _overhead_failures(result: dict, where: str) -> list[str]:
    """The disabled-tracing overhead gate shared by both benchmarks."""
    overhead = result.get("trace_overhead")
    if overhead is None or overhead < TRACE_OVERHEAD_CEILING:
        return []
    return [f"disabled-tracing overhead {overhead:+.1%} reached the "
            f"{TRACE_OVERHEAD_CEILING:.0%} ceiling {where}"]


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
                 reference: bool = False):
    """Build a kernel and drive the bench workload to its serve phase.

    ``epoch_us`` is set to the 30 s sampling interval so *every* epoch
    runs the access-bit sampler — the serve phase then measures the epoch
    engine, not idle wall-time bookkeeping.  ``reference`` installs the
    per-region loops of :mod:`repro.oracle` on the kernel.
    """
    reset_sim_state()
    scale = Scale(1 / 128)
    epoch_us = 30 * SEC
    kernel = make_kernel(
        2 * regions * PAGES_PER_HUGE * 4096 / scale.factor,
        policy, scale, epoch_us=epoch_us)
    if reference:
        oracle.install(kernel)
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


def _run_epoch_once(policy: str, regions: int, epochs: int,
                    reference: bool = False, trace_mode: str = "off") -> float:
    """One timed serve-phase measurement (arguments as :func:`_run_once`)."""
    kernel, _run = _epoch_setup(policy, regions, epochs, reference)
    with _observers(kernel, trace_mode):
        t0 = time.perf_counter()
        kernel.run_epochs(epochs)
        return time.perf_counter() - t0


def _scan_speedup(policy: str, regions: int, iters: int = 30) -> float:
    """Reference/vectorized ratio of the access-bit scan pass in isolation.

    Times repeated ``_sample_access_bits`` calls (which include the
    policy's on_sample ranking) on two kernels prepared by the same
    :func:`_epoch_setup` — one plain, one with the oracle installed —
    each after a warm-up call.
    """
    timings = []
    for reference in (True, False):
        kernel, _run = _epoch_setup(policy, regions, serve_epochs=4,
                                    reference=reference)
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


def epoch_benchmark(
    policy: str = "hawkeye-4kb", regions: int = EPOCH_REGIONS,
    epochs: int = EPOCH_EPOCHS, repeats: int = 3,
) -> dict:
    """Epoch-engine throughput, vectorized vs per-region reference.

    The default policy is HawkEye with huge faults off, which keeps every
    region base-mapped: the sampler, EMA ranking and access_map churn
    stay maximal instead of collapsing once regions are promoted.
    Returns a JSON-friendly dict with best-of-``repeats`` wall times, the
    derived epochs/second, the vectorized/scalar speedup, the isolated
    access-scan speedup, and the disabled-tracing overhead measured with
    the same GC-paired A/B scheme as :func:`touch_benchmark`.
    """
    scalar_s = min(
        _run_epoch_once(policy, regions, epochs, reference=True)
        for _ in range(repeats))
    vectorized_s, _disabled_s, overhead = _paired(
        lambda: _run_epoch_once(policy, regions, epochs),
        lambda: _run_epoch_once(policy, regions, epochs, trace_mode="disabled"),
        2 * max(repeats, 4),
    )
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
        "trace_overhead": round(overhead, 4),
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
    return (_ratio_failures("vectorized/scalar epoch speedup", "speedup",
                            result, baseline, tolerance, EPOCH_SPEEDUP_FLOOR)
            + _ratio_failures("access-scan speedup", "scan_speedup",
                              result, baseline, tolerance)
            + _overhead_failures(result, "on the vectorized epoch path"))


def profile_epoch(policy: str = "hawkeye-4kb", regions: int = EPOCH_REGIONS,
                  epochs: int = EPOCH_EPOCHS, top: int = 25) -> str:
    """Profile one vectorized run of the epoch microbenchmark."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    return profile_target(
        lambda: _run_epoch_once(policy, regions, epochs),
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
        lambda: _run_once(policy, npages),
        f"touch microbenchmark ({policy})",
        top,
    )
