"""One measured workload run, in a fresh interpreter pinned to one CPU.

Invoked by ``python -m bench run`` as ``python -m bench.child '<spec>'``
with ``src`` on ``PYTHONPATH``; prints one JSON report as its last line
of standard output.  The spec names the workload, seed, time budget and
mode:

* ``e2e`` — back-to-back captured sweeps of the workload's cells
  (``run_sweep(cells, jobs=1, force=True)`` into a fresh temporary
  cache) until the budget is spent; end-to-end metrics are medians over
  these passes, in reference seconds (see :data:`CALIB_REF_S`), with the
  measured seconds reported beside them.
* ``trace`` — at least two rounds of one untraced sweep, one traced
  sweep and one bare pass (``execute_cell``, no capture, which prices
  the inline capture cost); reports the per-layer metrics, each the
  median over rounds.

Every cell execution is checked by a :class:`Checker`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from bench.spans import (
    ROOT,
    SpanRecorder,
    layer_of,
    layer_total_s,
    summarize,
    write_chrome_trace,
)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: iterations of one calibration slice.
CALIB_ITERS = 1_500_000
#: seconds one slice takes on an idle core of the reference host (the
#: shared 2-vCPU x86_64 machine the bounds were set on).  End-to-end host
#: times are reported in *reference seconds*: each pass's measured time
#: divided by the host's slowdown around that pass, i.e. the mean of the
#: slices timed just before and just after it over this constant.  The
#: host's speed drifts by up to 2x for minutes at a time, and a fixed
#: pure-Python loop slows with it; measured seconds spread by 18-62%
#: over ten runs where reference seconds spread by 5-23%.
CALIB_REF_S = 0.25
#: candidate tail percentiles in tenths of a percent, highest first; the
#: tail reported is the highest one with at least ten samples beyond it.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def calibrate() -> float:
    """Host seconds for one slice of a fixed pure-Python loop."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CALIB_ITERS):
        acc = (acc * 1103515245 + i) & 0xFFFF_FFFF
        table[acc & 1023] = i
    return time.perf_counter() - start


def pin_cpu() -> None:
    """Pin this process to the highest CPU it may run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def result_digest(result) -> str:
    """Short content digest of a JSON-able simulated result."""
    blob = json.dumps(result, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def simulated_digest(result: dict, telemetry: list[dict]) -> str:
    """Digest of a cell's result plus its telemetry's simulated scalars.

    The scalars (per-subsystem event counts and simulated spans, latency
    percentiles, decision funnels, heat and fleet totals) are
    deterministic for a fixed source tree and far finer than most result
    dicts, so a change to any simulated statistic shows.
    """
    from repro.metrics.telemetry import RunTelemetry

    scalars = [RunTelemetry.from_dict(a).scalar_metrics() for a in telemetry]
    return result_digest({"result": result, "telemetry": scalars})


def _rank(n: int, permille: int) -> int:
    """1-based nearest rank of the ``permille``/10 percentile of ``n`` samples."""
    return max(1, -(-n * permille // 1000))


def tail_percentile(n: int) -> float:
    """Highest of :data:`TAIL_PERMILLE` (as a percentile) with >= 10 of
    ``n`` samples beyond it."""
    for permille in TAIL_PERMILLE:
        if n - _rank(n, permille) >= 10:
            return permille / 10
    return 50.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[_rank(len(sorted_values), round(pct * 10)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Checker:
    """Counts cell executions and the ones whose output is wrong.

    A captured execution must repeat the first pass's :func:`simulated_digest`
    and match the blessed one; a bare execution (no telemetry) must
    repeat the first pass's result digest.
    """

    def __init__(self, blessed: dict[str, str]):
        self.blessed = blessed
        #: cell_id -> simulated digest of the first captured execution.
        self.digests: dict[str, str] = {}
        self._results: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, cell_id: str, status: str, result, error: str | None,
              telemetry: list[dict] | None = None) -> None:
        """Record one execution; a failure is a bad status or a wrong digest."""
        self.attempted += 1
        problem = None
        if status != "ok":
            last = (error or "").strip().splitlines()[-1:] or [""]
            problem = f"{status}: {last[0]}"
        else:
            digest = result_digest(result)
            first = self._results.setdefault(cell_id, digest)
            if digest != first:
                problem = f"result {digest} differs from the first pass's {first}"
            elif telemetry is not None:
                digest = simulated_digest(result, telemetry)
                first = self.digests.setdefault(cell_id, digest)
                want = self.blessed.get(cell_id)
                if digest != first:
                    problem = f"simulated {digest} differs from the first pass's {first}"
                elif want is not None and digest != want:
                    problem = f"simulated {digest} differs from the blessed {want}"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{cell_id}: {problem}")


def load_blessed(seed: int) -> dict[str, str]:
    """cell_id -> blessed digest for ``seed`` (empty when none exist)."""
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)["seeds"].get(str(seed), {})
    except FileNotFoundError:
        return {}


def artifact_counters(outcomes) -> dict[str, float]:
    """Final vmstat counters and fleet totals summed over every artifact."""
    out: dict[str, float] = {}
    for outcome in outcomes:
        for artifact in outcome.telemetry or ():
            scrapes = artifact.get("scrapes") or [{}]
            vmstat = scrapes[-1].get("counters", {}).get("vmstat", {})
            for key, value in vmstat.items():
                name = key.partition("=")[2]
                out[name] = out.get(name, 0) + value
            fleet = artifact.get("fleet") or {}
            for key in ("spawned", "exited"):
                out[f"fleet_{key}"] = out.get(f"fleet_{key}", 0) + fleet.get(key, 0)
    return out


class Runner:
    """The passes of one child run over one workload's cells."""

    def __init__(self, cells, timer, checker):
        self.cells = cells
        self.timer = timer
        self.checker = checker

    def sweep(self, recorder: SpanRecorder | None = None) -> dict:
        """One captured ``run_sweep`` of every cell into a fresh cache."""
        from repro.runner import scheduler
        from repro.runner.cache import ResultCache

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR))
        self.timer.reset()
        try:
            root = recorder.span(ROOT) if recorder is not None else nullcontext()
            start = time.perf_counter()
            with root:
                report = scheduler.run_sweep(self.cells, jobs=1, force=True,
                                             cache=ResultCache(tmp))
            wall = time.perf_counter() - start
            envelope_bytes = sum(p.stat().st_size for p in tmp.rglob("*.json"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for outcome in report.outcomes:
            self.checker.check(outcome.cell.cell_id, outcome.status,
                               outcome.result, outcome.error, outcome.telemetry)
        return {**self._loop_totals(), "wall_s": wall,
                "envelope_mb": envelope_bytes / 2**20,
                "counters": artifact_counters(report.outcomes)}

    def traced_sweep(self) -> tuple[dict, list[tuple]]:
        """One :meth:`sweep` with every entry point wrapped; returns the
        pass and its spans."""
        recorder = SpanRecorder()
        self.timer.spans = recorder
        recorder.install()
        try:
            pass_ = self.sweep(recorder)
        finally:
            recorder.uninstall()
            self.timer.spans = None
        return pass_, recorder.spans

    def bare(self) -> dict:
        """Every cell through ``execute_cell`` with no telemetry capture."""
        from repro.runner.registry import execute_cell

        self.timer.reset()
        for cell in self.cells:
            try:
                result, status, error = execute_cell(cell), "ok", None
            except Exception:
                result, status, error = None, "failed", traceback.format_exc()
            self.checker.check(cell.cell_id, status, result, error)
        return self._loop_totals()

    def _loop_totals(self) -> dict:
        cells = self.timer.cells
        loop_s = sum(c.loop_s for c in cells)
        sim_s = sum(c.sim_s for c in cells)
        return {"setup_s": sum(c.setup_s for c in cells), "loop_s": loop_s,
                "sim_s": sim_s, "sim_s_per_s": _ratio(sim_s, loop_s)}


def layer_metrics(spans: list[list], traced: dict) -> dict[str, float]:
    """The per-layer metrics one traced pass gives on its own.

    Every time here is of a layer or entry point that all four workloads
    reach, so none reads 0 by construction; entry points that only some
    workloads reach (per-page faults, exits, promotion, fleet, TLB) are
    reported as call counts, and their times are in :func:`layer_table`,
    the Chrome trace and the trajectory file's ``entry_points``.
    """
    summary = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0}

    def get(name: str) -> dict:
        return summary.get(name, empty)

    counters = traced["counters"]
    epoch_ms = sorted((s[2] - s[1]) * 1e3 for s in spans
                      if s[0] == "kernel.run_epoch")
    tail = tail_percentile(len(epoch_ms))
    parents = {s[3] for s in spans}
    quiet = sum(1 for i, s in enumerate(spans)
                if s[0] == "workloads.step" and i not in parents)
    step = get("workloads.step")
    faults = counters.get("pgfault", 0)
    fault_s = layer_total_s(spans, "fault")
    promote = get("policy.promote")
    root = get(ROOT)
    return {
        "runner.execute_s": get("runner.execute")["total_s"],
        "runner.finalize_s": (get("runner.cell")["self_s"]
                              + get("runner.end_capture")["total_s"]),
        "runner.cache_put_s": get("runner.cache_put")["total_s"],
        "runner.envelope_mb": traced["envelope_mb"],
        "trace.events": counters.get("trace_events", 0),
        "audit.decisions": counters.get("audit_decisions", 0),
        "heat.on_sample_s": get("obs.heat")["total_s"],
        "telemetry.scrape_s": get("obs.scrape")["total_s"],
        "setup.s": layer_total_s(spans, "setup"),
        "setup.kernel_init_s": get("setup.make_kernel")["total_s"],
        "kernel.epochs": len(epoch_ms),
        "kernel.epoch_ms_p50": percentile(epoch_ms, 50.0),
        "kernel.epoch_ms_tail": percentile(epoch_ms, tail),
        "kernel.epoch_tail_pct": tail,
        "kernel.run_epoch.self_s": get("kernel.run_epoch")["self_s"],
        "kernel.sample.self_s": get("kernel.sample")["self_s"],
        "kernel.sample.calls": get("kernel.sample")["calls"],
        "workloads.step.self_s": step["self_s"],
        "workloads.step.calls": step["calls"],
        "workloads.step.quiescent_ratio": _ratio(quiet, step["calls"]),
        "fault.s": fault_s,
        "fault.range_s": get("fault.range")["total_s"],
        "fault.range_calls": get("fault.range")["calls"],
        "fault.page_calls": get("fault.page")["calls"],
        "fault.faults": faults,
        "fault.ns_per_fault": _ratio(fault_s * 1e9, faults),
        "lifecycle.s": layer_total_s(spans, "lifecycle"),
        "unmap.calls": get("lifecycle.madvise_free")["calls"],
        "exit.calls": get("lifecycle.exit")["calls"],
        "spawn.s": get("lifecycle.spawn")["total_s"],
        "compaction.s": layer_total_s(spans, "compaction"),
        "compaction.calls": get("compaction.run")["calls"],
        "compaction.pages_moved": counters.get("compact_pages_moved", 0),
        "policy.s": layer_total_s(spans, "policy"),
        "policy.on_epoch.self_s": get("policy.on_epoch")["self_s"],
        "policy.on_sample_s": get("policy.on_sample")["total_s"],
        "promotion.s": get("policy.promotion")["total_s"],
        "promote.calls": promote["calls"],
        "promote.ok_ratio": _ratio(promote["ok"], promote["calls"]),
        "prezero.s": get("policy.prezero")["total_s"],
        "bloat.s": get("policy.bloat")["total_s"],
        "demote.calls": get("policy.demote")["calls"],
        "dedup.calls": get("policy.dedup")["calls"],
        "tlb.mmu_epoch_calls": get("tlb.mmu_epoch")["calls"],
        "fleet.spawned": counters.get("fleet_spawned", 0),
        "fleet.exited": counters.get("fleet_exited", 0),
        "unattributed_share": _ratio(root["self_s"], root["total_s"]),
    }


def layer_table(spans: list[list]) -> list[list]:
    """``[layer, self_s, share_of_traced_wall, calls]`` rows, largest first."""
    summary = summarize(spans)
    wall = summary[ROOT]["total_s"]
    rows: dict[str, list] = {}
    for name, entry in summary.items():
        layer = "unattributed" if name == ROOT else layer_of(name)
        row = rows.setdefault(layer, [layer, 0.0, 0.0, 0])
        row[1] += entry["self_s"]
        row[3] += 0 if name == ROOT else entry["calls"]
    for row in rows.values():
        row[2] = _ratio(row[1], wall)
    return sorted(rows.values(), key=lambda r: -r[1])


def _median_of(dicts: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _measured(pass_: dict) -> dict[str, float]:
    """A pass's end-to-end host times, in measured seconds."""
    return {k: pass_[k] for k in ("wall_s", "setup_s", "sim_s_per_s")}


def _reference(pass_: dict) -> dict[str, float]:
    """A pass's end-to-end host times in reference seconds (see CALIB_REF_S)."""
    slowdown = pass_["slowdown"]
    return {"wall_s": pass_["wall_s"] / slowdown,
            "setup_s": pass_["setup_s"] / slowdown,
            "sim_s_per_s": pass_["sim_s_per_s"] * slowdown}


def prepare(spec: dict) -> Runner:
    """Process set-up: import the simulator, register the bench
    experiments, build the cells and digest the sources (the sweep's
    cache key, memoised per process, so it stays out of the first pass)."""
    from repro.runner.cache import source_digest

    from bench import workloads

    cells = workloads.WORKLOADS[spec["workload"]].cells(spec["quick"])
    timer = workloads.CellTimer()
    workloads.register_experiments(spec["seed"], timer)
    checker = Checker(load_blessed(spec["seed"]) if spec["check"] else {})
    source_digest()
    return Runner(cells, timer, checker)


def run(spec: dict) -> dict:
    """Execute one child run described by ``spec``; returns the report."""
    pin_cpu()
    import numpy

    runner = prepare(spec)
    checker, cells = runner.checker, runner.cells
    seed, seconds, mode = spec["seed"], spec["seconds"], spec["mode"]
    if mode == "trace":
        # Unmeasured warm-up: a process's first sweep grows its heap and
        # runs ~10% slower, which would bias the first round's ratios.
        runner.sweep()

    slices = [calibrate()]

    def calibrated(pass_: dict) -> dict:
        """Close a finished pass with a slice; record the host's slowdown."""
        slices.append(calibrate())
        pass_["slowdown"] = (slices[-2] + slices[-1]) / (2 * CALIB_REF_S)
        return pass_

    started = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    last_spans: list[list] = []
    while True:
        round_start = time.perf_counter()
        if mode == "trace":
            # The untraced pass sits between the traced and the bare one,
            # and the order flips every round: each ratio compares adjacent
            # passes in measured seconds, and a steady drift of the host's
            # speed cancels over two rounds.  (Normalising each pass by its
            # own short calibration slices adds more noise than it removes
            # at this distance.)
            kinds = ["traced", "plain", "bare"]
            if len(traced) % 2:
                kinds.reverse()
            got = {}
            for kind in kinds:
                if kind == "traced":
                    got[kind], last_spans = runner.traced_sweep()
                else:
                    got[kind] = runner.sweep() if kind == "plain" else runner.bare()
                calibrated(got[kind])
            plain, bare = got["plain"], got["bare"]
            capture_s = plain["loop_s"] - bare["loop_s"]
            traced.append({
                **layer_metrics(last_spans, got["traced"]),
                "obs.capture_s": capture_s,
                "obs.capture_ratio": _ratio(capture_s, bare["loop_s"]),
                "trace_overhead": _ratio(got["traced"]["wall_s"],
                                         plain["wall_s"]) - 1.0,
            })
        else:
            plain = calibrated(runner.sweep())
        untraced.append(plain)
        if len(untraced) == 1:
            # Peak of one sweep: later passes may reuse freed arenas or
            # not, and how many fit the budget depends on host speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Start another round only if one more of the same length fits,
        # but a timed or traced run always takes two: on a slowed host one
        # long pass alone would be the whole measurement, and no ratio
        # should rest on one pair.  An untimed run (quick, bless) takes one.
        elapsed = time.perf_counter() - started
        if (len(untraced) >= (2 if seconds > 0 or mode == "trace" else 1)
                and elapsed + (time.perf_counter() - round_start) > seconds):
            break

    e2e = _median_of([_reference(p) for p in untraced])
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["failed_ratio"] = _ratio(checker.failed, checker.attempted)
    measured = _median_of([_measured(p) for p in untraced])
    calib_s = statistics.median(slices)
    report = {
        "workload": spec["workload"], "seed": seed, "cells": len(cells),
        "passes": len(untraced),
        "calib_s": calib_s,
        "wall_per_calib": measured["wall_s"] / calib_s,
        "e2e": e2e,
        "measured": measured,
        "pass_slowdowns": [p["slowdown"] for p in untraced],
        "digests": checker.digests,
        "attempted": checker.attempted, "failed": checker.failed,
        "errors": checker.errors,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    if mode == "trace":
        report["per_layer"] = _median_of(traced)
        report["layers"] = layer_table(last_spans)
        report["entry_points"] = summarize(last_spans)
        if spec.get("trace_out"):
            write_chrome_trace(last_spans, Path(spec["trace_out"]),
                               [c.cell_id for c in cells])
    return report


def main(argv: list[str]) -> int:
    print(json.dumps(run(json.loads(argv[1]))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
