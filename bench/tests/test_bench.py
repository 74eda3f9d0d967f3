"""Tests for the sweep-path benchmark (run: PYTHONPATH=src pytest bench/tests)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import child, metrics, spans, workloads
from bench.__main__ import WORKLOAD_NAMES
from repro.runner.registry import (
    Cell,
    execute_cell,
    execute_cell_with_telemetry,
    unregister,
)

ROOT = Path(__file__).resolve().parents[2]
SEED_DEPENDENT = ("frag-promote", "bloat-churn", "fleet-churn")


def _simulated(cell: Cell) -> tuple[dict, str]:
    """A cell's result and the digest of its simulated statistics."""
    result, telemetry = execute_cell_with_telemetry(cell)
    return result, child.simulated_digest(result, telemetry)


def _bench_results(seed: int) -> dict[str, dict[str, tuple[dict, str]]]:
    """workload -> cell_id -> _simulated() for every quick-scale bench cell."""
    timer = workloads.CellTimer()
    workloads.register_experiments(seed, timer)
    return {name: {cell.cell_id: _simulated(cell)
                   for cell in wl.cells(quick=True)}
            for name, wl in workloads.WORKLOADS.items()}


@pytest.fixture(scope="module")
def seed0():
    try:
        yield _bench_results(0)
    finally:
        for exp in workloads.BODIES:
            unregister(f"bench-{exp}")


@pytest.fixture(scope="module")
def seed1(seed0):
    try:
        yield _bench_results(1)
    finally:
        for exp in workloads.BODIES:
            unregister(f"bench-{exp}")


def test_seed0_cells_equal_registry_cells(seed0):
    for name, wl in workloads.WORKLOADS.items():
        for cell in wl.cells(quick=True):
            stock = Cell(cell.experiment.removeprefix("bench-"), cell.case,
                         cell.policy, cell.scale_denominator)
            assert seed0[name][cell.cell_id] == _simulated(stock), cell.cell_id


def test_seed1_changes_seeded_workloads_only(seed0, seed1):
    assert seed1["fault-storm"] == seed0["fault-storm"]
    for name in SEED_DEPENDENT:
        same = [cid for cid in seed0[name] if seed1[name][cid] == seed0[name][cid]]
        assert not same, f"seed 1 left {same} unchanged"


def test_cell_timer_splits_setup_and_loop():
    timer = workloads.CellTimer()
    workloads.register_experiments(0, timer)
    try:
        execute_cell(workloads.WORKLOADS["frag-promote"].cells(quick=True)[0])
    finally:
        for exp in workloads.BODIES:
            unregister(f"bench-{exp}")
    (timing,) = timer.cells
    assert timing.setup_s > 0 and timing.loop_s > 0
    assert timing.sim_s == pytest.approx(500.0, rel=0.5)


def test_tab8_spawn_is_setup_unless_hawkeye_warms_up_first():
    from repro.experiments import Scale

    timer = workloads.CellTimer()
    recorder = spans.SpanRecorder()
    timer.spans = recorder
    recorder.install()
    try:
        for policy in ("linux-4kb", "hawkeye-4kb"):
            workloads.run_tab8("sparsehash", policy, Scale.from_denominator(512),
                               seed=0, timer=timer)
    finally:
        recorder.uninstall()
    recorded = recorder.spans
    parents = [recorded[s[3]][0] for s in recorded if s[0] == "lifecycle.spawn"]
    assert parents == ["setup.cell", "kernel.run"]


def test_self_time_arithmetic():
    # root [0, 10] > a [1, 6] > (b [2, 3], c [3.5, 5] > e [4, 4.5]);
    # root > d [7, 9]
    recorded = [
        ["sweep", 0.0, 10.0, -1],
        ["x.a", 1.0, 6.0, 0],
        ["y.b", 2.0, 3.0, 1],
        ["y.c", 3.5, 5.0, 1],
        ["x.d", 7.0, 9.0, 0],
        ["x.e", 4.0, 4.5, 3],
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [3.0, 2.5, 1.0, 1.0, 2.0, 0.5])
    summary = spans.summarize(recorded)
    assert summary["y.b"]["calls"] == 1
    assert summary["x.a"] == {"calls": 1, "total_s": 5.0, "self_s": 2.5, "ok": 0}
    # Self times partition the root's wall exactly.
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(10.0)
    table = {row[0]: row for row in child.layer_table(recorded)}
    assert table["x"][1] == pytest.approx(5.0) and table["x"][3] == 3
    assert table["unattributed"][2] == pytest.approx(0.3)
    # A layer's total counts e once, inside a, though y.c lies between.
    assert spans.layer_total_s(recorded, "x") == pytest.approx(7.0)
    assert spans.layer_total_s(recorded, "y") == pytest.approx(2.5)


def test_every_layer_time_is_measured_on_every_workload():
    # A time that reads 0 on a workload would read the same on every run
    # there; every per-layer time must come from work all workloads do.
    timer = workloads.CellTimer()
    workloads.register_experiments(0, timer)
    try:
        for name, wl in workloads.WORKLOADS.items():
            runner = child.Runner(wl.cells(quick=True), timer, child.Checker({}))
            traced, recorded = runner.traced_sweep()
            assert runner.checker.failed == 0, runner.checker.errors
            got = child.layer_metrics(recorded, traced)
            zero = [m.name for m in metrics.PER_LAYER
                    if m.unit in ("s", "ms", "ns") and got.get(m.name) == 0]
            assert not zero, f"{name}: {zero}"
    finally:
        for exp in workloads.BODIES:
            unregister(f"bench-{exp}")


def test_recorder_nests_spans_and_restores_entry_points():
    from repro import experiments
    from repro.kernel.kernel import Kernel

    originals = (experiments.make_kernel, Kernel.__dict__["run_epoch"])
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        with recorder.span(spans.ROOT):
            kernel = experiments.make_kernel(
                1 << 30, "linux-2mb", experiments.Scale.from_denominator(64))
            kernel.run_epochs(2)
    finally:
        recorder.uninstall()
    assert (experiments.make_kernel, Kernel.__dict__["run_epoch"]) == originals
    names = [s[0] for s in recorder.spans]
    assert names[:2] == [spans.ROOT, "setup.make_kernel"]
    epochs = [s for s in recorder.spans if s[0] == "kernel.run_epoch"]
    assert len(epochs) == 2 and all(s[3] == 0 for s in epochs)
    children = [s for s in recorder.spans if s[3] == recorder.spans.index(epochs[0])]
    assert {s[0] for s in children} >= {"policy.on_epoch", "compaction.kcompactd"}


def test_chrome_trace_puts_each_cell_on_its_own_track(tmp_path):
    recorded = [
        ["sweep", 0.0, 1.0, -1],
        ["runner.cell", 0.1, 0.4, 0],
        ["fault.range", 0.2, 0.3, 1],
        ["runner.cache_put", 0.4, 0.45, 0],
        ["runner.cell", 0.5, 0.9, 0],
    ]
    path = tmp_path / "trace.json"
    spans.write_chrome_trace(recorded, path, ["a", "b"])
    events = json.loads(path.read_text())["traceEvents"]
    names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {0: "sweep", 1: "a", 2: "b"}
    slices = [(e["name"], e["tid"], e["cat"]) for e in events if e["ph"] == "X"]
    assert slices == [("sweep", 0, "sweep"), ("runner.cell", 1, "runner"),
                      ("fault.range", 1, "fault"), ("runner.cache_put", 0, "runner"),
                      ("runner.cell", 2, "runner")]
    assert events[-1]["ts"] == pytest.approx(0.5e6) and events[-1]["dur"] == pytest.approx(0.4e6)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert child.tail_percentile(67) == 75.0
    assert child.tail_percentile(1000) == 99.0
    assert child.tail_percentile(10_000) == 99.9
    assert child.tail_percentile(5) == 50.0
    assert child.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert child.percentile([1.0, 2.0, 3.0, 4.0], 75.0) == 3.0


def test_checker_counts_bad_status_nondeterminism_and_blessed_mismatch():
    good = {"x": 1}
    checker = child.Checker({"c": child.simulated_digest(good, [])})
    checker.check("c", "ok", good, None, [])
    checker.check("c", "ok", good, None)        # bare pass: result only
    checker.check("c", "ok", {"x": 2}, None)
    checker.check("d", "failed", None, "Traceback\nRuntimeError: boom\n")
    checker.check("e", "ok", {"y": 1}, None, [])
    assert (checker.attempted, checker.failed) == (5, 2)
    assert "RuntimeError: boom" in checker.errors[1]
    blessed_wrong = child.Checker({"c": "0" * 16})
    blessed_wrong.check("c", "ok", good, None, [])
    assert blessed_wrong.failed == 1 and "blessed" in blessed_wrong.errors[0]


def test_benchmark_json_mirrors_the_metric_tables():
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert declared["paths"] == ["bench/"]
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in workloads.WORKLOADS.values()]
    # The parent names the workloads without importing the simulator.
    assert WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
