"""Unit tests for the emulated performance counters (Table 4) and the
bench regression gates."""

import pytest

from repro.perf import (
    EPOCH_SPEEDUP_FLOOR,
    GATES,
    TOLERANCE,
    TRACE_OVERHEAD_CEILING,
    check,
)
from repro.tlb.perf import LOAD_FRACTION, PMUCounters


def test_table4_formula():
    """MMU overhead = (C1 + C2) / C3."""
    pmu = PMUCounters()
    pmu.record(walk_cycles=300.0, total_cycles=1000.0)
    assert pmu.read_overhead() == pytest.approx(0.3)
    assert pmu.dtlb_load_walk_duration == pytest.approx(300 * LOAD_FRACTION)
    assert pmu.dtlb_store_walk_duration == pytest.approx(300 * (1 - LOAD_FRACTION))


def test_zero_cycles_reads_zero():
    assert PMUCounters().read_overhead() == 0.0


def test_interval_sampling():
    pmu = PMUCounters()
    pmu.record(100.0, 1000.0)
    assert pmu.sample() == pytest.approx(0.1)
    # quiet interval
    pmu.record(0.0, 1000.0)
    assert pmu.sample() == pytest.approx(0.0)
    # busy interval again: sample sees only the new activity
    pmu.record(500.0, 1000.0)
    assert pmu.sample() == pytest.approx(0.5)
    # lifetime counter still integrates everything
    assert pmu.read_overhead() == pytest.approx(600 / 3000)


def test_sample_with_no_progress_is_zero():
    pmu = PMUCounters()
    pmu.record(100.0, 1000.0)
    pmu.sample()
    assert pmu.sample() == 0.0


# ---------------------------------------------------------------------- #
# microbenchmark gates (repro.perf.check)                                 #
# ---------------------------------------------------------------------- #

BASELINE = {"speedup": 4.0}
EPOCH_BASELINE = {"speedup": 10.0, "scan_speedup": 20.0}


def touch(**result):
    return {"target": "touch", **result}


def epoch(**result):
    return {"target": "epoch", **result}


def test_gate_table_is_not_loosened():
    assert (TRACE_OVERHEAD_CEILING, TOLERANCE, EPOCH_SPEEDUP_FLOOR) == (0.05, 0.25, 3.0)
    assert [(target, key, bound) for target, key, _, bound in GATES] == [
        ("touch", "speedup", 0.0),
        ("touch", "trace_overhead", TRACE_OVERHEAD_CEILING),
        ("epoch", "speedup", EPOCH_SPEEDUP_FLOOR),
        ("epoch", "scan_speedup", 0.0),
        ("epoch", "trace_overhead", TRACE_OVERHEAD_CEILING),
    ]


def test_check_regression_passes_within_tolerance():
    assert check(touch(speedup=3.5, trace_overhead=0.01), BASELINE) == []


def test_check_regression_flags_speedup_collapse():
    failures = check(touch(speedup=1.2, trace_overhead=0.0), BASELINE)
    assert len(failures) == 1
    assert failures[0].startswith("batched/scalar speedup 1.20x fell below 3.00x")


def test_check_regression_flags_trace_overhead():
    result = touch(speedup=4.0, trace_overhead=TRACE_OVERHEAD_CEILING)
    failures = check(result, BASELINE)
    assert len(failures) == 1
    assert failures[0].startswith("disabled-tracing overhead +5.0% reached the 5% ceiling")
    # just under the ceiling passes
    result["trace_overhead"] = TRACE_OVERHEAD_CEILING - 0.001
    assert check(result, BASELINE) == []


def test_check_regression_tolerates_pre_trace_results():
    # a result without a trace_overhead entry skips that gate
    assert check(touch(speedup=4.0), BASELINE) == []
    assert check(epoch(speedup=10.0, scan_speedup=20.0), EPOCH_BASELINE) == []


def test_check_epoch_regression_passes_within_tolerance():
    result = epoch(speedup=8.0, scan_speedup=16.0, trace_overhead=0.01)
    assert check(result, EPOCH_BASELINE) == []


def test_check_epoch_regression_flags_each_gate():
    failures = check(epoch(speedup=7.0, scan_speedup=14.0,
                           trace_overhead=TRACE_OVERHEAD_CEILING), EPOCH_BASELINE)
    assert len(failures) == 3
    assert failures[0].startswith("vectorized/scalar epoch speedup 7.00x")
    assert failures[1].startswith("access-scan speedup 14.00x")
    assert failures[2].startswith("disabled-tracing overhead")


def test_check_epoch_regression_hard_floor_beats_a_low_baseline():
    low = {"speedup": 3.2, "scan_speedup": 0.0}
    failures = check(epoch(speedup=2.9), low)
    assert len(failures) == 1
    assert f"hard floor {EPOCH_SPEEDUP_FLOOR:.0f}x" in failures[0]
    assert check(epoch(speedup=EPOCH_SPEEDUP_FLOOR), low) == []
