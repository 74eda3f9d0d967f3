"""Unit tests for the emulated performance counters (Table 4) and the
bench regression gates."""

import pytest

from repro import perf
from repro.perf import GATES, TOLERANCE, TRACE_OVERHEAD_CEILING, check
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

BASELINE = {"target": "touch", "fast_per_calib": 0.1}
EPOCH_BASELINE = {"target": "epoch", "fast_per_calib": 0.4, "scan_per_calib": 0.08}


def touch(**result):
    return {"target": "touch", **result}


def epoch(**result):
    return {"target": "epoch", **result}


def test_gate_table_is_not_loosened():
    assert TRACE_OVERHEAD_CEILING == 0.05 and 0 < TOLERANCE <= 0.25
    assert [(target, key, bound) for target, key, _, bound in GATES] == [
        ("touch", "fast_per_calib", TOLERANCE),
        ("touch", "trace_overhead", TRACE_OVERHEAD_CEILING),
        ("epoch", "fast_per_calib", TOLERANCE),
        ("epoch", "scan_per_calib", TOLERANCE),
        ("epoch", "trace_overhead", TRACE_OVERHEAD_CEILING),
    ]


def test_calibration_slice_is_the_benchs():
    # one unit for both harnesses: the same loop, the same length
    from bench import child

    assert perf.CALIB_ITERS == child.CALIB_ITERS
    assert perf.calibrate.__code__.co_code == child.calibrate.__code__.co_code
    assert perf.calibrate.__code__.co_names == child.calibrate.__code__.co_names


def test_check_regression_passes_within_tolerance():
    assert check(touch(fast_per_calib=0.125, trace_overhead=0.01), BASELINE) == []


def test_check_regression_flags_fast_path_slowdown():
    failures = check(touch(fast_per_calib=0.2, trace_overhead=0.0), BASELINE)
    assert len(failures) == 1
    assert failures[0].startswith("calibrated fault-path time 0.20000 rose above 0.12500")
    assert check(touch(fast_per_calib=0.1251), BASELINE) != []


def test_check_regression_flags_trace_overhead():
    result = touch(fast_per_calib=0.1, trace_overhead=TRACE_OVERHEAD_CEILING)
    failures = check(result, BASELINE)
    assert len(failures) == 1
    assert failures[0].startswith("disabled-tracing overhead +5.0% reached the 5% ceiling")
    # just under the ceiling passes
    result["trace_overhead"] = TRACE_OVERHEAD_CEILING - 0.001
    assert check(result, BASELINE) == []


def test_check_regression_tolerates_pre_trace_results():
    # a result without a trace_overhead entry skips that gate
    assert check(touch(fast_per_calib=0.1), BASELINE) == []
    assert check(epoch(fast_per_calib=0.4, scan_per_calib=0.08), EPOCH_BASELINE) == []


def test_check_epoch_regression_passes_within_tolerance():
    result = epoch(fast_per_calib=0.45, scan_per_calib=0.09, trace_overhead=0.01)
    assert check(result, EPOCH_BASELINE) == []


def test_check_epoch_regression_flags_each_gate():
    failures = check(epoch(fast_per_calib=0.6, scan_per_calib=0.11,
                           trace_overhead=TRACE_OVERHEAD_CEILING), EPOCH_BASELINE)
    assert len(failures) == 3
    assert failures[0].startswith("calibrated epoch-engine time 0.60000")
    assert failures[1].startswith("calibrated access-scan time 0.11000")
    assert failures[2].startswith("disabled-tracing overhead")


def test_check_fails_closed_on_a_baseline_without_a_gated_key():
    # a missing key used to read as 0.0, which no ratio could fall below
    assert check({"target": "touch", "speedup": 1.0}, {}) != []
    failures = check(epoch(fast_per_calib=0.4, scan_per_calib=0.08),
                     {"target": "epoch", "fast_per_calib": 0.4})
    assert failures == ["calibrated access-scan time: the baseline has no scan_per_calib"]
    # ... and a result without one fails too
    assert check(touch(trace_overhead=0.0), BASELINE) == [
        "calibrated fault-path time: the result has no fast_per_calib"]


def test_check_fails_closed_on_another_targets_baseline():
    both = {"fast_per_calib": 0.1, "scan_per_calib": 0.08}
    assert check(touch(fast_per_calib=0.1), {"target": "epoch", **both}) == [
        "baseline is for target 'epoch', not 'touch'"]
    assert check(epoch(**both), {**both, "target": "touch"}) != []
    assert check(epoch(**both), both) != []  # a baseline that names no target
