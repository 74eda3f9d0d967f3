"""Tests for metric export (CSV/JSON)."""

import csv
import io
import json

import pytest

from repro.metrics.export import (
    series_to_csv,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.metrics.series import SeriesRecorder
from repro.trace import TraceEvent, TraceKind
from tests.conftest import spawn_simple


def test_series_csv_round_trip(kernel4k):
    rec = SeriesRecorder(kernel4k)
    rec.probe("rss", lambda k: sum(p.rss_pages() for p in k.processes))
    rec.probe("free", lambda k: k.buddy.free_pages)
    spawn_simple(kernel4k, heap_mb=4, work_s=2.0)
    kernel4k.run_epochs(4)
    rows = list(csv.DictReader(io.StringIO(series_to_csv(rec))))
    assert len(rows) == 4
    assert float(rows[-1]["rss"]) == 1024.0
    assert {"t_seconds", "rss", "free"} == set(rows[0])


def test_series_csv_empty_recorder(kernel4k):
    rec = SeriesRecorder(kernel4k)
    assert series_to_csv(rec) == "t_seconds\n"


def test_series_csv_aligns_ragged_series_by_timestamp(kernel4k):
    rec = SeriesRecorder(kernel4k)
    rec.probe("free", lambda k: k.buddy.free_pages)
    kernel4k.run_epochs(2)
    # A probe added mid-run has no samples for the early epochs; rows must
    # align by *timestamp*, not by index, leaving the early cells blank.
    rec.probe("epochs", lambda k: k.stats.epochs)
    kernel4k.run_epochs(2)
    rows = list(csv.DictReader(io.StringIO(series_to_csv(rec))))
    assert len(rows) == 4
    assert [r["epochs"] for r in rows[:2]] == ["", ""]
    assert float(rows[2]["epochs"]) == 3.0
    assert float(rows[3]["epochs"]) == 4.0
    # every row keeps the full-history series' value at its own timestamp
    times = [float(r["t_seconds"]) for r in rows]
    assert times == sorted(times)
    assert all(r["free"] != "" for r in rows)


def test_trace_jsonl_round_trip():
    events = [
        TraceEvent(1.5, TraceKind.FAULT_BASE, "p", 4.25, 42),
        TraceEvent(2.0, TraceKind.OOM, "kernel", 0.0, None, "allocated=1.00"),
    ]
    text = trace_to_jsonl(events)
    lines = text.splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"t_us": 1.5, "kind": "fault.base", "process": "p",
                     "span_us": 4.25, "page": 42}
    assert trace_from_jsonl(text) == events
    assert trace_from_jsonl(text + "\n\n") == events  # blank lines skipped
    assert trace_from_jsonl("") == []


def test_cells_jsonl_and_csv():
    from repro.metrics.export import cells_to_csv, cells_to_jsonl

    records = [
        {"cell_id": "smoke/touch:linux-4kb@128", "experiment": "smoke",
         "case": "touch", "policy": "linux-4kb", "scale_denominator": 128,
         "status": "ok", "attempts": 1, "wall_s": 0.5, "key": "abc",
         "result": {"faults": 8}},
        {"cell_id": "smoke/touch:linux-2mb@128", "experiment": "smoke",
         "case": "touch", "policy": "linux-2mb", "scale_denominator": 128,
         "status": "failed", "attempts": 2, "wall_s": 0.1, "key": "def",
         "error": "boom"},
    ]
    lines = cells_to_jsonl(records).splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["result"] == {"faults": 8}
    assert json.loads(lines[1])["error"] == "boom"
    assert cells_to_jsonl([]) == ""

    csv_text = cells_to_csv(records)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    header = csv_text.splitlines()[0].split(",")
    # stable layout: identity columns first (cell_id leading), then one
    # labeled column per flattened result metric, sorted by name.
    assert header[:4] == ["cell_id", "experiment", "case", "policy"]
    metric_columns = [c for c in header if c.startswith("result.")]
    assert metric_columns == sorted(metric_columns)
    assert "result.faults" in header
    assert rows[0]["result.faults"] == "8.0"
    assert rows[1]["result.faults"] == ""  # failed cell: padded, not ragged
    assert rows[1]["error"] == "boom"


def test_cells_csv_flattens_nested_and_sorts_metric_union():
    from repro.metrics.export import cells_to_csv

    records = [
        {"cell_id": "a", "status": "ok",
         "result": {"times_s": {"zip": 2.0}, "rss_series": [1, 2, 3]}},
        {"cell_id": "b", "status": "ok", "result": {"faults": 4}},
    ]
    header = cells_to_csv(records).splitlines()[0].split(",")
    metric_columns = [c for c in header if c.startswith("result.")]
    # union across records, nested keys dotted, lists as .len counts
    assert metric_columns == ["result.faults", "result.rss_series.len",
                              "result.times_s.zip"]


def test_trace_to_chrome():
    from repro.metrics.export import trace_to_chrome

    events = [
        TraceEvent(10.0, TraceKind.FAULT_BASE, "redis", 4.25, 42),
        TraceEvent(20.0, TraceKind.PROMOTE_COLLAPSE, "redis", 30.0, 7),
        TraceEvent(25.0, TraceKind.BLOAT_SCAN, "kernel", 0.0, None, "n=3"),
    ]
    doc = json.loads(trace_to_chrome(events))
    assert doc["displayTimeUnit"] == "ms"
    records = doc["traceEvents"]
    meta = [r for r in records if r["ph"] == "M"]
    # one process_name per process, one thread_name per (process, subsystem)
    names = {(r["name"], r["args"]["name"]) for r in meta}
    assert ("process_name", "redis") in names
    assert ("process_name", "kernel") in names
    assert ("thread_name", "fault") in names
    assert ("thread_name", "promote") in names
    assert ("thread_name", "bloat") in names
    slices = [r for r in records if r["ph"] == "X"]
    assert len(slices) == 2
    fault = next(r for r in slices if r["name"] == "fault.base")
    assert fault["ts"] == 10.0 and fault["dur"] == 4.25
    assert fault["args"]["page"] == 42
    instants = [r for r in records if r["ph"] == "i"]
    assert len(instants) == 1 and instants[0]["s"] == "t"
    # distinct processes get distinct pids; subsystems get stable tids
    pids = {r["pid"] for r in records if r["ph"] != "M"}
    assert len(pids) == 2
