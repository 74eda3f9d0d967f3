"""Export recorded metrics for external analysis.

Time series, tracepoint streams and /proc snapshots serialise to CSV and JSON so
figures can be plotted outside the simulator (the environment here ships
no plotting stack).  The formats are deliberately boring: CSV with a
header row; JSON as plain dict/list structures.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Iterable

from repro.trace import TraceEvent, TraceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.series import SeriesRecorder, TimeSeries


def series_to_csv(recorder: "SeriesRecorder") -> str:
    """All of a recorder's series as one CSV (time + one column each).

    Rows are aligned by *timestamp* (the union of every series' time
    axis, ascending), so ragged series — probes added mid-run, or series
    sampled on different schedules — keep their values on the correct
    rows, with blanks where a series has no sample at that time.
    """
    names = list(recorder.series)
    if not names:
        return "t_seconds\n"
    times = sorted({t for series in recorder.series.values() for t in series.times})
    by_time = {
        name: dict(zip(series.times, series.values))
        for name, series in recorder.series.items()
    }
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t_seconds"] + names)
    for t in times:
        writer.writerow([t] + [by_time[name].get(t, "") for name in names])
    return out.getvalue()


def series_to_dict(series: "TimeSeries") -> dict:
    """One series as a plain JSON-able dict."""
    return {"name": series.name, "times": list(series.times),
            "values": list(series.values)}


def trace_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Tracepoint stream as JSON Lines (one record per line).

    The inverse of :func:`trace_from_jsonl`; ``repro trace run`` writes
    this format and ``repro trace view`` replays it.
    """
    lines = []
    for e in events:
        record = {"t_us": e.t_us, "kind": e.kind.value, "process": e.process,
                  "span_us": e.span_us}
        if e.page is not None:
            record["page"] = e.page
        if e.detail:
            record["detail"] = e.detail
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_chrome(events: Iterable[TraceEvent]) -> str:
    """Tracepoint stream as Chrome trace-event JSON (Perfetto-loadable).

    Open the output at ``chrome://tracing`` or https://ui.perfetto.dev.
    Layout: one *process track* per simulated process (pid assigned in
    sorted name order) and one *thread* per kernel subsystem within it,
    so promotions, faults and compaction stack as separate swimlanes.
    Events with a simulated span become complete (``ph: "X"``) slices —
    ``ts`` is the emission timestamp (simulated time does not advance
    within an epoch's fault burst, so that is the span's start) and
    ``dur`` the charged span, so slices nest when their time ranges
    do — and zero-span decision events become thread-scoped instants
    (``ph: "i"``).  ``heat.*`` events are different: their detail is a
    ``key=value;…`` sample, emitted per process by the spatial monitor,
    and each becomes a counter record (``ph: "C"``) so Perfetto draws
    WSS/hot-region time series as per-process counter tracks.
    Timestamps are simulated microseconds, which is exactly the unit
    the format wants.
    """
    events = list(events)
    pids = {name: i + 1 for i, name in
            enumerate(sorted({e.process for e in events}))}
    tids = {sub: i + 1 for i, sub in
            enumerate(sorted({e.kind.subsystem for e in events}))}
    records: list[dict] = []
    for name, pid in pids.items():
        records.append({"ph": "M", "name": "process_name", "pid": pid,
                        "tid": 0, "args": {"name": name}})
        for sub, tid in tids.items():
            records.append({"ph": "M", "name": "thread_name", "pid": pid,
                            "tid": tid, "args": {"name": sub}})
    for e in events:
        if e.kind.subsystem == "heat":
            counters: dict[str, float] = {}
            for pair in e.detail.split(";"):
                key, _, value = pair.partition("=")
                if key and value:
                    try:
                        counters[key] = float(value)
                    except ValueError:
                        pass
            records.append({"ph": "C", "name": e.kind.value,
                            "cat": "heat", "pid": pids[e.process],
                            "ts": round(e.t_us, 3), "args": counters})
            continue
        record = {
            "name": e.kind.value,
            "cat": e.kind.subsystem,
            "pid": pids[e.process],
            "tid": tids[e.kind.subsystem],
        }
        args = {}
        if e.page is not None:
            args["page"] = e.page
        if e.detail:
            args["detail"] = e.detail
        if args:
            record["args"] = args
        if e.span_us > 0.0:
            record.update(ph="X", ts=round(e.t_us, 3),
                          dur=round(e.span_us, 3))
        else:
            record.update(ph="i", ts=round(e.t_us, 3), s="t")
        records.append(record)
    return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"},
                      indent=None, separators=(",", ":"))


def trace_from_jsonl(text: str) -> list[TraceEvent]:
    """Parse a JSONL trace back into :class:`repro.trace.TraceEvent`s."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        events.append(TraceEvent(
            t_us=record["t_us"],
            kind=TraceKind(record["kind"]),
            process=record["process"],
            span_us=record.get("span_us", 0.0),
            page=record.get("page"),
            detail=record.get("detail", ""),
        ))
    return events


#: fixed identity/status columns of a sweep-cell CSV row, in print
#: order; the per-result metric columns follow, sorted by name.
SWEEP_CSV_COLUMNS = [
    "cell_id", "experiment", "case", "policy", "scale_denominator",
    "status", "attempts", "wall_s", "key", "error",
]


def cells_to_jsonl(records: Iterable[dict]) -> str:
    """Sweep cell records (``CellOutcome.as_record()``) as JSON Lines."""
    lines = [json.dumps(record, sort_keys=True) for record in records]
    return "\n".join(lines) + ("\n" if lines else "")


def cells_to_csv(records: Iterable[dict]) -> str:
    """Sweep cell records as CSV with a stable, labeled column order.

    Columns: ``cell_id`` first, then the fixed identity/status columns
    (:data:`SWEEP_CSV_COLUMNS`), then one labeled ``result.<metric>``
    column per flattened scalar metric, sorted by name — the union
    across all records, so every row has every column and two runs over
    the same grid produce byte-identical headers (baseline diffs stay
    deterministic).  Non-scalar result leaves (time series lists)
    appear as ``.len`` counts, matching the regression gate's view.
    """
    from repro.report.data import flatten_scalars

    records = list(records)
    flat = [flatten_scalars(record.get("result") or {}) for record in records]
    metric_columns = sorted({name for scalars in flat for name in scalars})
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(SWEEP_CSV_COLUMNS
                    + [f"result.{name}" for name in metric_columns])
    for record, scalars in zip(records, flat):
        row = []
        for column in SWEEP_CSV_COLUMNS:
            value = record.get(column)
            row.append("" if value is None else value)
        for name in metric_columns:
            value = scalars.get(name)
            row.append("" if value is None else value)
        writer.writerow(row)
    return out.getvalue()


def snapshot_to_json(kernel) -> str:
    """meminfo + vmstat as one JSON document."""
    from repro.kernel import procfs

    return json.dumps({
        "t_seconds": kernel.now_us / 1e6,
        "meminfo_kb": procfs.meminfo(kernel),
        "vmstat": procfs.vmstat(kernel),
    }, indent=2)
