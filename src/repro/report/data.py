"""Shared envelope wrangling for the report/regress consumers.

The sweep cache is content-addressed, so one *cell* (``fig1/redis-fig1:
linux-2mb@128``) can have several envelopes on disk — one per source
digest it was ever run under.  Reports want exactly one row per cell:
:func:`latest_envelopes` keeps the newest by completion time.

:func:`flatten_scalars` turns a nested cell result into dotted-key
scalars (``times_s.random-access`` …), the metric namespace both the
baseline file and the regression comparator speak.
"""

from __future__ import annotations

from typing import Iterable

from repro.runner.cache import ResultCache


def latest_envelopes(cache: ResultCache) -> dict[str, dict]:
    """cell_id -> newest envelope (by ``timing.finished_at``) in the cache."""
    latest: dict[str, dict] = {}
    for envelope in cache.entries():
        cell_id = envelope.get("cell_id")
        if not cell_id:
            continue
        finished = envelope.get("timing", {}).get("finished_at", 0.0)
        kept = latest.get(cell_id)
        if kept is None or finished >= kept.get("timing", {}).get("finished_at", 0.0):
            latest[cell_id] = envelope
    return latest


def cell_sections(envelopes: dict[str, dict], key: str) -> list[tuple[str, dict]]:
    """``(cell_id, section)`` for every captured artifact carrying a
    non-empty ``key`` section, cells in sorted order."""
    return [(cell_id, artifact[key])
            for cell_id in sorted(envelopes)
            for artifact in envelopes[cell_id].get("telemetry") or []
            if artifact.get(key)]


def flatten_scalars(value, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts into dotted-key numeric scalars.

    Bools and non-numeric leaves are skipped (a flipped ``finished``
    flag shows up as a *missing metric*, which the comparator reports);
    lists (time series) are summarised by their length so a truncated
    series still moves a metric.
    """
    out: dict[str, float] = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_scalars(sub, name))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, list):
        out[f"{prefix}.len"] = float(len(value))
    return out


def envelope_metrics(envelope: dict) -> dict[str, float]:
    """The deterministic metric set of one envelope.

    The cell result's scalars, plus each telemetry artifact's
    :meth:`~repro.metrics.telemetry.RunTelemetry.scalar_metrics`
    (attribution totals and latency percentiles) under a
    ``telemetry.<index>.`` prefix.  Wall-clock numbers never appear
    here, so the same cache always yields the same metrics.
    """
    from repro.metrics.telemetry import RunTelemetry

    metrics = flatten_scalars(envelope.get("result") or {})
    for i, artifact in enumerate(envelope.get("telemetry") or []):
        scalars = RunTelemetry.from_dict(artifact).scalar_metrics()
        metrics.update({f"telemetry.{i}.{k}": v for k, v in scalars.items()})
    return metrics


def metrics_by_cell(envelopes: Iterable[dict] | dict[str, dict]) -> dict[str, dict[str, float]]:
    """cell_id -> metric dict for a set of envelopes."""
    if isinstance(envelopes, dict):
        envelopes = envelopes.values()
    return {env["cell_id"]: envelope_metrics(env) for env in envelopes}
