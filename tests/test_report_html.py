"""Tests for the self-contained HTML report renderer."""

from __future__ import annotations

import json
import re

from repro.report.html import LineChart, render_report
from repro.runner.cache import ResultCache


def _fake_envelope(cell_id, experiment, policy, result, telemetry=()):
    return {
        "cell_id": cell_id,
        "cell": {"experiment": experiment, "case": cell_id.split("/")[1].split(":")[0],
                 "policy": policy, "scale_denominator": 128},
        "result": result,
        "telemetry": list(telemetry),
        "timing": {"finished_at": 1.0, "wall_s": 0.1},
        "source": "cafe",
    }


def _seed_cache(tmp_path, envelopes):
    cache = ResultCache(tmp_path / "cache")
    cache.results_dir.mkdir(parents=True, exist_ok=True)
    for i, env in enumerate(envelopes):
        (cache.results_dir / f"k{i}.json").write_text(json.dumps(env))
    return cache


def test_report_renders_fig1_chart_and_tables(tmp_path):
    telemetry = [{
        "version": 1, "meta": {}, "scrapes": [],
        "attribution": {"fault": {"events": 10, "span_us": 42.5}},
        "histograms": {"fault.base": {"count": 10, "total_us": 42.5,
                                      "buckets": {"2": 10},
                                      "p50": 3.0, "p95": 3.9, "p99": 4.0}},
        "self_profile": {"wall_s": 0.5, "epochs": 100},
    }]
    envelopes = [
        _fake_envelope(
            "fig1/redis:hawkeye-g@128", "fig1", "hawkeye-g",
            {"rss_mb": 100.0, "useful_mb": 80.0, "recovered_pages": 7,
             "rss_series": {"times": [0.0, 1.0, 2.0],
                            "values": [10.0, 60.0, 100.0]}},
            telemetry),
        _fake_envelope(
            "fig1/redis:linux-2mb@128", "fig1", "linux-2mb",
            {"rss_mb": 140.0, "useful_mb": 80.0, "recovered_pages": 0,
             "rss_series": {"times": [0.0, 1.0, 2.0],
                            "values": [10.0, 90.0, 140.0]}}),
    ]
    cache = _seed_cache(tmp_path, envelopes)
    html = render_report(cache, title="test report")
    assert html.lstrip().startswith("<!DOCTYPE html>")
    # the fig1 chart: one polyline per policy, a legend naming both
    assert html.count("<polyline") == 2
    assert "hawkeye-g" in html and "linux-2mb" in html
    # attribution + self-profile tables from the telemetry artifact
    assert "fault" in html and "42.5" in html
    # offline by construction: no external URLs, no script src, no links
    assert "http://" not in html and "https://" not in html
    assert 'src="' not in html and "@import" not in html
    # hover layer ships its data inline
    assert 'type="application/json"' in html


def test_report_empty_cache_message(tmp_path):
    cache = ResultCache(tmp_path / "void")
    html = render_report(cache)
    assert "no cached" in html.lower()
    assert "<svg" not in html


def test_line_chart_geometry_stays_in_viewbox():
    chart = LineChart("t", "x", "y")
    chart.add_series("a", [(0.0, 0.0), (1.0, 123.4), (2.0, 50.0)])
    svg = chart.render()
    width = int(re.search(r'viewBox="0 0 (\d+) (\d+)"', svg).group(1))
    height = int(re.search(r'viewBox="0 0 (\d+) (\d+)"', svg).group(2))
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    for pair in points:
        x, y = map(float, pair.split(","))
        assert 0 <= x <= width and 0 <= y <= height


def test_line_chart_skips_empty_series():
    chart = LineChart("t", "x", "y")
    chart.add_series("empty", [])
    chart.add_series("full", [(0.0, 1.0), (1.0, 2.0)])
    svg = chart.render()
    assert svg.count("<polyline") == 1


def test_report_fleet_card_rows(tmp_path):
    """One fleet-smoke envelope: the aggregate row and one row per class."""
    from repro.fleet import manager as fleet
    from repro.report.html import _fmt
    from repro.runner import Cell, run_sweep

    cache = ResultCache(tmp_path / "cache")
    cell = Cell("fleet-smoke", "arrival-smoke", "hawkeye-g")
    report = run_sweep([cell], jobs=1, cache=cache)
    assert report.ok
    (artifact,) = cache.get(report.outcomes[0].key)["telemetry"]
    section = artifact[fleet.SECTION]
    assert section["exited"] >= 100 and section["classes"]
    html = render_report(cache).split("Fleet churn (tenant lifetimes")[1]
    html = html.split("</section>")[0]
    assert "<h3>Per tenant class</h3>" in html
    cell_td = f"<td>{cell.cell_id}</td>"
    aggregate = [section[key] for key in (
        "spawned", "exited", "oom_kills", "protected_kills", "peak_active",
        "deferred", "fairness_spread")]
    assert cell_td + "".join(
        f'<td class="num">{_fmt(v)}</td>' for v in aggregate) in html
    for name, cls in section["classes"].items():
        assert (f"{cell_td}<td>{name}</td>"
                f'<td class="num">{_fmt(cls["tenants"])}</td>'
                f'<td class="num">{_fmt(cls["oom_kills"])}</td>'
                f'<td class="num">{_fmt(cls["promotions"])}</td>') in html
    assert html.count(cell_td) == 1 + len(section["classes"])
