"""Directed tests for the DAMON-style spatial heat monitor."""

from __future__ import annotations

import json

import numpy as np

from repro import audit, heat, trace
from repro.metrics import telemetry
from repro.units import PAGES_PER_HUGE
from tests.conftest import spawn_simple


def _run_sampled(kernel, epochs=90, **spawn_kw):
    """Attach a monitor and run past several access-bit samples.

    ``epochs`` defaults to a multiple of ``sample_period`` (30) so the
    kernel stops immediately after folding a sample — the region table
    is then byte-for-byte the state the last sample saw.
    """
    monitor = heat.attach(kernel)
    spawn_kw.setdefault("work_s", 100.0)
    run = spawn_simple(kernel, **spawn_kw)
    kernel.run(max_epochs=epochs)
    return monitor, run


# -- attachment --------------------------------------------------------- #


def test_attach_detach_flags(kernel_hawkeye):
    assert kernel_hawkeye.heat is None
    monitor = heat.attach(kernel_hawkeye)
    assert kernel_hawkeye.heat is monitor
    # idempotent: re-attach returns the same monitor
    assert heat.attach(kernel_hawkeye) is monitor
    assert heat.detach(kernel_hawkeye) is monitor
    assert kernel_hawkeye.heat is None
    assert heat.detach(kernel_hawkeye) is None


def test_attach_forwards_config(kernel_hawkeye):
    monitor = heat.attach(kernel_hawkeye, nbins=8, max_regions=32,
                          min_regions=4)
    assert (monitor.nbins, monitor.max_regions, monitor.min_regions) \
        == (8, 32, 4)


def test_no_monitor_keeps_kernel_clean(kernel_hawkeye):
    spawn_simple(kernel_hawkeye)
    kernel_hawkeye.run(max_epochs=40)
    assert kernel_hawkeye.heat is None


def test_instance_gate_pauses_sampling(kernel_hawkeye):
    monitor = heat.attach(kernel_hawkeye)
    monitor.enabled = False
    spawn_simple(kernel_hawkeye, work_s=100.0)
    kernel_hawkeye.run(max_epochs=60)
    assert monitor.samples == 0 and not monitor.procs


# -- sampling and region invariants ------------------------------------- #


def test_regions_partition_vma_spans(kernel_hawkeye):
    monitor, run = _run_sampled(kernel_hawkeye)
    assert monitor.samples == 3          # epochs 30, 60, 90
    state = monitor.procs[run.proc.pid]
    spans = tuple((v.start >> 9, (v.end + PAGES_PER_HUGE - 1) >> 9)
                  for v in run.proc.vmas if v.npages > 0)
    assert state.spans == spans
    # regions are sorted, non-empty and abut; coalescing them across
    # span boundaries reproduces the spans exactly
    rebuilt, cursor = [], None
    for r in state.regions:
        assert r.start < r.end
        if cursor is not None and r.start == cursor:
            rebuilt[-1] = (rebuilt[-1][0], r.end)
        else:
            rebuilt.append((r.start, r.end))
        cursor = r.end
    assert tuple(rebuilt) == spans


def test_sample_counts_conserved(kernel_hawkeye):
    monitor, run = _run_sampled(kernel_hawkeye)
    state = monitor.procs[run.proc.pid]
    table = run.proc.regions
    weights = np.where(table.resident_arr() > 0,
                       table.last_coverage_arr(), 0)
    assert sum(r.sample for r in state.regions) == int(weights.sum())


def test_region_budget_respected(kernel_hawkeye):
    monitor = heat.attach(kernel_hawkeye, max_regions=16, min_regions=4)
    run = spawn_simple(kernel_hawkeye, heap_mb=16, work_s=100.0)
    kernel_hawkeye.run(max_epochs=90)
    state = monitor.procs[run.proc.pid]
    assert 1 <= len(state.regions) <= 16


def test_wss_estimate_tracks_exact(kernel_hawkeye):
    """Both series integrate the same access-bit signal with the same
    EMA alpha, so on a steady workload they track closely."""
    monitor, run = _run_sampled(kernel_hawkeye)
    state = monitor.procs[run.proc.pid]
    assert state.samples >= 3
    est, exact = state.wss_estimate[-1], state.wss_exact[-1]
    assert exact > 0
    assert abs(est - exact) / exact < 0.15


def test_monitor_is_pure_observer():
    """Attaching heat must not change any simulated result byte."""
    from repro.core.hawkeye import HawkEyePolicy
    from repro.experiments import reset_sim_state
    from repro.kernel import procfs
    from repro.kernel.kernel import Kernel
    from tests.conftest import small_config

    def outcome(with_heat: bool):
        reset_sim_state()
        kernel = Kernel(small_config(), lambda k: HawkEyePolicy(
            k, variant="g", promote_per_sec=100.0,
            prezero_pages_per_sec=1e6))
        if with_heat:
            heat.attach(kernel)
        spawn_simple(kernel, work_s=100.0)
        kernel.run(max_epochs=90)
        return kernel.now_us, procfs.vmstat(kernel), procfs.meminfo(kernel)

    bare, monitored = outcome(False), outcome(True)
    assert bare == monitored


def test_retired_process_snapshot(kernel_hawkeye):
    monitor = heat.attach(kernel_hawkeye)
    early = spawn_simple(kernel_hawkeye, work_s=65.0, name="w")
    spawn_simple(kernel_hawkeye, work_s=155.0, name="late")
    kernel_hawkeye.run(max_epochs=90)
    assert early.finished
    kernel_hawkeye.exit_process(early.proc)
    kernel_hawkeye.run_epochs(30)        # next sample retires the pid
    assert early.proc.pid not in monitor.procs
    retired = [p for p in monitor.retired if p["pid"] == early.proc.pid]
    assert retired and retired[-1]["finished"]
    snap = monitor.snapshot()
    names = [p["process"] for p in snap["processes"]]
    assert "late" in names and "w" in names


# -- snapshot shape ------------------------------------------------------ #


def test_snapshot_shape_and_json_round_trip(kernel_hawkeye):
    monitor, run = _run_sampled(kernel_hawkeye)
    snap = monitor.snapshot()
    assert snap["samples"] == monitor.samples
    proc = snap["processes"][0]
    for key in ("process", "pid", "samples", "span", "bins", "t_s",
                "heat", "util", "huge", "bloat", "node", "alloc_age",
                "regions", "hot_regions", "wss"):
        assert key in proc, key
    assert 0 < len(proc["heat"]) == len(proc["t_s"]) <= heat.HISTORY
    assert all(len(row) == proc["bins"] for row in proc["heat"])
    for p in ("p50", "p95", "p99"):
        assert p in proc["wss"]
    # UMA kernel, no audit attached: placeholder rows stay None
    assert all(r is None for r in proc["node"])
    assert all(r is None for r in proc["alloc_age"])
    assert json.loads(json.dumps(snap)) == snap


def test_alloc_age_rows_join_frame_ledger(kernel_hawkeye):
    audit.attach(kernel_hawkeye)
    monitor, run = _run_sampled(kernel_hawkeye)
    proc = monitor.snapshot()["processes"][0]
    last = proc["alloc_age"][-1]
    assert last is not None
    assert any(v >= 0 for v in last)
    audit.detach(kernel_hawkeye)


# -- telemetry integration ----------------------------------------------- #


def test_telemetry_capture_includes_heat(kernel_hawkeye):
    heat.attach(kernel_hawkeye)          # before the sampler: gauges are
    sampler = telemetry.attach(kernel_hawkeye)   # declared at construction
    spawn_simple(kernel_hawkeye, work_s=100.0)
    kernel_hawkeye.run(max_epochs=90)
    doc = sampler.telemetry().to_dict()
    assert doc["heat"]["samples"] == 3
    scalars = telemetry.RunTelemetry.from_dict(doc).scalar_metrics()
    assert scalars["heat.w.regions"] >= 1
    assert "heat.w.wss_p50" in scalars
    gauges = doc["scrapes"][-1]["gauges"]
    assert gauges.get("heat_monitoring_regions")
    heat.detach(kernel_hawkeye)
    telemetry.detach(kernel_hawkeye)


def test_telemetry_omits_heat_when_empty(kernel4k):
    """No samples folded -> no `heat` key (artifact byte identity)."""
    heat.attach(kernel4k)
    sampler = telemetry.attach(kernel4k)
    spawn_simple(kernel4k)               # finishes well under sample_period
    kernel4k.run(max_epochs=10)
    doc = sampler.telemetry().to_dict()
    assert "heat" not in doc
    heat.detach(kernel4k)
    telemetry.detach(kernel4k)


def test_telemetry_without_monitor_has_no_heat_families(kernel4k):
    sampler = telemetry.attach(kernel4k)
    spawn_simple(kernel4k, work_s=100.0)
    kernel4k.run(max_epochs=90)
    doc = sampler.telemetry().to_dict()
    assert "heat" not in doc
    assert not any("heat" in name for scrape in doc["scrapes"]
                   for name in scrape["gauges"])
    telemetry.detach(kernel4k)


# -- trace integration ---------------------------------------------------- #


def test_heat_emits_wss_tracepoints(kernel_hawkeye):
    tracer = trace.attach(kernel_hawkeye)
    monitor, run = _run_sampled(kernel_hawkeye)
    events = tracer.of_kind(trace.TraceKind.HEAT_WSS)
    assert len(events) == monitor.samples
    assert events[-1].span_us == 0.0
    assert "wss_pages=" in events[-1].detail
    trace.detach(kernel_hawkeye)


def test_chrome_export_renders_heat_counters(kernel_hawkeye):
    from repro.metrics.export import trace_to_chrome

    tracer = trace.attach(kernel_hawkeye)
    _run_sampled(kernel_hawkeye)
    doc = json.loads(trace_to_chrome(tracer.events))
    counters = [r for r in doc["traceEvents"] if r["ph"] == "C"]
    assert counters
    args = counters[-1]["args"]
    assert set(args) == {"wss_pages", "hot_regions", "regions"}
    assert all(isinstance(v, float) for v in args.values())
    # heat events never render as instants or slices
    assert not any(r.get("name") == "heat.wss" for r in doc["traceEvents"]
                   if r["ph"] in ("i", "X"))
    trace.detach(kernel_hawkeye)


# -- rendering ------------------------------------------------------------#


def test_ramp_char_levels():
    assert heat.ramp_char(0, 512) == " "
    assert heat.ramp_char(-1, 512) == " "
    assert heat.ramp_char(512, 512) == "█"
    assert heat.ramp_char(1e9, 512) == "█"
    assert heat.ramp_char(1, 512) == "▁"


def test_format_helpers(kernel_hawkeye):
    monitor, run = _run_sampled(kernel_hawkeye)
    proc = monitor.snapshot()["processes"][0]
    hm = heat.format_heatmap(proc, epochs=3)
    assert "heat — w" in hm and "wss=" in hm
    assert hm.count("│") == 2 * 3        # 3 rows, two border chars each
    regions = heat.format_regions(proc)
    assert "monitoring regions" in regions and "span_hvpn" in regions
    wss = heat.format_wss(proc)
    assert "estimate_pages" in wss and "p50=" in wss
    util = heat.format_heatmap(proc, matrix="util")
    assert "util — w" in util and "wss=" not in util


def test_heatmap_svg_inline_and_standalone(kernel_hawkeye):
    import xml.dom.minidom

    from repro.report.html import heatmap_svg

    monitor, run = _run_sampled(kernel_hawkeye)
    proc = monitor.snapshot()["processes"][0]
    inline = heatmap_svg(proc)
    assert inline.startswith('<svg class="heatmap"')
    assert "xmlns" not in inline and "<style>" not in inline
    assert 'class="h0"' in inline
    standalone = heatmap_svg(proc, standalone=True)
    assert "xmlns" in standalone and "<style>" in standalone
    assert "prefers-color-scheme: dark" in standalone
    xml.dom.minidom.parseString(standalone)


def test_write_heat_svgs(tmp_path, kernel_hawkeye):
    import os

    from repro.report.html import write_heat_svgs

    monitor, _ = _run_sampled(kernel_hawkeye)
    written = write_heat_svgs(monitor.snapshot(), str(tmp_path),
                              label="cell/x:1")
    assert len(written) == 2             # heat + util for one process
    for path in written:
        assert os.path.basename(path).startswith("cell_x_1-w-")
        with open(path) as fh:
            assert fh.read().startswith('<svg class="heatmap"')


# -- CLI and report -------------------------------------------------------- #


def _heat_envelope(cell_id: str, snap: dict) -> dict:
    return {
        "cell_id": cell_id,
        "cell": {"experiment": cell_id.split("/")[0], "case": "c",
                 "policy": "hawkeye-g", "scale_denominator": 128},
        "result": {},
        "source": "test",
        "telemetry": [{"version": 1, "meta": {}, "scrapes": [],
                       "attribution": {}, "histograms": {}, "heat": snap}],
        "timing": {"finished_at": 1.0, "wall_s": 0.1},
    }


def _seed_cache(root, envelopes):
    from repro.runner.cache import ResultCache

    cache = ResultCache(root)
    cache.results_dir.mkdir(parents=True, exist_ok=True)
    for i, env in enumerate(envelopes):
        (cache.results_dir / f"k{i}.json").write_text(json.dumps(env))
    return cache


def test_cli_heat_live_json(capsys):
    from repro.cli import main

    rc = main(["heat", "kvm-spinup", "--policy", "hawkeye-g",
               "--scale", "256", "--max-epochs", "120", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc in (0, 1)
    assert doc["workload"] == "kvm-spinup"
    assert isinstance(doc["processes"], list)


def test_cli_heat_region_filter(capsys):
    from repro.cli import main

    rc = main(["heat", "xsbench", "--policy", "hawkeye-g",
               "--scale", "256", "--max-epochs", "120", "--region", "1"])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert "monitoring region covering hvpn 1" in out or "outside" in out


def test_cli_heat_cache_mode(tmp_path, capsys, kernel_hawkeye):
    from repro.cli import main

    monitor, _ = _run_sampled(kernel_hawkeye)
    snap = monitor.snapshot()
    _seed_cache(tmp_path / "cache",
                [_heat_envelope("exp/c:hawkeye-g@128", snap)])
    cache_dir = str(tmp_path / "cache")

    assert main(["heat", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "exp/c:hawkeye-g@128" in out and "wss_p50" in out

    assert main(["heat", "--cache-dir", cache_dir, "--process", "w",
                 "--svg-dir", str(tmp_path / "svgs")]) == 0
    out = capsys.readouterr().out
    assert "heat — w" in out             # full per-cell heatmap rendered
    assert "monitoring regions" in out
    assert list((tmp_path / "svgs").glob("*.svg"))

    assert main(["heat", "--cache-dir", cache_dir, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "exp/c:hawkeye-g@128" in doc["cells"]


def test_cli_heat_cache_empty(tmp_path, capsys):
    from repro.cli import main

    assert main(["heat", "--cache-dir", str(tmp_path)]) == 0
    assert "no captured heat snapshots" in capsys.readouterr().out


def test_report_html_heat_section(tmp_path, kernel_hawkeye):
    from repro.report.html import render_report

    monitor, _ = _run_sampled(kernel_hawkeye)
    cache = _seed_cache(tmp_path / "cache",
                        [_heat_envelope("exp/c:hawkeye-g@128",
                                        monitor.snapshot())])
    html = render_report(cache)
    assert "Spatial access heat" in html
    assert '<svg class="heatmap"' in html
    assert "--heat-8" in html
