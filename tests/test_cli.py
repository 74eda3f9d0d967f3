"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.cli.bench import BENCHES
from repro.experiments import POLICIES
from repro.workloads.catalog import WORKLOADS


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "not-a-workload"])


def test_workload_registry_factories_build():
    for name, (desc, factory) in WORKLOADS.items():
        wl = factory(1 / 256)
        assert wl.build_phases(), name
        assert desc


def test_bench_targets_exist():
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[1] / "benchmarks"
    for target, filename in BENCHES.items():
        assert (bench_dir / filename).exists(), target


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for policy in POLICIES:
        assert policy in out
    assert "kvm-spinup" in out
    assert "fig1" in out


def test_run_command(capsys):
    rc = main([
        "run", "kvm-spinup", "--policy", "hawkeye-g",
        "--mem-gb", "48", "--scale", "256", "--max-epochs", "200",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert "page faults" in out


def test_run_command_procfs(capsys):
    rc = main([
        "run", "hacc-io", "--policy", "linux-2mb",
        "--scale", "256", "--max-epochs", "200", "--procfs",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MemTotal:" in out
    assert "pgfault" in out


def test_compare_command(capsys):
    rc = main([
        "compare", "sparsehash", "--scale", "256", "--mem-gb", "96",
        "--policies", "linux-4kb,linux-2mb", "--max-epochs", "500",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "linux-4kb" in out and "linux-2mb" in out
    assert "speedup vs linux-4kb" in out


def test_compare_rejects_unknown_policy(capsys):
    rc = main([
        "compare", "sparsehash", "--policies", "linux-4kb,bogus",
    ])
    assert rc == 2


def test_trace_run_writes_jsonl_and_summary(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = main([
        "trace", "run", "alloc-touch-free", "--policy", "hawkeye-g",
        "--scale", "256", "--max-epochs", "500",
        "--out", str(out), "--summary",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "events emitted" in stdout
    assert "subsystem" in stdout  # attribution-table header
    assert "share_%" in stdout
    lines = out.read_text().splitlines()
    assert lines
    import json

    first = json.loads(lines[0])
    assert {"t_us", "kind", "process"} <= set(first)


def test_trace_run_kind_filter_restricts_output(tmp_path, capsys):
    out = tmp_path / "faults.jsonl"
    rc = main([
        "trace", "run", "alloc-touch-free", "--policy", "linux-4kb",
        "--scale", "256", "--max-epochs", "500",
        "--out", str(out), "--kind", "fault",
    ])
    assert rc == 0
    import json

    kinds = {json.loads(line)["kind"] for line in out.read_text().splitlines()}
    assert kinds
    assert all(k.startswith("fault") for k in kinds)


def test_trace_view_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    main([
        "trace", "run", "alloc-touch-free", "--policy", "hawkeye-g",
        "--scale", "256", "--max-epochs", "500", "--out", str(out),
    ])
    capsys.readouterr()
    rc = main(["trace", "view", str(out), "--limit", "5", "--summary", "--hist"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "events (of" in stdout
    assert "subsystem" in stdout


def test_trace_view_missing_file(capsys):
    assert main(["trace", "view", "/no/such/trace.jsonl"]) == 2


def test_top_prints_snapshot_rows(capsys):
    rc = main([
        "top", "alloc-touch-free", "--policy", "linux-2mb",
        "--scale", "256", "--max-epochs", "500", "--interval", "10",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "t_s" in lines[0] and "pgfault/s" in lines[0]
    assert len(lines) > 2  # header + at least one sample + outcome line


def test_sweep_run_status_clean(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    rc = main(["sweep", "run", "smoke:linux-4kb", "--jobs", "1",
               "--cache-dir", cache_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "smoke/touch:linux-4kb@128" in out

    # warm rerun: everything cached, --require-cached passes, JSONL out
    rc = main(["sweep", "run", "smoke:linux-4kb", "--cache-dir", cache_dir,
               "--require-cached", "--json"])
    assert rc == 0
    import json as _json

    record = _json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["status"] == "cached"
    assert record["result"]["finished"] is True

    rc = main(["sweep", "status", "--cache-dir", cache_dir])
    assert rc == 0
    assert "1 cached results" in capsys.readouterr().out

    rc = main(["sweep", "clean", "--cache-dir", cache_dir])
    assert rc == 0
    assert "removed 1 cached results" in capsys.readouterr().out


def test_sweep_run_require_cached_fails_cold(tmp_path, capsys):
    rc = main(["sweep", "run", "smoke:linux-4kb", "--require-cached",
               "--cache-dir", str(tmp_path / "cold")])
    assert rc == 1
    assert "--require-cached" in capsys.readouterr().err


def test_sweep_run_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "cells.csv"
    rc = main(["sweep", "run", "smoke:linux-2mb",
               "--cache-dir", str(tmp_path / "cache"), "--csv", str(csv_path)])
    assert rc == 0
    capsys.readouterr()
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("cell_id,")
    assert "smoke/touch:linux-2mb@128" in rows[1]


def test_sweep_run_unknown_selector(tmp_path, capsys):
    rc = main(["sweep", "run", "not-an-experiment",
               "--cache-dir", str(tmp_path / "cache")])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_sweep_resume_without_manifest(tmp_path, capsys):
    rc = main(["sweep", "run", "--resume",
               "--cache-dir", str(tmp_path / "empty")])
    assert rc == 2
    assert "nothing to resume" in capsys.readouterr().err


def test_sweep_resume_reruns_manifest(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "run", "smoke:hawkeye-g",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    rc = main(["sweep", "run", "--resume", "--cache-dir", cache_dir])
    assert rc == 0
    captured = capsys.readouterr()
    assert "resuming 1 cells" in captured.err
    assert "cached" in captured.out


def test_trace_export_chrome(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    main(["trace", "run", "alloc-touch-free", "--policy", "hawkeye-g",
          "--scale", "256", "--max-epochs", "500", "--out", str(jsonl)])
    capsys.readouterr()
    out = tmp_path / "trace.chrome.json"
    rc = main(["trace", "export", str(jsonl), "--chrome", "--out", str(out)])
    assert rc == 0
    assert "written to" in capsys.readouterr().out
    import json

    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    slices = [r for r in doc["traceEvents"] if r.get("ph") == "X"]
    assert slices and all(r["dur"] > 0 and r["ts"] >= 0 for r in slices)

    # default output name: input stem + .chrome.json
    rc = main(["trace", "export", str(jsonl), "--chrome"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "trace.chrome.json").exists()


def test_trace_export_requires_format(tmp_path, capsys):
    jsonl = tmp_path / "t.jsonl"
    jsonl.write_text("")
    assert main(["trace", "export", str(jsonl)]) == 2
    assert "--chrome" in capsys.readouterr().err
    assert main(["trace", "export", "/no/such.jsonl", "--chrome"]) == 2


def test_trace_summary_prints_percentiles(tmp_path, capsys):
    rc = main(["trace", "run", "alloc-touch-free", "--policy", "linux-4kb",
               "--scale", "256", "--max-epochs", "500", "--summary"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency percentiles" in out
    assert "p50" in out and "p99" in out


def test_top_trace_flag_fills_drop_column(capsys):
    rc = main(["top", "alloc-touch-free", "--policy", "linux-2mb",
               "--scale", "256", "--max-epochs", "500", "--interval", "10",
               "--trace", "--trace-capacity", "50"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "trdrop/s" in lines[0]
    assert not lines[1].rstrip().endswith("-")


def test_top_without_trace_shows_dash(capsys):
    rc = main(["top", "alloc-touch-free", "--policy", "linux-2mb",
               "--scale", "256", "--max-epochs", "500", "--interval", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].rstrip().endswith("-")


def test_report_html_and_regress_flow(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "run", "smoke:linux-4kb",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    html_path = tmp_path / "report.html"
    rc = main(["report", "html", "--cache-dir", cache_dir,
               "--out", str(html_path)])
    assert rc == 0
    assert "written to" in capsys.readouterr().out
    html = html_path.read_text()
    assert html.lstrip().startswith("<!DOCTYPE html>")
    assert "<table" in html and "smoke/touch:linux-4kb@128" in html
    assert "attribution" in html
    # self-contained: no external fetches of any kind
    assert "http://" not in html and "https://" not in html

    baseline = tmp_path / "base.json"
    rc = main(["report", "regress", str(baseline), "--cache-dir", cache_dir,
               "--bless", "--note", "test seed"])
    assert rc == 0
    assert "blessed" in capsys.readouterr().out
    rc = main(["report", "regress", str(baseline), "--cache-dir", cache_dir])
    assert rc == 0
    assert "OK" in capsys.readouterr().out

    # tighten a blessed metric by 10%: the gate must exit non-zero
    import json

    doc = json.loads(baseline.read_text())
    for cell in doc["cells"].values():
        for name in cell["metrics"]:
            if name.endswith("avg_fault_us"):
                cell["metrics"][name] /= 1.10
    baseline.write_text(json.dumps(doc))
    rc = main(["report", "regress", str(baseline), "--cache-dir", cache_dir])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_report_regress_missing_baseline(tmp_path, capsys):
    rc = main(["report", "regress", str(tmp_path / "none.json"),
               "--cache-dir", str(tmp_path / "cache")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_report_html_empty_cache(tmp_path, capsys):
    html_path = tmp_path / "report.html"
    rc = main(["report", "html", "--cache-dir", str(tmp_path / "void"),
               "--out", str(html_path)])
    assert rc == 0
    assert "no cached" in html_path.read_text().lower()


#: every verb and sub-verb path of `repro`, in registration order.
VERB_PATHS = [
    "list", "run", "compare", "bench",
    "trace", "trace run", "trace view", "trace export",
    "numa", "top", "fleet", "pagemap", "why", "audit", "heat",
    "sweep", "sweep run", "sweep status", "sweep clean",
    "scenario", "scenario run", "scenario validate", "scenario list",
    "report", "report html", "report regress",
]


def _verb_paths(parser, prefix=()):
    """Every verb and sub-verb path under ``parser``, depth first."""
    import argparse

    paths = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                path = prefix + (name,)
                paths.append(" ".join(path))
                paths += _verb_paths(child, path)
    return paths


@pytest.mark.parametrize("path", VERB_PATHS)
def test_verb_help(path, capsys):
    """Each verb is registered, in order, and its --help names its path."""
    assert _verb_paths(build_parser()) == VERB_PATHS
    with pytest.raises(SystemExit) as exc:
        main([*path.split(), "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == f"usage: repro {path}" or usage.startswith(f"usage: repro {path} ")


def test_numa_races_each_mode(capsys):
    rc = main(["numa", "--scale", "512", "--modes", "local,balanced"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hawkeye-g across 2 nodes (1/512 scale)"
    assert lines[1].split()[:3] == ["mode", "time", "s"]
    assert [line.split()[0] for line in lines[3:]] == ["local", "balanced"]


def test_numa_rejects_unknown_mode(capsys):
    assert main(["numa", "--scale", "512", "--modes", "local,bogus"]) == 2
    assert "unknown numa cases: bogus-2" in capsys.readouterr().err


@pytest.mark.parametrize("max_epochs,rc", [(400, 0), (5, 1)])
def test_fleet_exit_code_follows_lifetimes(max_epochs, rc, capsys):
    argv = ["fleet", "--tenants", "10", "--scale", "512",
            "--max-epochs", str(max_epochs)]
    assert main(argv) == rc
    out = capsys.readouterr().out
    assert out.startswith("fleet/hawkeye-g: ")
    assert "fault latency p50" in out
    assert main(argv + ["--json"]) == rc
    import json

    doc = json.loads(capsys.readouterr().out)
    assert (doc["exited"] >= 10) == (rc == 0)


def test_top_numa_and_fleet_columns(capsys):
    rc = main(["top", "sequential-4g", "--scale", "256", "--max-epochs", "120",
               "--interval", "30", "--nodes", "2", "--fleet-rate", "1"])
    assert rc == 1  # the epoch budget ends the run before the workload
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    assert header[header.index("trdrop/s") + 1:] == [
        "n0_free", "n0_alloc", "n1_free", "n1_alloc", "numamig/s",
        "tenants", "spawn/s", "exit/s", "oomk"]
    rows = [line.split() for line in lines[1:-1]]
    assert len(rows) >= 2 and all(len(row) == len(header) for row in rows)
    assert int(rows[-1][header.index("tenants")]) > 0
    assert lines[-1].startswith("sequential-4g/hawkeye-g: timeout after 120 epochs")
