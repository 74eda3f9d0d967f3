"""Tests for the sweep runner: registry, cache, manifest, scheduler.

The scheduler tests register tiny throwaway experiments; worker
processes inherit them through fork, so no benchmark-scale cells run
here.  The determinism test does run one real ``smoke`` cell both
serially and through a 4-worker pool and requires byte-identical
envelopes modulo the ``timing`` block — the property the result cache
is built on.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.runner import (
    Cell,
    Manifest,
    ResultCache,
    UnknownCellError,
    cache,
    cell_key,
    cells_for,
    clear_digest_memo,
    execute_cell,
    experiment_names,
    parse_selectors,
    register,
    run_sweep,
    source_digest,
    unregister,
)

# --------------------------------------------------------------------- #
# registry                                                               #
# --------------------------------------------------------------------- #


def test_stock_experiments_registered():
    names = experiment_names()
    for expected in ("fig1", "tab1", "tab8", "tab9", "fig5", "smoke"):
        assert expected in names


def test_cells_for_enumerates_grid():
    cells = cells_for("tab8")
    assert len(cells) == 25  # 5 workloads x 5 policies
    assert len({c.cell_id for c in cells}) == 25
    assert all(c.scale_denominator == 128 for c in cells)


def test_cells_for_subgrid_and_validation():
    cells = cells_for("tab8", cases=("hacc-io",), policies=("linux-4kb",))
    assert [c.cell_id for c in cells] == ["tab8/hacc-io:linux-4kb@128"]
    with pytest.raises(UnknownCellError):
        cells_for("tab8", cases=("nope",))
    with pytest.raises(UnknownCellError):
        cells_for("tab8", policies=("nope",))
    with pytest.raises(UnknownCellError):
        cells_for("no-such-experiment")


def test_parse_selectors_grammar():
    assert parse_selectors(["smoke"]) == cells_for("smoke")
    assert parse_selectors(["smoke/touch"]) == cells_for("smoke")
    one = parse_selectors(["smoke:linux-4kb"])
    assert [c.cell_id for c in one] == ["smoke/touch:linux-4kb@128"]
    full = parse_selectors(["smoke/touch:hawkeye-g"])
    assert [c.cell_id for c in full] == ["smoke/touch:hawkeye-g@128"]
    # dedup preserves first-seen order
    both = parse_selectors(["smoke:linux-4kb", "smoke"])
    assert both[0].policy == "linux-4kb"
    assert len(both) == len(cells_for("smoke"))
    # 'all' covers every registered experiment
    everything = parse_selectors(["all"])
    assert {c.experiment for c in everything} == set(experiment_names())


def test_parse_selectors_scale_denominator():
    cells = parse_selectors(["smoke"], scale_denominator=64)
    assert all(c.scale_denominator == 64 for c in cells)
    assert cells[0].scale.factor == pytest.approx(1 / 64)


def test_register_rejects_unknown_policy_and_duplicates():
    with pytest.raises(UnknownCellError):
        register("bogus", "t", cases=("c",), policies=("not-a-policy",),
                 run=lambda c, p, s: {})
    register("dup-exp", "t", cases=("c",), policies=("linux-4kb",),
             run=lambda c, p, s: {})
    try:
        with pytest.raises(ValueError):
            register("dup-exp", "t", cases=("c",), policies=("linux-4kb",),
                     run=lambda c, p, s: {})
    finally:
        unregister("dup-exp")


def test_cell_config_roundtrip():
    cell = Cell("tab8", "hacc-io", "linux-4kb", 64)
    assert Cell.from_config(cell.config()) == cell


def test_execute_cell_validates():
    with pytest.raises(UnknownCellError):
        execute_cell(Cell("smoke", "nope", "linux-4kb"))
    with pytest.raises(UnknownCellError):
        execute_cell(Cell("smoke", "touch", "nope"))


# --------------------------------------------------------------------- #
# cache                                                                  #
# --------------------------------------------------------------------- #


def test_cell_key_sensitivity():
    digest = source_digest()
    a = Cell("smoke", "touch", "linux-4kb")
    key = cell_key(a, digest)
    assert key == cell_key(Cell("smoke", "touch", "linux-4kb"), digest)
    assert key != cell_key(Cell("smoke", "touch", "linux-2mb"), digest)
    assert key != cell_key(Cell("smoke", "touch", "linux-4kb", 64), digest)
    assert key != cell_key(a, "0" * 64)          # source changed
    assert key != cell_key(a, digest, version=2)  # semantics changed
    # extra key material (scenario digests) joins the hash; empty
    # material keeps the historical key
    assert key == cell_key(a, digest, key_material="")
    assert key != cell_key(a, digest, key_material="scenario:abc123")


def test_source_digest_skips_modules_outside_cells(tmp_path, monkeypatch):
    # editing the CLI, a report renderer, the microbench harness or the
    # -m entry keeps every cache key; editing the kernel re-keys them
    tree = tmp_path / "repro"
    shutil.copytree(cache.SOURCE_ROOT, tree, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cache, "SOURCE_ROOT", tree)

    def digest_after(edit: str) -> str:
        with open(tree / edit, "a") as fh:
            fh.write("\n# edited\n")
        clear_digest_memo()
        return source_digest()

    clear_digest_memo()
    base = source_digest()
    for edit in ("report/html.py", "cli/run.py", "perf.py", "__main__.py"):
        assert digest_after(edit) == base, edit
    assert digest_after("kernel/kernel.py") != base
    clear_digest_memo()


def test_cache_roundtrip_and_corruption(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("abc") is None
    envelope = {"key": "abc", "result": {"x": 1}}
    path = cache.put("abc", envelope)
    assert cache.get("abc") == envelope
    assert len(cache) == 1
    assert list(cache.entries()) == [envelope]
    path.write_text("{not json")
    assert cache.get("abc") is None  # corrupt entry = miss, not an error
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cache_envelopes_are_compact_and_indented_ones_still_read(tmp_path):
    """``put`` writes compact sorted JSON that ``get`` returns exactly;
    an envelope written in the older ``indent=2`` form still reads."""
    cache = ResultCache(tmp_path)
    envelope = {"key": "new", "result": {"b": [1, 2.5, None], "a": "x"},
                "telemetry": [{"scrapes": [{"t_s": 0.0, "gauges": {}}]}]}
    path = cache.put("new", envelope)
    assert path.read_text() == json.dumps(envelope, sort_keys=True) + "\n"
    assert cache.get("new") == envelope
    old = {"key": "old", "result": {"x": 1}, "telemetry": []}
    with open(cache.path_for("old"), "w") as fh:
        json.dump(old, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert cache.get("old") == old
    assert list(cache.entries()) == [envelope, old]


def test_cache_put_interleaved_writers_same_key(tmp_path, monkeypatch):
    """Two writers racing on one key must both complete and leave an
    intact envelope.

    Pre-fix both writers used the deterministic ``<key>.json.tmp``
    name: the second writer truncated the first's tmp file and renamed
    it into place, after which the first writer wrote its tail into the
    *renamed* inode (corrupting the published envelope) and then blew
    up renaming its now-missing tmp.  The interleave is reproduced
    deterministically by nesting the second ``put`` between the first
    writer's dump and its rename.
    """
    import repro.runner.cache as cache_mod

    cache = ResultCache(tmp_path)
    key = "cafebabe"
    first = {"key": key, "result": {"writer": "first", "pad": "x" * 4096}}
    second = {"key": key, "result": {"writer": "second"}}
    real_dumps = json.dumps
    state = {"nested": False}

    def interleaved_dumps(obj, **kwargs):
        text = real_dumps(obj, **kwargs)
        if not state["nested"]:
            state["nested"] = True
            # a second sweep process publishes the same key between
            # this writer's dump and its rename
            ResultCache(tmp_path).put(key, second)
        return text

    monkeypatch.setattr(cache_mod.json, "dumps", interleaved_dumps)
    cache.put(key, first)  # must not raise
    monkeypatch.undo()
    stored = cache.get(key)
    assert stored in (first, second)  # last-writer-wins, but intact
    # no stray tmp files left behind either way
    assert list(cache.results_dir.glob("*.tmp")) == []


# --------------------------------------------------------------------- #
# manifest                                                               #
# --------------------------------------------------------------------- #


def test_manifest_roundtrip_and_resume(tmp_path):
    path = tmp_path / "manifest.json"
    cells = cells_for("smoke")
    keys = {c: f"k{i}" for i, c in enumerate(cells)}
    manifest = Manifest(path)
    manifest.begin(cells, keys, source="deadbeef", jobs=2)
    manifest.mark(cells[0], "ok", wall_s=1.5, attempts=1)
    manifest.mark(cells[1], "failed", attempts=2, error="boom")
    manifest.save()

    loaded = Manifest.load(path)
    assert loaded is not None
    assert loaded.cells() == cells
    assert loaded.pending_cells() == cells[1:]  # failed + untouched
    assert loaded.summary() == {"ok": 1, "failed": 1, "pending": 1}
    # re-begin keeps completed entries with unchanged keys
    loaded.begin(cells, keys, source="deadbeef", jobs=1)
    assert loaded.summary()["ok"] == 1
    # a key change (source edit) resets the entry to pending
    loaded.begin(cells, {c: "new" for c in cells}, source="cafe", jobs=1)
    assert loaded.summary() == {"pending": 3}


def test_manifest_load_rejects_bad_files(tmp_path):
    assert Manifest.load(tmp_path / "missing.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert Manifest.load(bad) is None
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"version": 999, "cells": {}}))
    assert Manifest.load(wrong) is None


# --------------------------------------------------------------------- #
# scheduler                                                              #
# --------------------------------------------------------------------- #


@pytest.fixture
def failure_modes_experiment():
    def run(case, policy, scale):
        if case == "sleepy":
            import time

            time.sleep(30)
        if case == "crashy":
            import os

            os._exit(3)
        if case == "faulty":
            raise RuntimeError("kaboom")
        return {"case": case, "policy": policy}

    register("failure-modes", "scheduler test grid",
             cases=("fine", "sleepy", "crashy", "faulty"),
             policies=("linux-4kb",), run=run)
    yield
    unregister("failure-modes")


def test_sweep_isolates_failures(failure_modes_experiment):
    cells = [Cell("failure-modes", c, "linux-4kb")
             for c in ("fine", "crashy", "faulty")]
    report = run_sweep(cells, jobs=2, timeout_s=10.0, retries=1)
    by_case = {o.cell.case: o for o in report.outcomes}
    assert by_case["fine"].status == "ok"
    assert by_case["fine"].result == {"case": "fine", "policy": "linux-4kb"}
    assert by_case["crashy"].status == "crashed"
    assert by_case["crashy"].attempts == 2
    assert by_case["faulty"].status == "failed"
    assert "kaboom" in by_case["faulty"].error
    assert not report.ok
    assert report.counts() == {"ok": 1, "crashed": 1, "failed": 1}


def test_sweep_cell_timeout(failure_modes_experiment):
    cells = [Cell("failure-modes", "sleepy", "linux-4kb")]
    report = run_sweep(cells, jobs=2, timeout_s=0.5, retries=0)
    outcome = report.outcomes[0]
    assert outcome.status == "timeout"
    # sub-second budgets render with their precision, not as "0s"
    assert "0.5s budget" in outcome.error
    assert outcome.wall_s < 5.0


def test_guarded_execute_survives_late_alarm(failure_modes_experiment,
                                             monkeypatch):
    """SIGALRM firing between the cell finishing and the timer disarm
    must not escape _guarded_execute's never-raises contract.

    The alarm is injected deterministically: the first disarm call
    (``setitimer(..., 0.0)``) raises the pending signal exactly in the
    window the race occupies.  Pre-fix, ``_CellTimeout`` propagates out
    of the ``finally`` and kills the worker; post-fix the computed
    outcome survives and the handler is restored.
    """
    import os
    import signal as signal_mod

    from repro.runner import scheduler as scheduler_mod

    cell = Cell("failure-modes", "fine", "linux-4kb")
    before = signal_mod.getsignal(signal_mod.SIGALRM)
    real_setitimer = signal_mod.setitimer
    fired = {"done": False}

    def racy_setitimer(which, seconds, *rest):
        if seconds == 0.0 and not fired["done"]:
            fired["done"] = True
            # queue a SIGALRM while the cell's handler is still live;
            # the Python-level handler raises _CellTimeout at the next
            # bytecode boundary — inside the disarm path.
            os.kill(os.getpid(), signal_mod.SIGALRM)
        return real_setitimer(which, seconds, *rest)

    monkeypatch.setattr(scheduler_mod.signal, "setitimer", racy_setitimer)
    outcome = scheduler_mod._guarded_execute(cell, 60.0)  # must not raise
    status, result = outcome[0], outcome[1]
    assert status == "ok"
    assert result == {"case": "fine", "policy": "linux-4kb"}
    assert fired["done"]  # the race window was actually exercised
    # timer fully disarmed and the previous handler restored
    assert real_setitimer(signal_mod.ITIMER_REAL, 0.0) == (0.0, 0.0)
    assert signal_mod.getsignal(signal_mod.SIGALRM) is before


def test_sweep_cache_and_force(tmp_path, failure_modes_experiment):
    cache = ResultCache(tmp_path)
    cells = [Cell("failure-modes", "fine", "linux-4kb")]
    first = run_sweep(cells, cache=cache)
    assert first.counts() == {"ok": 1}
    assert len(cache) == 1
    second = run_sweep(cells, cache=cache)
    assert second.counts() == {"cached": 1}
    assert second.executed == 0
    assert second.results() == first.results()
    forced = run_sweep(cells, cache=cache, force=True)
    assert forced.counts() == {"ok": 1}  # executed despite the cache


def test_sweep_updates_manifest(tmp_path, failure_modes_experiment):
    cache = ResultCache(tmp_path)
    manifest = Manifest(tmp_path / "manifest.json")
    cells = [Cell("failure-modes", c, "linux-4kb") for c in ("fine", "faulty")]
    run_sweep(cells, cache=cache, manifest=manifest, retries=0)
    loaded = Manifest.load(tmp_path / "manifest.json")
    assert loaded.summary() == {"ok": 1, "failed": 1}
    assert loaded.pending_cells() == [cells[1]]


@pytest.fixture
def staggered_experiment():
    def run(case, policy, scale):
        import time

        time.sleep({"slow": 0.8, "mid": 0.4, "fast": 0.0}[case])
        return {"case": case, "policy": policy}

    register("staggered", "completion-order test grid",
             cases=("slow", "mid", "fast"), policies=("linux-4kb",), run=run)
    yield
    unregister("staggered")


def test_pooled_outcomes_follow_cell_order(staggered_experiment):
    """Pooled execution completes out of submission order (slow first ⇒
    fast finishes first), but every downstream surface — progress
    callbacks, SweepReport.outcomes, the CSV/JSONL exports — must see
    cell order, byte-identical between jobs=1 and jobs=4."""
    from repro.metrics.export import cells_to_csv, cells_to_jsonl

    cells = [Cell("staggered", c, "linux-4kb")
             for c in ("slow", "mid", "fast")]
    settled: list[Cell] = []
    pooled = run_sweep(cells, jobs=4, retries=0,
                       progress=lambda o: settled.append(o.cell))
    serial = run_sweep(cells, jobs=1, retries=0)
    assert settled == cells
    assert [o.cell for o in pooled.outcomes] == cells
    assert [o.cell for o in serial.outcomes] == cells

    def normalized_records(report):
        records = []
        for outcome in report.outcomes:
            record = outcome.as_record()
            record["wall_s"] = 0.0  # the only legitimately varying field
            records.append(record)
        return records

    assert (cells_to_csv(normalized_records(serial))
            == cells_to_csv(normalized_records(pooled)))
    assert (cells_to_jsonl(normalized_records(serial))
            == cells_to_jsonl(normalized_records(pooled)))


def test_as_record_shape(failure_modes_experiment):
    report = run_sweep([Cell("failure-modes", "fine", "linux-4kb")])
    record = report.outcomes[0].as_record()
    assert record["cell_id"] == "failure-modes/fine:linux-4kb@128"
    assert record["experiment"] == "failure-modes"
    assert record["status"] == "ok"
    assert record["result"] == {"case": "fine", "policy": "linux-4kb"}


# --------------------------------------------------------------------- #
# determinism: serial vs pooled                                          #
# --------------------------------------------------------------------- #


def _strip_timing(envelope: dict) -> str:
    """Drop the wall-clock sections (timing block, telemetry self-profiles);
    everything else — results, scrapes, attribution — must be byte-identical."""
    stripped = {k: v for k, v in envelope.items() if k != "timing"}
    stripped["telemetry"] = [
        {k: v for k, v in artifact.items() if k != "self_profile"}
        for artifact in stripped.get("telemetry", [])
    ]
    return json.dumps(stripped, indent=2, sort_keys=True)


def test_smoke_cell_serial_vs_pooled_identical(tmp_path):
    """One cell run twice — in-process and on a 4-worker pool — must
    produce byte-identical cached envelopes modulo the timing block."""
    cell = Cell("smoke", "touch", "linux-4kb")
    serial_cache = ResultCache(tmp_path / "serial")
    pooled_cache = ResultCache(tmp_path / "pooled")
    serial = run_sweep([cell], jobs=1, cache=serial_cache)
    pooled = run_sweep([cell], jobs=4, cache=pooled_cache)
    assert serial.ok and pooled.ok
    key = serial.outcomes[0].key
    assert key == pooled.outcomes[0].key
    serial_env = serial_cache.get(key)
    pooled_env = pooled_cache.get(key)
    assert _strip_timing(serial_env) == _strip_timing(pooled_env)
    # and a third, direct in-process execution agrees with both
    assert execute_cell(cell) == serial_env["result"]


def test_numa_cell_serial_vs_pooled_identical(tmp_path):
    """The 2-node knumad balancing cell must be deterministic across
    workers too: hint-fault harvesting, candidate ordering and migration
    all run off sorted kernel state, never ambient interpreter state."""
    cell = Cell("numa", "balanced-2", "hawkeye-g")
    serial_cache = ResultCache(tmp_path / "serial")
    pooled_cache = ResultCache(tmp_path / "pooled")
    serial = run_sweep([cell], jobs=1, cache=serial_cache)
    pooled = run_sweep([cell], jobs=4, cache=pooled_cache)
    assert serial.ok and pooled.ok
    key = serial.outcomes[0].key
    assert key == pooled.outcomes[0].key
    serial_env = serial_cache.get(key)
    pooled_env = pooled_cache.get(key)
    assert _strip_timing(serial_env) == _strip_timing(pooled_env)
    result = serial_env["result"]
    # the cell did real balancing work (otherwise this proves nothing)
    assert result["pages_migrated"] > 0
    assert result["remote_walk_share"] < 0.5
    assert execute_cell(cell) == result
