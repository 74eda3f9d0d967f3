"""Directed tests for the decision audit: records, funnel, CLI verbs.

The core promise under test: a :class:`repro.audit.DecisionRecord`
carries the *exact* numbers the policy compared — so each test recomputes
those numbers independently (from region state and the policy's
configuration, never from the record itself) and asserts equality.
"""

from __future__ import annotations

import json

import pytest

from repro import audit
from repro.cli import main
from repro.core.access_map import BUCKET_WIDTH, NUM_BUCKETS
from repro.core.hawkeye import HawkEyePolicy
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.ingens import IngensPolicy
from repro.tlb.perf import PMUCounters
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.process import Process

from tests.conftest import small_config, spawn_simple


def _base_kernel():
    """HawkEye kernel that faults base pages (promotion is explicit)."""
    return Kernel(
        small_config(),
        lambda k: HawkEyePolicy(k, huge_faults=False, prezero_enabled=False,
                                promote_per_sec=100.0),
    )


def _proc_with_heap(kernel, pages: int, name: str = "victim"):
    """A process with ``pages`` base pages faulted into its first region."""
    proc = Process(name)
    kernel.processes.append(proc)
    kernel.pmu[proc.pid] = PMUCounters()
    vma = kernel.mmap(proc, 4 * MB, "heap")
    for vpn in range(vma.start, vma.start + pages):
        kernel.fault(proc, vpn)
    return proc, vma


# --------------------------------------------------------------------- #
# frame provenance ledger                                                #
# --------------------------------------------------------------------- #


def test_ledger_alloc_free_cycle():
    kernel = _base_kernel()
    log = audit.attach(kernel)
    proc, vma = _proc_with_heap(kernel, 3)
    frame = proc.page_table.base[vma.start].frame
    rec = log.ledger.describe(frame)
    assert rec["live"] and rec["pid"] == proc.pid and rec["site"] == "fault"
    kernel.madvise_free(proc, vma.start, 3)
    rec = log.ledger.describe(frame)
    assert not rec["live"]
    assert rec["events"][-1][0] == "freed"
    audit.detach(kernel)


def test_attach_backfills_preexisting_allocations():
    kernel = _base_kernel()
    proc, vma = _proc_with_heap(kernel, 2)
    frame = proc.page_table.base[vma.start].frame
    log = audit.attach(kernel)  # after the faults
    rec = log.ledger.describe(frame)
    assert rec["live"] and rec["pid"] == proc.pid
    assert rec["site"] == "preexisting"
    audit.detach(kernel)
    assert kernel.audit is None and kernel.frames.ledger is None


# --------------------------------------------------------------------- #
# decision records vs independent recomputation                          #
# --------------------------------------------------------------------- #


def test_hawkeye_promotion_record_matches_recomputation():
    """The accept record's EMA/bucket equal values derived from region
    state and access-map arithmetic, not echoed back from the engine."""
    kernel = _base_kernel()
    log = audit.attach(kernel)
    policy = kernel.policy
    proc, vma = _proc_with_heap(kernel, PAGES_PER_HUGE)
    hvpn = vma.start >> 9
    region = proc.regions.get(hvpn)
    region.coverage_ema = 321.5
    # install the candidate the way the sampler would
    from repro.core.access_map import AccessMap

    amap = policy.access_maps.setdefault(proc.pid, AccessMap())
    amap.update(hvpn, region.coverage_ema)

    promoted = policy.engine.run_epoch()
    assert promoted >= 1
    (rec,) = log.decisions_for(pid=proc.pid, hvpn=hvpn, point="promote")
    assert rec.outcome == "accept" and rec.reason == "promoted"
    assert rec.stage == len(audit.FUNNEL_STAGES)
    # independent recomputation: the EMA was pinned above, the bucket is
    # plain arithmetic over it, and the promotion actually happened.
    assert rec.inputs["coverage_ema"] == 321.5
    assert rec.inputs["bucket"] == min(NUM_BUCKETS - 1,
                                       int(321.5) // BUCKET_WIDTH)
    assert rec.inputs["budget_left"] >= 1.0
    assert hvpn in proc.page_table.huge
    audit.detach(kernel)


def test_ingens_promotion_record_matches_recomputation():
    """Threshold and utilization in the record equal the configured
    threshold and the faulted-page fraction, recomputed from scratch."""
    faulted = 480
    kernel = Kernel(
        small_config(),
        lambda k: IngensPolicy(k, util_threshold=0.9, adaptive=False,
                               promote_per_sec=100.0),
    )
    log = audit.attach(kernel)
    proc, vma = _proc_with_heap(kernel, faulted)
    hvpn = vma.start >> 9
    kernel.policy.on_epoch()
    (rec,) = log.decisions_for(pid=proc.pid, hvpn=hvpn, point="promote")
    assert rec.outcome == "accept"
    assert rec.inputs["threshold"] == 0.9
    assert rec.inputs["utilization"] == faulted / PAGES_PER_HUGE
    assert hvpn in proc.page_table.huge
    audit.detach(kernel)


def test_funnel_monotone_and_consistent():
    """candidates >= eligible >= budget_passed >= acted per point, the
    candidate total equals the record count, rejects never exceed it."""
    kernel = _base_kernel()
    log = audit.attach(kernel)
    spawn_simple(kernel, heap_mb=8, work_s=600.0)
    kernel.run(max_epochs=80)  # several 30-epoch sampling periods
    assert log.recorded > 0
    for point, counts in log.funnel.items():
        for earlier, later in zip(counts, counts[1:]):
            assert earlier >= later, (point, counts)
    assert sum(counts[0] for counts in log.funnel.values()) == log.recorded
    for point, reasons in log.rejections.items():
        assert sum(reasons.values()) <= log.funnel[point][0]
    assert log.dropped == max(0, log.recorded - len(log.decisions))
    summary = log.funnel_summary()
    acted = sum(c["acted"] for c in summary.values())
    assert acted == sum(counts[3] for counts in log.funnel.values())
    audit.detach(kernel)


def test_decision_record_round_trips_to_dict(kernel_hawkeye):
    log = audit.attach(kernel_hawkeye)
    log.decide("promote", "w", 7, 42, "reject", "not_promotable", stage=1,
               inputs={"coverage_ema": 3.0})
    d = log.decisions[-1].to_dict()
    assert d["stage"] == "candidates" and d["reason"] == "not_promotable"
    assert d["inputs"] == {"coverage_ema": 3.0}
    assert "not_promotable" in str(log.decisions[-1])
    audit.detach(kernel_hawkeye)


def test_disabled_audit_records_nothing(kernel_hawkeye):
    log = audit.attach(kernel_hawkeye)
    log.enabled = False
    assert not log.ledger.enabled
    baseline = log.ledger.live.copy()  # boot-time backfill stays
    events_before = log.ledger.events_recorded
    spawn_simple(kernel_hawkeye, heap_mb=4, work_s=1.0)
    kernel_hawkeye.run(max_epochs=200)
    assert log.recorded == 0
    assert (log.ledger.live == baseline).all()
    assert log.ledger.events_recorded == events_before
    audit.detach(kernel_hawkeye)


# --------------------------------------------------------------------- #
# CLI verbs                                                              #
# --------------------------------------------------------------------- #

_FAST = ["--scale", "256", "--max-epochs", "200"]


def test_cli_why_replays_promotions(capsys):
    rc = main(["why", "kvm-spinup", *_FAST, "--point", "promote"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replayable decisions" in out
    assert "promote" in out


def test_cli_audit_json_funnel_is_monotone(capsys):
    rc = main(["audit", "kvm-spinup", *_FAST, "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["recorded"] >= 0
    for point, stages in doc["funnel"].items():
        ordered = [stages[s] for s in audit.FUNNEL_STAGES]
        assert ordered == sorted(ordered, reverse=True), point


def test_cli_audit_table(capsys):
    rc = main(["audit", "kvm-spinup", *_FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "decision funnel" in out
    assert "candidates" in out


def test_cli_audit_cache_mode_empty(tmp_path, capsys):
    rc = main(["audit", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "no captured decision audits" in capsys.readouterr().out


def test_cli_pagemap_region_table(capsys):
    rc = main(["pagemap", "kvm-spinup", *_FAST, "--limit", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "populated regions" in out
    assert "head frame" in out


def test_cli_pagemap_single_region(capsys):
    rc = main(["pagemap", "alloc-touch-free", *_FAST, "--region", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flags" in out


def test_cli_top_watch(capsys):
    rc = main(["top", "sequential-4g", "--scale", "256",
               "--max-epochs", "40", "--interval", "0", "--watch", "0"])
    assert rc in (0, 1)  # the scan may not finish in 40 epochs
    out = capsys.readouterr().out
    assert "\x1b[1A" in out  # repainted in place at least once
    assert "sequential-4g/" in out


def test_cli_top_watch_rewinds_wrapped_rows(capsys, monkeypatch):
    """A row wider than the terminal wraps into several physical lines;
    the repaint must rewind all of them, not just one (drift bug)."""
    import os
    import shutil

    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda fallback=(80, 24): os.terminal_size((20, 24)))
    rc = main(["top", "sequential-4g", "--scale", "256",
               "--max-epochs", "40", "--interval", "0", "--watch", "0"])
    assert rc in (0, 1)
    out = capsys.readouterr().out
    # every repaint row is ~100 chars -> 5 physical lines at width 20;
    # the clear sequence must repeat once per physical line.
    assert "\x1b[1A\r\x1b[2K" * 5 in out
    assert "\x1b[1A\r\x1b[2K" * 6 not in out


def test_cli_why_filters_by_region(capsys):
    rc = main(["why", "kvm-spinup", *_FAST, "--region", "999999"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "none matched" in out
