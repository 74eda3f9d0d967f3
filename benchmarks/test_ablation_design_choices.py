"""Ablations for the design choices DESIGN.md calls out.

Not part of the paper's evaluation — these isolate the contribution of
individual HawkEye mechanisms by switching them off or distorting them:

1. **Dual zero/non-zero free lists + pre-zeroing** — HawkEye with
   pre-zeroing disabled pays synchronous zeroing like Linux, erasing the
   Table 8 spin-up win.
2. **Fine-grained access_map** (10 buckets) vs a degenerate 1-bucket map
   — with a single bucket HawkEye loses the hot-first ordering and its
   Figure 6 recovery advantage shrinks toward VA-order scanning.
3. **Bloat-recovery watermarks** — recovery disabled (watermarks at 100 %)
   reproduces the Linux OOM in the Figure 1 experiment; the emergency
   path alone is enough to survive, but recovers later.
4. **Non-temporal stores** — already ablated in Figure 10 (cached vs NT).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import banner, run_once
from repro.core import access_map as am
from repro.errors import OutOfMemoryError
from repro.experiments import POLICIES, Scale, fragment, make_kernel
from repro.metrics.tables import format_table
from repro.units import GB, SEC
from repro.workloads.redis import RedisFig1
from repro.workloads.spinup import KVMSpinUp
from repro.workloads.xsbench import XSBench


def test_ablation_prezero_disabled(benchmark, scale):
    """Without async pre-zeroing, HawkEye's huge faults cost 465 µs again."""

    def experiment():
        out = {}
        for label, overrides in (
            ("prezero on", {}),
            ("prezero off", {"prezero_enabled": False}),
        ):
            kernel = make_kernel(96 * GB, "hawkeye-g", scale, boot_zeroed=False)
            kernel.policy.config.prezero_enabled = overrides.get("prezero_enabled", True)
            if kernel.policy.config.prezero_enabled:
                kernel.policy.prezero._limiter.per_second = 1e9
                kernel.run_epochs(2)
            run = kernel.spawn(KVMSpinUp(scale=scale.factor))
            kernel.run(max_epochs=500)
            stats = run.proc.stats
            out[label] = stats.fault_time_us / max(stats.faults, 1)
        return out

    result = run_once(benchmark, experiment)
    banner("Ablation: async pre-zeroing (KVM spin-up, avg huge-fault µs)")
    print(format_table(["configuration", "avg fault µs"],
                       [[k, round(v, 1)] for k, v in result.items()]))
    assert result["prezero on"] == pytest.approx(13.0, rel=0.2)
    assert result["prezero off"] == pytest.approx(465.0, rel=0.05)


def test_ablation_access_map_resolution(benchmark, scale):
    """One coarse bucket loses the hot-first promotion ordering."""

    def run_with_buckets(nbuckets):
        original = (am.NUM_BUCKETS, am.BUCKET_WIDTH)
        am.NUM_BUCKETS, am.BUCKET_WIDTH = nbuckets, 512 // nbuckets + 1
        try:
            kernel = make_kernel(96 * GB, "hawkeye-g", scale)
            fragment(kernel)
            run = kernel.spawn(XSBench(scale=scale.factor, work_us=700 * SEC))
            kernel.run(max_epochs=4000)
            return run.elapsed_us / SEC
        finally:
            am.NUM_BUCKETS, am.BUCKET_WIDTH = original

    def experiment():
        return {n: run_with_buckets(n) for n in (1, 10)}

    result = run_once(benchmark, experiment)
    banner("Ablation: access_map bucket count (XSBench, fragmented)")
    print(format_table(["buckets", "time s"],
                       [[n, round(t, 1)] for n, t in result.items()]))
    # ten buckets must not be slower; typically it is faster because the
    # high-VA hot regions are promoted before the cold low-VA ones
    assert result[10] <= result[1] * 1.02


def test_ablation_bloat_recovery_paths(benchmark, scale):
    """Watermark thread + emergency path vs emergency-only vs none."""

    def run_fig1(watermark_high, emergency):
        kernel = make_kernel(48 * GB, "hawkeye-g", scale)
        policy = kernel.policy
        policy.bloat.watermarks.high = watermark_high
        policy.bloat.watermarks.low = watermark_high - 0.15
        if not emergency:
            policy.on_memory_pressure = lambda pages_needed: 0
        run = kernel.spawn(RedisFig1(scale=scale.factor))
        try:
            kernel.run(max_epochs=4000)
        except OutOfMemoryError:
            return {"outcome": "OOM", "recovered": kernel.stats.bloat_pages_recovered}
        return {
            "outcome": "completed" if run.finished else "running",
            "recovered": kernel.stats.bloat_pages_recovered,
        }

    def experiment():
        return {
            "watermarks + emergency": run_fig1(0.85, True),
            "emergency only": run_fig1(0.999, True),
            "no recovery": run_fig1(0.999, False),
        }

    result = run_once(benchmark, experiment)
    banner("Ablation: bloat-recovery paths on the Figure 1 workload")
    print(format_table(
        ["configuration", "outcome", "pages recovered"],
        [[k, v["outcome"], v["recovered"]] for k, v in result.items()],
    ))
    assert result["watermarks + emergency"]["outcome"] == "completed"
    assert result["emergency only"]["outcome"] == "completed"
    assert result["no recovery"]["outcome"] == "OOM"
    # the proactive watermark thread starts recovering before the cliff
    assert (result["watermarks + emergency"]["recovered"]
            >= result["emergency only"]["recovered"] * 0.5)


def test_ablation_wss_vs_measured_ordering(benchmark, scale):
    """§2.4's strawman run head-to-head: rank the Table 9 mixed set by
    estimated WSS instead of measured overheads.

    A WSS-ordered allocator serves mg.D (larger working set, ~1%
    overhead) ahead of cg.D (39%); HawkEye-PMU serves cg.D first.  The
    sensitive workload's completion time shows the cost of the wrong
    signal."""
    from repro.core.wss import wss_overhead_belief
    from repro.experiments import fragment
    from repro.workloads.npb import NPBWorkload

    def run_variant(use_wss):
        kernel = make_kernel(96 * GB, "hawkeye-pmu", scale)
        fragment(kernel)
        if use_wss:
            kernel.policy.engine.measured_overhead = (
                lambda proc: wss_overhead_belief(kernel, proc)
            )
        cg = kernel.spawn(NPBWorkload("cg.D", scale=scale.factor, work_us=500 * SEC))
        kernel.spawn(NPBWorkload("mg.D", scale=scale.factor, work_us=2000 * SEC))
        while not cg.finished and kernel.stats.epochs < 4000:
            kernel.run_epoch()
        assert cg.finished
        return cg.elapsed_us / SEC

    def experiment():
        return {
            "ranked by measured overhead (PMU)": run_variant(False),
            "ranked by estimated WSS (§2.4 strawman)": run_variant(True),
        }

    result = run_once(benchmark, experiment)
    banner("Ablation: promotion ranking signal — measured overhead vs WSS")
    print(format_table(["ranking signal", "cg.D completion s"],
                       [[k, round(v, 1)] for k, v in result.items()]))
    assert (result["ranked by measured overhead (PMU)"]
            < result["ranked by estimated WSS (§2.4 strawman)"])


def test_ablation_bloat_recovery_vs_samepage_merging(benchmark, scale):
    """§3.2's cost claim, measured: recovering zero-filled bloat via the
    bloat-recovery scan (early-exit after ~10 bytes on in-use pages) is
    far cheaper in CPU time than generic same-page merging, which must
    read whole pages to prove equality — and both converge to the same
    amount of memory recovered."""
    from repro.mem.samepage import SamePageMerger
    from repro.units import MB
    from repro.workloads.microbench import SparseTouch

    def bloated_kernel():
        kernel = make_kernel(8 * GB, "linux-2mb", scale, kcompactd=False)
        run = kernel.spawn(SparseTouch(4 * GB, stride_pages=4,
                                       scale=scale.factor, hold_us=1e12))
        kernel.run_epochs(2)
        proc = run.proc
        # demote everything so both mechanisms work on base mappings
        for hvpn in proc.page_table.huge_in_order().tolist():
            kernel.demote_region(proc, hvpn)
        return kernel, proc

    def via_bloat_recovery():
        kernel, proc = bloated_kernel()
        cpu_before = kernel.stats.bloat_cpu_us
        recovered = 0
        for hvpn in list(proc.regions.slot_of):
            got, scanned = kernel.dedup_zero_pages(proc, hvpn)
            recovered += got
        cpu = kernel.stats.bloat_scan_bytes * kernel.costs.scan_byte_us
        return recovered, cpu

    def via_samepage_merging():
        kernel, proc = bloated_kernel()
        merger = SamePageMerger(kernel, pages_per_sec=1e12)
        recovered = 0
        for _ in range(4):
            recovered += merger.run_epoch()
        cpu = merger.bytes_compared * kernel.costs.scan_byte_us \
            + kernel.stats.khugepaged_cpu_us
        return recovered, cpu

    def experiment():
        return {
            "bloat recovery (zero-scan)": via_bloat_recovery(),
            "same-page merging (ksm)": via_samepage_merging(),
        }

    result = run_once(benchmark, experiment)
    banner("Ablation: reclaiming zero bloat — §3.2 scan vs generic ksm")
    print(format_table(
        ["mechanism", "pages recovered", "CPU ms"],
        [[k, pages, round(cpu / 1000.0, 2)] for k, (pages, cpu) in result.items()],
    ))
    scan_pages, scan_cpu = result["bloat recovery (zero-scan)"]
    ksm_pages, ksm_cpu = result["same-page merging (ksm)"]
    # both find the same zero bloat...
    assert scan_pages == ksm_pages
    # ...but ksm pays full-page reads plus per-page compare overhead
    assert ksm_cpu > 2 * scan_cpu
