"""Unit tests for the first-class tracepoint subsystem (repro.trace)."""

import warnings

import pytest

from repro import audit, heat, trace
from repro.core.hawkeye import HawkEyePolicy
from repro.errors import OutOfMemoryError
from repro.kernel import procfs
from repro.kernel.kernel import Kernel, KernelConfig
from repro.metrics import telemetry
from repro.policies.linux import Linux4KPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config, spawn_simple
from tests.test_fault import make_proc


# --------------------------------------------------------------------- #
# attachment and the kernel slot                                         #
# --------------------------------------------------------------------- #


def test_attach_arms_flag_and_detach_disarms(kernel4k):
    assert kernel4k.trace is None
    tracer = trace.attach(kernel4k)
    assert kernel4k.trace is tracer
    assert trace.detach(kernel4k) is tracer
    assert kernel4k.trace is None


def test_attach_is_idempotent(kernel4k):
    tracer = trace.attach(kernel4k)
    assert trace.attach(kernel4k) is tracer


def test_detach_without_tracer_is_noop(kernel4k):
    assert trace.detach(kernel4k) is None
    assert kernel4k.trace is None


def _hawkeye_kernel() -> Kernel:
    return Kernel(small_config(), lambda k: HawkEyePolicy(
        k, variant="g", promote_per_sec=100.0, prezero_pages_per_sec=1e6))


def _observe(kernel: Kernel) -> None:
    trace.attach(kernel)
    audit.attach(kernel)
    heat.attach(kernel)
    telemetry.attach(kernel)


def _outcome(kernel: Kernel, run) -> tuple:
    return (kernel.stats.epochs, kernel.now_us, run.finish_time_us,
            run.op_time_us, procfs.vmstat(kernel))


def test_observed_and_unobserved_kernels_are_isolated():
    """Observers on one kernel leave a second kernel in the same process
    untouched, and see exactly what they see when running alone."""
    epochs = 90
    observed, bare = _hawkeye_kernel(), _hawkeye_kernel()
    _observe(observed)
    spawn_simple(observed, work_s=100.0)
    bare_run = spawn_simple(bare, work_s=100.0)
    for _ in range(epochs):  # interleaved: A's observers live while B runs
        observed.run_epoch()
        bare.run_epoch()

    fresh = _hawkeye_kernel()
    fresh_run = spawn_simple(fresh, work_s=100.0)
    fresh.run_epochs(epochs)
    solo = _hawkeye_kernel()
    _observe(solo)
    spawn_simple(solo, work_s=100.0)
    solo.run_epochs(epochs)

    assert (bare.trace, bare.audit, bare.heat, bare.telemetry) == (None,) * 4
    assert bare.frames.ledger is None
    assert _outcome(bare, bare_run) == _outcome(fresh, fresh_run)
    assert observed.trace.counts == solo.trace.counts
    assert observed.trace.spans == solo.trace.spans
    assert observed.trace.counts[trace.TraceKind.HEAT_WSS] > 0
    assert observed.heat.samples == solo.heat.samples > 0
    assert len(observed.telemetry.scrapes) == len(solo.telemetry.scrapes) > 0
    assert observed.audit.ledger.live.sum() == solo.audit.ledger.live.sum() > 0


def test_no_tracer_emits_nothing(kernel4k):
    proc, vma = make_proc(kernel4k)
    kernel4k.fault(proc, vma.start)
    assert kernel4k.trace is None  # and nothing crashed


def test_tracer_enabled_false_pauses_emission(kernel4k):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k)
    tracer.enabled = False
    kernel4k.fault(proc, vma.start)
    assert len(tracer.events) == 0 and not tracer.counts
    tracer.enabled = True
    kernel4k.fault(proc, vma.start + 1)
    assert tracer.counts[trace.TraceKind.FAULT_BASE] == 1


# --------------------------------------------------------------------- #
# emission sites                                                         #
# --------------------------------------------------------------------- #


def test_base_fault_event_carries_latency(kernel4k):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k)
    latency = kernel4k.fault(proc, vma.start)
    (event,) = tracer.events
    assert event.kind is trace.TraceKind.FAULT_BASE
    assert event.process == proc.name
    assert event.page == vma.start
    assert event.span_us == pytest.approx(latency)
    # repeat faults are free and silent
    kernel4k.fault(proc, vma.start)
    assert len(tracer.events) == 1


def test_huge_fault_and_madvise_events(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    tracer = trace.attach(kernel_thp)
    kernel_thp.fault(proc, vma.start)
    kernel_thp.madvise_free(proc, vma.start, 10)
    kinds = [e.kind for e in tracer.events]
    assert kinds == [trace.TraceKind.FAULT_HUGE, trace.TraceKind.DEMOTE,
                     trace.TraceKind.MADVISE_FREE]
    madvise = tracer.events[-1]
    assert madvise.detail == "pages=10"
    assert madvise.page == vma.start >> 9


def test_promotion_events_distinguish_inplace_and_collapse(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    tracer = trace.attach(kernel_thp)
    hvpn = vma.start >> 9
    kernel_thp.fault(proc, vma.start)          # huge fault
    kernel_thp.demote_region(proc, hvpn)       # frames stay contiguous
    assert kernel_thp.promote_region(proc, hvpn) is not None
    assert tracer.counts[trace.TraceKind.PROMOTE_INPLACE] == 1

    # Interleave two regions' base faults so neither is contiguous.
    kernel = Kernel(small_config(), Linux4KPolicy)
    proc2, vma2 = make_proc(kernel)
    tracer2 = trace.attach(kernel)
    for offset in range(PAGES_PER_HUGE):
        kernel.fault(proc2, vma2.start + offset)
        kernel.fault(proc2, vma2.start + PAGES_PER_HUGE + offset)
    assert kernel.promote_region(proc2, vma2.start >> 9) is not None
    assert tracer2.counts[trace.TraceKind.PROMOTE_COLLAPSE] == 1
    collapse = tracer2.of_kind(trace.TraceKind.PROMOTE_COLLAPSE)[0]
    assert collapse.span_us == pytest.approx(
        kernel.costs.promotion_collapse_us(PAGES_PER_HUGE))


def test_demote_and_promote_events_carry_process_and_region(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    tracer = trace.attach(kernel_thp)
    hvpn = vma.start >> 9
    kernel_thp.fault(proc, vma.start)
    kernel_thp.demote_region(proc, hvpn)
    kernel_thp.promote_region(proc, hvpn)
    (demote,) = tracer.of_kind(trace.TraceKind.DEMOTE)
    (promote,) = tracer.filter(kinds=["promote"])
    for event in (demote, promote):
        assert event.process == proc.name
        assert event.page == hvpn
    assert demote.span_us == pytest.approx(kernel_thp.costs.remap_us)


def test_failed_promotion_emits_no_promote_event(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    tracer = trace.attach(kernel_thp)
    assert kernel_thp.promote_region(proc, vma.start >> 9) is None  # nothing resident
    assert tracer.filter(kinds=["promote"]) == []
    assert not tracer.counts


def test_cow_break_emits_fault_cow(kernel_thp):
    proc, vma = make_proc(kernel_thp)
    hvpn = vma.start >> 9
    kernel_thp.fault(proc, vma.start)
    kernel_thp.demote_region(proc, hvpn)
    kernel_thp.dedup_zero_pages(proc, hvpn)  # all pages still zero: shared
    tracer = trace.attach(kernel_thp)
    kernel_thp.fault(proc, vma.start)        # write to shared-zero page
    (event,) = tracer.of_kind(trace.TraceKind.FAULT_COW)
    assert event.detail == "zero"
    assert event.span_us == pytest.approx(kernel_thp.costs.cow_fault_us)


def test_oom_event_emitted_before_raise():
    kernel = Kernel(KernelConfig(mem_bytes=4 * MB), Linux4KPolicy)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    tracer = trace.attach(kernel)
    with pytest.raises(OutOfMemoryError):
        for offset in range(vma.npages):
            kernel.fault(proc, vma.start + offset)
    (event,) = tracer.of_kind(trace.TraceKind.OOM)
    assert event.process == "kernel"
    assert "allocated=" in event.detail


def test_swap_events():
    kernel = Kernel(
        KernelConfig(mem_bytes=4 * MB, swap_bytes=4 * MB), Linux4KPolicy)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    tracer = trace.attach(kernel)
    for offset in range(1200):  # > 1024 resident pages: must swap out
        kernel.fault(proc, vma.start + offset)
    assert tracer.counts.get(trace.TraceKind.SWAP_OUT, 0) > 0
    swapped = next(iter(kernel.swap.swapped))[1]
    kernel.fault(proc, swapped)
    (swap_in,) = tracer.of_kind(trace.TraceKind.SWAP_IN)
    assert swap_in.page == swapped
    assert swap_in.span_us == pytest.approx(kernel.costs.swap_page_us)


def test_prezero_and_sampler_events():
    from repro.core.hawkeye import HawkEyePolicy

    # boot_zeroed=False leaves every free frame dirty: kzerod has work.
    kernel = Kernel(
        small_config(boot_zeroed=False),
        lambda k: HawkEyePolicy(
            k, variant="g", promote_per_sec=100.0, prezero_pages_per_sec=1e6
        ),
    )
    proc, vma = make_proc(kernel)
    tracer = trace.attach(kernel)
    kernel.fault(proc, vma.start)
    kernel.run_epochs(kernel.config.sample_period)
    prezero = tracer.of_kind(trace.TraceKind.PREZERO)
    assert prezero and prezero[0].process == "kzerod"
    assert prezero[0].span_us > 0
    sampler = tracer.of_kind(trace.TraceKind.KTHREAD_EPOCH)
    assert any(e.process == "ksampled" for e in sampler)


def test_ksm_merge_event(kernel4k):
    from repro.mem.samepage import SamePageMerger

    proc, vma = make_proc(kernel4k)
    kernel4k.fault(proc, vma.start)
    kernel4k.fault(proc, vma.start + 1)      # both pages still zero-filled
    tracer = trace.attach(kernel4k)
    merger = SamePageMerger(kernel4k, pages_per_sec=1e6)
    assert merger.run_epoch() > 0
    (event,) = tracer.of_kind(trace.TraceKind.KSM_MERGE)
    assert event.process == "ksmd"
    assert "merged=" in event.detail


def test_kcompactd_event():
    from repro.experiments import fragment

    kernel = Kernel(small_config(kcompactd_pages_per_sec=10_000.0), Linux4KPolicy)
    fragment(kernel)
    tracer = trace.attach(kernel)
    kernel.run_epoch()
    if kernel.fmfi() > kernel.KCOMPACTD_TARGET_FMFI:
        pytest.skip("fragmenter left FMFI above target; kcompactd still busy")
    compact = tracer.of_kind(trace.TraceKind.COMPACT)
    assert compact and compact[0].process == "kcompactd"


# --------------------------------------------------------------------- #
# ring buffer, counters, attribution                                     #
# --------------------------------------------------------------------- #


def test_ring_buffer_drops_new_events_and_warns_once(kernel4k):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k, capacity=3)
    with pytest.warns(RuntimeWarning, match="ring buffer full"):
        for offset in range(8):
            kernel4k.fault(proc, vma.start + offset)
    assert len(tracer.events) == 3
    assert tracer.dropped == 5
    # counters and attribution stay exact despite the drops
    assert tracer.counts[trace.TraceKind.FAULT_BASE] == 8
    events, span = tracer.attribution()["fault"]
    assert events == 8
    assert span == pytest.approx(8 * tracer.events[0].span_us)


def test_queries_and_filters(kernel4k):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k)
    for offset in range(4):
        kernel4k.fault(proc, vma.start + offset)
    kernel4k.madvise_free(proc, vma.start, 2)
    assert len(tracer.for_process(proc.name)) == 5
    assert len(tracer.of_kind(trace.TraceKind.FAULT_BASE)) == 4
    # kind filters accept subsystems and full names
    assert len(tracer.filter(kinds=["fault"])) == 4
    assert len(tracer.filter(kinds=["madvise.free"])) == 1
    assert len(tracer.filter(kinds=["fault", "madvise"])) == 5
    assert tracer.filter(process="nobody") == []
    # the half-open time window [since, until)
    assert len(tracer.filter(since=0.0, until=1.0)) == 5
    assert tracer.filter(since=1.0) == []


def test_stream_attribution_matches_exact(kernel4k):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k)
    for offset in range(3):
        kernel4k.fault(proc, vma.start + offset)
    assert trace.attribution(tracer.events) == tracer.attribution()


def test_format_attribution_orders_by_span():
    table = {"fault": (10, 1000.0), "promote": (1, 9000.0)}
    text = trace.format_attribution(table)
    lines = text.splitlines()
    assert "subsystem" in lines[1]
    assert lines[3].startswith("promote")  # larger span first
    assert "90.0" in lines[3]


# --------------------------------------------------------------------- #
# latency histograms                                                     #
# --------------------------------------------------------------------- #


def test_histogram_log2_buckets():
    hist = trace.LatencyHistogram()
    for sample in (0.3, 1.0, 1.5, 3.0, 1024.0, 0.0):
        hist.add(sample)
    assert hist.buckets[trace.LatencyHistogram.ZERO_BUCKET] == 1
    assert hist.buckets[-2] == 1   # 0.3 in [0.25, 0.5)
    assert hist.buckets[0] == 2    # 1.0, 1.5 in [1, 2)
    assert hist.buckets[1] == 1    # 3.0 in [2, 4)
    assert hist.buckets[10] == 1   # 1024 in [1024, 2048)
    assert hist.count == 6
    assert hist.min_us == 0.0 and hist.max_us == 1024.0
    assert hist.mean_us == pytest.approx(sum((0.3, 1.0, 1.5, 3.0, 1024.0)) / 6)
    assert trace.LatencyHistogram.bucket_bounds(1) == (2.0, 4.0)


def test_histogram_populated_per_kind(kernel4k):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k)
    for offset in range(5):
        kernel4k.fault(proc, vma.start + offset)
    hist = tracer.histograms[trace.TraceKind.FAULT_BASE]
    assert hist.count == 5
    text = trace.format_histogram(hist, "fault.base")
    assert "5 samples" in text and "#" in text


def test_format_histogram_empty():
    hist = trace.LatencyHistogram()
    assert "0 samples" in trace.format_histogram(hist, "x")


# --------------------------------------------------------------------- #
# event metadata                                                         #
# --------------------------------------------------------------------- #


def test_trace_kind_subsystem_prefixes():
    assert trace.TraceKind.FAULT_BASE.subsystem == "fault"
    assert trace.TraceKind.DEMOTE.subsystem == "demote"
    assert trace.TraceKind.PROMOTE_COLLAPSE.subsystem == "promote"
    # every kind has a non-empty dotted-or-plain lowercase name
    for kind in trace.TraceKind:
        assert kind.value and kind.value == kind.value.lower()
        assert kind.subsystem == kind.value.split(".", 1)[0]


def test_event_timestamp_in_seconds(kernel4k):
    proc, vma = make_proc(kernel4k)
    kernel4k.now_us = 2_500_000.0
    tracer = trace.attach(kernel4k)
    kernel4k.fault(proc, vma.start)
    assert tracer.events[0].t_seconds == pytest.approx(2.5)


# --------------------------------------------------------------------- #
# run-length emission: emit_run == n consecutive emit calls              #
# --------------------------------------------------------------------- #


def _state(tracer):
    """Everything emission writes, in comparable form (floats exact)."""
    return {
        "counts": list(tracer.counts.items()),
        "spans": list(tracer.spans.items()),
        "histograms": [(k, h.to_dict()) for k, h in tracer.histograms.items()],
        "events": _fields(tracer.events),
        "dropped": tracer.dropped,
    }


def _fields(events):
    return [(e.t_us, e.kind, e.process, e.span_us, e.page, e.detail) for e in events]


def _twin_tracers(kernel, capacity=trace.DEFAULT_CAPACITY):
    """Two detached tracers with the same non-trivial starting state."""
    kernel.now_us = 1234.5
    twins = []
    for _ in range(2):
        tracer = trace.Tracer(kernel, capacity)
        tracer.emit(trace.TraceKind.FAULT_BASE, "w", 0.7, 1)
        tracer.emit(trace.TraceKind.FAULT_HUGE, "w", 11.3, 2)
        twins.append(tracer)
    return twins


def _emit_loop(tracer, kind, process, span_us, page0, n):
    for i in range(n):
        tracer.emit(kind, process, span_us, page0 + i)


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 1000, 4099])
@pytest.mark.parametrize("span_us", [3.5, 0.1, 1.7 + 1e-9, 1e6 / 3])
def test_emit_run_equals_emit_loop(kernel4k, n, span_us):
    loop, run = _twin_tracers(kernel4k)
    _emit_loop(loop, trace.TraceKind.FAULT_BASE, "w", span_us, 100, n)
    run.emit_run(trace.TraceKind.FAULT_BASE, "w", span_us, 100, n)
    assert _state(run) == _state(loop)


def test_emit_run_starts_a_new_kind(kernel4k):
    loop, run = _twin_tracers(kernel4k)
    _emit_loop(loop, trace.TraceKind.SWAP_IN, "w", 0.3, 7, 500)
    run.emit_run(trace.TraceKind.SWAP_IN, "w", 0.3, 7, 500)
    assert _state(run) == _state(loop)


@pytest.mark.parametrize("n", [1, 5, 300])
def test_emit_run_zero_span(kernel4k, n):
    loop, run = _twin_tracers(kernel4k)
    _emit_loop(loop, trace.TraceKind.FAULT_BASE, "w", 0.0, 0, n)
    _emit_loop(loop, trace.TraceKind.DEMOTE, "w", 0.0, 0, n)
    run.emit_run(trace.TraceKind.FAULT_BASE, "w", 0.0, 0, n)
    run.emit_run(trace.TraceKind.DEMOTE, "w", 0.0, 0, n)
    assert _state(run) == _state(loop)
    assert trace.TraceKind.DEMOTE not in run.histograms  # zero spans skip it


@pytest.mark.parametrize("n", [0, 1, 3, 200])
@pytest.mark.parametrize("span_us", [0.0, 0.3, 3.5, 2.0 ** 40 + 0.5])
def test_histogram_add_run_equals_add_loop(n, span_us):
    loop, run = trace.LatencyHistogram(), trace.LatencyHistogram()
    for h in (loop, run):
        h.add(1.1)
    for _ in range(n):
        loop.add(span_us)
    run.add_run(span_us, n)
    expected_total = 1.1
    for _ in range(n):
        expected_total += span_us
    assert run.total_us == expected_total
    assert run.to_dict() == loop.to_dict()
    assert (run.buckets, run.count, run.total_us, run.min_us, run.max_us) == (
        loop.buckets, loop.count, loop.total_us, loop.min_us, loop.max_us)
    if n and span_us == 0.0:
        assert run.buckets[trace.LatencyHistogram.ZERO_BUCKET] == n


def _record_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("capacity", [2, 3, 10, 25])
def test_emit_run_crossing_capacity(kernel4k, capacity):
    loop, run = _twin_tracers(kernel4k, capacity=capacity)

    def by_loop():
        _emit_loop(loop, trace.TraceKind.FAULT_BASE, "w", 3.5, 40, 20)
        _emit_loop(loop, trace.TraceKind.FAULT_BASE, "w", 3.5, 60, 5)

    def by_run():
        run.emit_run(trace.TraceKind.FAULT_BASE, "w", 3.5, 40, 20)
        run.emit_run(trace.TraceKind.FAULT_BASE, "w", 3.5, 60, 5)

    loop_warnings, run_warnings = _record_warnings(by_loop), _record_warnings(by_run)
    assert len(loop_warnings) == len(run_warnings) == 1
    assert str(run_warnings[0].message) == str(loop_warnings[0].message)
    assert _state(run) == _state(loop)
    assert len(run.events) == capacity and run.dropped == 27 - capacity


def test_emit_run_skipped_when_tracer_paused(kernel4k):
    """``tracer.enabled = False`` at the call site: the batched fault path
    leaves the tracer exactly as the per-page path does (untouched)."""
    states = []
    for batched in (False, True):
        kernel = Kernel(small_config(), Linux4KPolicy)
        kernel.batched_faults = batched
        proc, vma = make_proc(kernel)
        tracer = trace.attach(kernel)
        tracer.enabled = False
        kernel.fault_range(proc, vma.start, 300)
        assert _state(tracer) == _state(trace.Tracer(kernel))
        tracer.enabled = True
        kernel.fault_range(proc, vma.start + 300, 300)
        states.append(_state(tracer))
        trace.detach(kernel)
    assert states[0]["counts"] == [(trace.TraceKind.FAULT_BASE, 300)]
    assert states[1] == states[0]


def test_batched_fault_path_emits_one_run_per_extent(kernel4k, monkeypatch):
    proc, vma = make_proc(kernel4k)
    tracer = trace.attach(kernel4k)
    runs = []
    real_emit_run = trace.Tracer.emit_run

    def recording_emit_run(self, kind, process, span_us, page0, n):
        runs.append(n)
        real_emit_run(self, kind, process, span_us, page0, n)

    def no_emit(*args, **kwargs):
        pytest.fail("the batched path emitted a single page")

    monkeypatch.setattr(trace.Tracer, "emit", no_emit)
    monkeypatch.setattr(trace.Tracer, "emit_run", recording_emit_run)
    kernel4k.fault_range(proc, vma.start, 1024)
    assert sum(runs) == 1024 and len(runs) < 1024
    assert [e.page for e in tracer.events] == list(range(vma.start, vma.start + 1024))


def test_trace_kind_hash_is_identity_and_pickles_to_itself():
    import pickle

    for kind in trace.TraceKind:
        assert hash(kind) == object.__hash__(kind)
        assert pickle.loads(pickle.dumps(kind)) is kind
    assert len({kind: None for kind in trace.TraceKind}) == len(trace.TraceKind)
