"""Property test: the batched fault path is *exactly* scalar-equivalent.

For random interleavings of touches (with per-page work and pacing),
madvise frees, promotions and demotions, running the ops through
``Kernel.fault_range`` + the batched madvise path must leave every piece
of policy-visible state byte-for-byte identical to per-page
``Kernel.fault`` calls: page tables (including flag bits), rmap, buddy
free lists (contents *and* dict order, which drives future allocations),
frame-table arrays and fault counters.  Latency totals may differ only
by float rounding (they are charged as ``count x per-page cost``).

The equivalence extends to the tracepoint stream: both paths must emit
the *same events in the same order* — kind, process, page and detail
exactly equal, spans equal up to the same float-rounding tolerance — so
a trace of a batched run explains it as faithfully as a scalar one.
The tracer's aggregate state must match too: per-kind counts exactly,
the ``fault.base`` span total and histogram exactly, and the other
kinds' spans and histogram moments within the same tolerance.
A small-capacity variant moves the buffer-full boundary inside bulk
runs, where the batched path builds only the events that still fit:
the kept events and the drop count must match the scalar stream's.

Budget stops are covered deterministically in ``tests/test_fault_range``
(a razor-edge budget that is an exact float multiple of the per-page
increment could legitimately round to a different page count, so random
budgets would make this property flaky by construction).
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import trace
from repro.errors import OutOfMemoryError
from repro.experiments import POLICIES, Scale
from repro.kernel.kernel import Kernel, KernelConfig
from repro.units import MB
from repro.vm.process import Process
from repro.workloads.base import ContentSpec, Phase, Workload

REGION_PAGES = 2048  # 8 MiB heap on a 16 MiB machine
NUM_REGIONS = REGION_PAGES // 512

POLICY_NAMES = ["hawkeye-g", "linux-2mb", "linux-4kb", "freebsd", "ingens-90"]


class _Idle(Workload):
    name = "prop"

    def build_phases(self):
        return [Phase("idle", duration_us=1.0)]


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("touch"),
            st.integers(0, REGION_PAGES - 1),
            st.integers(1, REGION_PAGES),
            st.sampled_from([0.0, 1.0]),   # work_per_page_us
            st.sampled_from([0.0, 4.0]),   # pace_us
        ),
        st.tuples(
            st.just("free"),
            st.integers(0, REGION_PAGES - 1),
            st.integers(1, 700),
            st.just(0.0),
            st.just(0.0),
        ),
        st.tuples(st.just("promote"), st.integers(0, NUM_REGIONS - 1),
                  st.just(0), st.just(0.0), st.just(0.0)),
        st.tuples(st.just("demote"), st.integers(0, NUM_REGIONS - 1),
                  st.just(0), st.just(0.0), st.just(0.0)),
    ),
    min_size=1,
    max_size=12,
)


def _build(policy_name: str, batched: bool, capacity: int = trace.DEFAULT_CAPACITY):
    Process._next_pid = 1  # class-global counter: reset so owner arrays compare
    kernel = Kernel(KernelConfig(mem_bytes=16 * MB), POLICIES[policy_name](Scale(1 / 128)))
    kernel.batched_faults = batched
    tracer = trace.attach(kernel, capacity, warn_on_drop=False)
    run = kernel.spawn(_Idle())
    proc = run.proc
    kernel.mmap(proc, REGION_PAGES * 4096, "heap")
    return kernel, proc, tracer


def _apply(kernel, proc, ops, batched) -> tuple[float, bool]:
    content = ContentSpec(first_nonzero=9)
    vma = kernel.find_vma(proc, "heap")
    total = 0.0
    try:
        for kind, a, b, work, pace in ops:
            if kind == "touch":
                vpn0 = vma.start + a
                n = min(b, REGION_PAGES - a)
                if batched:
                    consumed, pages = kernel.fault_range(
                        proc, vpn0, n, content=content, work_us=work, pace_us=pace
                    )
                    assert pages == n
                    total += consumed
                else:
                    for vpn in range(vpn0, vpn0 + n):
                        cost = kernel.fault(proc, vpn)
                        translated = proc.page_table.translate(vpn)
                        if translated is not None:
                            kernel.frames.write(
                                translated[0], content.first_nonzero, content.shared_tag
                            )
                        total += max(cost + work, pace)
            elif kind == "free":
                n = min(b, REGION_PAGES - a)
                total += kernel.madvise_free(proc, vma.start + a, n)
            elif kind == "promote":
                kernel.promote_region(proc, (vma.start >> 9) + a)
            elif kind == "demote":
                hvpn = (vma.start >> 9) + a
                if hvpn in proc.page_table.huge:
                    kernel.demote_region(proc, hvpn)
    except OutOfMemoryError:
        return total, True
    return total, False


def _snapshot(kernel, proc) -> dict:
    pt = proc.page_table
    return {
        "base": {
            vpn: (p.frame, p.accessed, p.dirty, p.shared_zero, p.shared_cow)
            for vpn, p in pt.base.items()
        },
        "huge": {h: (p.frame, p.accessed, p.dirty) for h, p in pt.huge.items()},
        "zero_lists": [list(d) for d in kernel.buddy._zero],
        "nonzero_lists": [list(d) for d in kernel.buddy._nonzero],
        "free_pages": kernel.buddy.free_pages,
        "rmap": {f: (pr.pid, v) for f, (pr, v) in kernel._rmap.items()},
        "kstats": (kernel.stats.faults, kernel.stats.huge_faults, kernel.stats.cow_faults),
        "pstats": (proc.stats.faults, proc.stats.huge_faults, proc.stats.cow_faults),
        "residents": {
            h: r.resident for h, r in proc.regions.items() if r.resident
        } if hasattr(proc, "regions") else None,
    }


def _assert_tracers_match(ts, tb, policy_name: str) -> None:
    """Aggregate tracer state.  Counts and histogram sample counts are
    exact.  ``fault.base`` is emitted with the scalar per-page latency on
    both paths (one ``emit_run`` per extent when batched), so its span
    total and whole histogram are exact too; other kinds' spans (e.g.
    ``madvise.free``, charged as count x per-page) get the latency
    totals' float-rounding tolerance, which can also move a sample
    across a log2 bucket edge."""
    approx = dict(rel=1e-9, abs=1e-6)
    assert tb.dropped == ts.dropped, f"{policy_name}: drop counts diverged"
    assert tb.counts == ts.counts, f"{policy_name}: counts diverged"
    assert tb.spans.keys() == ts.spans.keys()
    assert tb.histograms.keys() == ts.histograms.keys()
    fault_base = trace.TraceKind.FAULT_BASE
    if fault_base in ts.histograms:
        assert tb.spans[fault_base] == ts.spans[fault_base]
        assert tb.histograms[fault_base].to_dict() == ts.histograms[fault_base].to_dict()
    for kind, span in ts.spans.items():
        assert tb.spans[kind] == pytest.approx(span, **approx), kind
    for kind, hs in ts.histograms.items():
        hb = tb.histograms[kind]
        assert hb.count == hs.count, f"{policy_name}: {kind}"
        assert (hb.min_us, hb.max_us, hb.total_us) == pytest.approx(
            (hs.min_us, hs.max_us, hs.total_us), **approx), kind


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=25, deadline=None)
@given(ops=ops_strategy)
def test_batched_equals_scalar(policy_name, ops):
    ks, ps, ts = _build(policy_name, batched=False)
    scalar_total, scalar_oom = _apply(ks, ps, ops, batched=False)
    kb, pb, tb = _build(policy_name, batched=True)
    batched_total, batched_oom = _apply(kb, pb, ops, batched=True)

    assert scalar_oom == batched_oom
    # Event-stream equality: same tracepoints, same order, same spans
    # (up to the count x per-page float-rounding the latency totals get).
    assert ts.dropped == 0 and tb.dropped == 0
    meta_s = [(e.t_us, e.kind, e.process, e.page, e.detail) for e in ts.events]
    meta_b = [(e.t_us, e.kind, e.process, e.page, e.detail) for e in tb.events]
    assert meta_b == meta_s, f"{policy_name}: event streams diverged"
    assert [e.span_us for e in tb.events] == pytest.approx(
        [e.span_us for e in ts.events], rel=1e-9, abs=1e-6
    )
    _assert_tracers_match(ts, tb, policy_name)
    snap_s, snap_b = _snapshot(ks, ps), _snapshot(kb, pb)
    for key in snap_s:
        assert snap_s[key] == snap_b[key], f"{policy_name}: {key} diverged"
    frames_s, frames_b = ks.frames, kb.frames
    assert np.array_equal(frames_s.allocated, frames_b.allocated)
    assert np.array_equal(frames_s.first_nonzero, frames_b.first_nonzero)
    assert np.array_equal(frames_s.content_tag, frames_b.content_tag)
    assert np.array_equal(frames_s.owner, frames_b.owner)
    # Latency totals are count x per-page charges: float rounding only.
    assert batched_total == pytest.approx(scalar_total, rel=1e-9, abs=1e-6)
    assert pb.stats.fault_time_us == pytest.approx(ps.stats.fault_time_us, rel=1e-9, abs=1e-6)
    assert pb.fault_time_epoch_us == pytest.approx(ps.fault_time_epoch_us, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(ops=ops_strategy, capacity=st.integers(1, 600))
def test_batched_equals_scalar_small_capacity(policy_name, ops, capacity):
    ks, ps, ts = _build(policy_name, batched=False, capacity=capacity)
    scalar_oom = _apply(ks, ps, ops, batched=False)[1]
    kb, pb, tb = _build(policy_name, batched=True, capacity=capacity)
    batched_oom = _apply(kb, pb, ops, batched=True)[1]

    assert scalar_oom == batched_oom
    meta_s = [(e.t_us, e.kind, e.process, e.page, e.detail) for e in ts.events]
    meta_b = [(e.t_us, e.kind, e.process, e.page, e.detail) for e in tb.events]
    assert meta_b == meta_s, f"{policy_name}: kept events diverged"
    assert len(tb.events) == min(capacity, sum(ts.counts.values()))
    _assert_tracers_match(ts, tb, policy_name)
