"""Property tests: heat monitoring regions partition spans and conserve counts.

The acceptance bar for the spatial monitor is structural: after every
sample — through arbitrary merge/split churn and VMA-layout changes —
the monitoring regions must still partition the monitored spans
*exactly*, and the split/merge step must conserve the sampled access
counts and EMA mass it started from.  These tests drive the column
monitor's reshaping machinery (``heat._sync_spans`` and ``heat._reshape``
over one owner's region rows, ``[start, end, span, sample, ema, age]``)
directly with synthetic access-bit samples (the same ``(sorted hvpns,
prefix-sum)`` shape ``HeatMonitor.on_sample`` derives from the region
tables), so hypothesis can explore span layouts and weight distributions
no catalog workload hits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import heat

ALPHA = 0.3


@st.composite
def span_layout(draw):
    """Disjoint, sorted, non-empty hvpn intervals (a VMA extent set)."""
    cuts = sorted(draw(st.lists(st.integers(0, 400), min_size=2,
                                max_size=8, unique=True)))
    spans = tuple((cuts[i], cuts[i + 1])
                  for i in range(0, len(cuts) - 1, 2)
                  if cuts[i] < cuts[i + 1])
    if not spans:
        spans = ((cuts[0], cuts[-1]),)
    return spans


@st.composite
def sample_round(draw):
    """One access-bit sample: a span layout plus per-hvpn weights."""
    spans = draw(span_layout())
    hvpns = [h for s, e in spans for h in range(s, e)]
    chosen = draw(st.lists(st.sampled_from(hvpns), unique=True,
                           max_size=min(len(hvpns), 40)))
    weights = {h: draw(st.integers(0, 512)) for h in chosen}
    return spans, weights


class State:
    """One owner's monitoring state: its span set and region rows."""

    def __init__(self, max_regions: int) -> None:
        self.spans: tuple = ()
        self.rows: list[list] = []
        self.max_regions = max_regions

    def sync(self, spans) -> None:
        self.spans = spans
        self.rows = heat._sync_spans(self.rows, spans)


def fold(state: State, spans, weights):
    """Feed one synthetic sample through the real region machinery.

    Mirrors the region section of :meth:`heat.HeatMonitor.on_sample` for
    one owner: sync the layout, recompute per-region sums from the
    sample's prefix-sum array, then merge and split.  Returns the
    (sample, ema) totals as they stood *before* merge/split, so
    conservation can be checked against what the reshaping step was
    handed.
    """
    if spans != state.spans:
        state.sync(spans)
    items = sorted(weights.items())
    sh = np.array([h for h, _ in items], dtype=np.int64)
    w = np.array([v for _, v in items], dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(w)))
    starts = np.array([r[0] for r in state.rows], dtype=np.int64)
    ends = np.array([r[1] for r in state.rows], dtype=np.int64)
    sums = cum[np.searchsorted(sh, ends)] - cum[np.searchsorted(sh, starts)]
    for r, s in zip(state.rows, sums.tolist()):
        r[3] = int(s)
        r[4] = ALPHA * s + (1.0 - ALPHA) * r[4]
        r[5] += 1
    before_sample = sum(r[3] for r in state.rows)
    before_ema = sum(r[4] for r in state.rows)
    state.rows = heat._reshape(state.rows, sh, cum, 4, state.max_regions,
                               heat.MERGE_THRESHOLD)
    return before_sample, before_ema


def check_partition(state: State, spans):
    """Rows sorted, non-empty, abutting; coalesced they equal spans."""
    rebuilt, cursor = [], None
    for start, end, *_ in state.rows:
        assert start < end
        if cursor is not None and start == cursor:
            rebuilt[-1] = (rebuilt[-1][0], end)
        else:
            rebuilt.append((start, end))
        cursor = end
    assert tuple(rebuilt) == tuple(spans)


@settings(max_examples=60, deadline=None)
@given(rounds=st.lists(sample_round(), min_size=1, max_size=5),
       max_regions=st.integers(4, 48))
def test_partition_and_conservation(rounds, max_regions):
    state = State(max_regions)
    for spans, weights in rounds:
        before_sample, before_ema = fold(state, spans, weights)
        # split/merge conserve the access counts they were handed,
        # exactly — and those equal the sample's total weight.
        assert sum(r[3] for r in state.rows) == before_sample
        assert before_sample == sum(weights.values())
        # EMA mass is conserved up to float addition order.
        after_ema = sum(r[4] for r in state.rows)
        assert abs(after_ema - before_ema) <= 1e-6 * max(1.0, before_ema)
        # the regions still partition the spans exactly, within budget
        # (floor: one region per span).
        check_partition(state, spans)
        assert len(state.rows) <= max(max_regions, len(spans))


@settings(max_examples=40, deadline=None)
@given(before=span_layout(), after=span_layout())
def test_sync_spans_repartitions_exactly(before, after):
    """Any layout change (grow/shrink/move) leaves an exact partition."""
    state = State(32)
    state.sync(before)
    check_partition(state, before)
    # give regions some state so clipping paths are exercised
    for i, r in enumerate(state.rows):
        r[3] = 7 * (i + 1)
        r[4] = 3.5 * (i + 1)
    state.sync(after)
    check_partition(state, after)
    # clipped regions never exceed what they held before
    assert all(r[3] >= 0 and r[4] >= 0.0 for r in state.rows)
