"""Property-based test for the promotion engine's budget accounting.

Invariant (paper §3.4 + the budget bugfix): one fresh epoch promotes
exactly ``min(floor(rate), promotable regions)`` — stale access_map
entries (regions promoted behind the engine's back, or entries pointing
at nonexistent regions) are cleaned up for free and never burn budget.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.access_map import AccessMap
from repro.units import MB, PAGES_PER_HUGE
from tests.test_fault import make_proc
from tests.test_promotion import engine_for, make_kernel

#: per-region disposition drawn by the strategy.
VALID, STALE_PROMOTED, ABSENT = "valid", "stale-promoted", "absent"

region_states = st.lists(
    st.tuples(
        st.sampled_from([VALID, STALE_PROMOTED, ABSENT]),
        st.integers(1, 511),  # access-map bucket value (coverage)
    ),
    min_size=1,
    max_size=6,
)


@given(
    states=region_states,
    rate=st.integers(1, 8),
    ghost_entries=st.integers(0, 3),
)
@settings(max_examples=20, deadline=None)
def test_epoch_promotes_min_budget_promotable(states, rate, ghost_entries):
    kernel = make_kernel()
    nregions = len(states)
    kernel.fragmenter.fragment(keep_fraction=0.02)
    proc, vma = make_proc(kernel, nbytes=nregions * 2 * MB)
    for r in range(nregions):
        base = vma.start + r * PAGES_PER_HUGE
        for i in range(PAGES_PER_HUGE):
            kernel.fault(proc, base + i)
    kernel.fragmenter.release_all()

    amap = AccessMap()
    hvpn0 = vma.start >> 9
    promotable = 0
    for r, (state, coverage) in enumerate(states):
        if state == ABSENT:
            continue
        amap.update(hvpn0 + r, coverage)
        if state == STALE_PROMOTED:
            assert kernel.promote_region(proc, hvpn0 + r) is not None
        else:
            promotable += 1
    for g in range(ghost_entries):  # entries with no backing region at all
        amap.update(hvpn0 + nregions + 100 + g, 300)

    engine = engine_for(kernel, {proc.pid: amap}, rate=float(rate))
    done = engine.run_epoch()
    assert done == min(rate, promotable)
    assert engine._limiter.available >= 0.0
    # Valid regions the budget did not cover are still waiting in the
    # map; stale/ghost entries may remain too (they are only cleaned
    # when the scan reaches them) but never count as promotions.
    waiting = [
        h for h in amap.iter_promotion_order()
        if h < hvpn0 + nregions and not proc.page_table.region_huge(h)
    ]
    assert len(waiting) == promotable - done
