"""Unit tests for HawkEye's access_map (§3.3, Figure 4)."""

import pytest

from repro.core.access_map import NUM_BUCKETS, AccessMap, bucket_of


def test_bucket_boundaries_match_paper():
    """0-49 -> bucket 0, 50-99 -> bucket 1, ..., 450+ -> bucket 9."""
    assert bucket_of(0) == 0
    assert bucket_of(49) == 0
    assert bucket_of(50) == 1
    assert bucket_of(99) == 1
    assert bucket_of(449) == 8
    assert bucket_of(450) == 9
    assert bucket_of(512) == 9


def test_bucket_of_rejects_negative():
    with pytest.raises(ValueError):
        bucket_of(-1)


def test_update_places_region():
    amap = AccessMap()
    amap.update(10, 475)
    assert 10 in amap
    assert amap.highest_nonempty() == 9
    assert amap.head(9) == 10


def test_moving_up_inserts_at_head():
    amap = AccessMap()
    amap.update(1, 460)   # bucket 9
    amap.update(2, 100)   # bucket 2
    amap.update(2, 470)   # moves up into bucket 9 -> head
    assert list(amap.buckets[9]) == [2, 1]


def test_moving_down_inserts_at_tail():
    amap = AccessMap()
    amap.update(1, 460)
    amap.update(2, 465)
    amap.update(1, 0)     # down to bucket 0
    amap.update(2, 10)    # down to bucket 0, after 1
    assert list(amap.buckets[0]) == [1, 2]


def test_same_bucket_keeps_position():
    amap = AccessMap()
    amap.update(1, 460)   # head: [1]
    amap.update(2, 470)   # fresh insertion goes to the head: [2, 1]
    amap.update(1, 455)   # still bucket 9: no reordering
    assert list(amap.buckets[9]) == [2, 1]


def test_promotion_order_high_bucket_first_head_to_tail():
    amap = AccessMap()
    amap.update(1, 460)   # bucket 9
    amap.update(2, 200)   # bucket 4
    amap.update(3, 480)   # bucket 9, moved up -> head
    assert list(amap.iter_promotion_order()) == [3, 1, 2]
    assert amap.pop_next() == 3
    assert amap.pop_next() == 1
    assert amap.pop_next() == 2
    assert amap.pop_next() is None


def test_remove():
    amap = AccessMap()
    amap.update(5, 300)
    amap.remove(5)
    assert 5 not in amap
    assert len(amap) == 0
    amap.remove(5)  # idempotent


def test_coverage_clamped_to_512():
    amap = AccessMap()
    amap.update(1, 10_000)
    assert amap.highest_nonempty() == NUM_BUCKETS - 1


def test_pressure_estimate_tracks_population():
    amap = AccessMap()
    assert amap.pressure_estimate() == 0.0
    amap.update(1, 475)
    hot_only = amap.pressure_estimate()
    amap.update(2, 10)
    assert amap.pressure_estimate() > hot_only
    # hot regions contribute far more than cold ones
    cold_contribution = amap.pressure_estimate() - hot_only
    assert cold_contribution < hot_only / 5


def test_figure4_promotion_order():
    """The Figure 4 worked example: A1,B1,C1,C2,B2,C3,C4,B3,B4,A2,C5,A3.

    Reconstructed access_map state (bucket indices):
      A: A1=9, A2=4, A3=2
      B: B1=9, B2=8, B3=6, B4=5
      C: C1=9, C2=9, C3=7, C4=7, C5=3
    Per-process promotion order must follow bucket-descending order.
    """
    maps = {
        "A": [("A1", 9), ("A2", 4), ("A3", 2)],
        "B": [("B1", 9), ("B2", 8), ("B3", 6), ("B4", 5)],
        "C": [("C1", 9), ("C2", 9), ("C3", 7), ("C4", 7), ("C5", 3)],
    }
    for name, regions in maps.items():
        amap = AccessMap()
        # insert in reverse so that within-bucket head order matches the
        # figure's labelling (fresh insertions go to the bucket head)
        for i, (label, bucket) in reversed(list(enumerate(regions))):
            amap.update(i, bucket * 50 + 25)
        order = [regions[h][0] for h in amap.iter_promotion_order()]
        expected = [lbl for lbl, _ in sorted(regions, key=lambda r: -r[1])]
        assert order == expected


def test_bulk_calls_match_scalar_calls():
    """update_many/remove_many equal pairwise update/remove in array
    order: same bucket contents and order, membership and length, also
    for hvpns past the bucket column's initial size."""
    import numpy as np

    rng = np.random.default_rng(7)
    bulk, scalar = AccessMap(), AccessMap()
    for _ in range(30):
        hvpns = rng.choice(300, size=40, replace=False).astype(np.int64)
        coverage = rng.uniform(0, 600, size=40)
        bulk.update_many(hvpns, coverage)
        for hvpn, cov in zip(hvpns.tolist(), coverage.tolist()):
            scalar.update(hvpn, cov)
        gone = rng.choice(400, size=15, replace=False).astype(np.int64)
        bulk.remove_many(gone)
        for hvpn in gone.tolist():
            scalar.remove(hvpn)
        assert [list(b) for b in bulk.buckets] == [list(b) for b in scalar.buckets]
        assert len(bulk) == len(scalar)
        assert all((h in bulk) == (h in scalar) for h in range(450))
    with pytest.raises(ValueError):
        bulk.update_many(np.array([1]), np.array([-1.0]))
