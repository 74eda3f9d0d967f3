"""Tests for the Prometheus-style metrics registry.

The two load-bearing contracts are property-tested with hypothesis:
counters never move down across an arbitrary scrape sequence, and a
scrape survives a JSON encode/decode round trip byte-for-value exact
(the telemetry artifact is just a list of scrapes, so these two
properties are what make baselines trustworthy).
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    label_key,
)


# --------------------------------------------------------------------- #
# unit: label and declaration discipline                                 #
# --------------------------------------------------------------------- #


def test_label_key_sorted_and_invertible():
    assert label_key({}) == ""
    assert label_key({"b": "2", "a": "1"}) == "a=1,b=2"


def test_label_key_rejects_reserved_characters():
    with pytest.raises(MetricError):
        label_key({"a": "x=y"})
    with pytest.raises(MetricError):
        label_key({"a,b": "x"})


def test_family_rejects_wrong_labelset():
    fam = MetricFamily("faults", "counter", labelnames=("process",))
    with pytest.raises(MetricError):
        fam.labels(policy="x")
    with pytest.raises(MetricError):
        fam.labels()
    fam.labels(process="redis").inc()
    assert fam.labels(process="redis").value == 1.0


def test_family_looks_children_up_by_values():
    fam = MetricFamily("moves", "counter", labelnames=("src", "dst"))
    child = fam.labels(src="a", dst="b")
    assert fam.labels(dst="b", src="a") is child
    assert fam.labels(src="b", dst="a") is not child
    with pytest.raises(MetricError):
        fam.labels(src="a", dst="b", extra="c")
    with pytest.raises(MetricError):
        fam.labels(src="a")
    with pytest.raises(MetricError):
        fam.labels(src="a", dst=3)  # label values are strings
    with pytest.raises(MetricError):
        fam.labels(src="a", dst="x=y")
    assert fam.children == {("a", "b"): child, ("b", "a"): fam.labels(
        src="b", dst="a")}


def test_family_remove_drops_one_child():
    reg = MetricsRegistry()
    fam = reg.gauge("rss", labelnames=("process",))
    for name in ("b", "a", "c"):
        fam.labels(process=name).set(len(name))
    assert list(reg.scrape(0.0)["gauges"]["rss"]) == [
        "process=a", "process=b", "process=c"]
    fam.remove("b")
    assert list(reg.scrape(1.0)["gauges"]["rss"]) == ["process=a", "process=c"]
    with pytest.raises(KeyError):
        fam.remove("b")
    with pytest.raises(MetricError):
        fam.remove("a", "c")
    fam.labels(process="b").set(9)  # a new child, not the dropped one
    assert reg.scrape(2.0)["gauges"]["rss"] == {
        "process=a": 1.0, "process=b": 9.0, "process=c": 1.0}
    pair = reg.counter("moves", labelnames=("src", "dst"))
    pair.labels(src="a", dst="b").inc()
    pair.remove("a", "b")
    assert reg.scrape(3.0)["counters"]["moves"] == {}


def test_family_rejects_unknown_kind():
    with pytest.raises(MetricError):
        MetricFamily("x", "summary")


def test_registry_redeclare_must_match():
    reg = MetricsRegistry()
    fam = reg.counter("faults", labelnames=("process",))
    # identical re-declaration returns the same family
    assert reg.counter("faults", labelnames=("process",)) is fam
    with pytest.raises(MetricError):
        reg.gauge("faults", labelnames=("process",))
    with pytest.raises(MetricError):
        reg.counter("faults", labelnames=("policy",))


def test_counter_contract():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(MetricError):
        c.inc(-1)
    c.sync(10.0)
    assert c.value == 10.0
    c.sync(10.0)  # equal is fine
    with pytest.raises(MetricError):
        c.sync(9.0)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(5)
    g.dec(2)
    g.inc(-4)
    assert g.value == -1.0


def test_histogram_wraps_latency_histogram():
    h = Histogram()
    for v in (1.0, 3.0, 100.0):
        h.observe(v)
    assert h.count == 3
    assert h.hist.to_dict()["count"] == 3


def test_scrape_shape_and_ordering():
    reg = MetricsRegistry()
    reg.counter("zz", labelnames=("name",)).labels(name="b").inc(2)
    reg.counter("zz", labelnames=("name",)).labels(name="a").inc(1)
    reg.gauge("aa").child().set(7)
    reg.histogram("hh").child().observe(4.0)
    scrape = reg.scrape(1.5)
    assert scrape["t_s"] == 1.5
    assert list(scrape["counters"]["zz"]) == ["name=a", "name=b"]
    assert scrape["gauges"]["aa"] == {"": 7.0}
    assert scrape["histograms"]["hh"][""]["count"] == 1


# --------------------------------------------------------------------- #
# property: counters are monotonic across scrapes                        #
# --------------------------------------------------------------------- #

# a scrape schedule: per step, a list of (child, increment) applications
_increments = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.floats(0.0, 1e6, allow_nan=False)),
        max_size=5),
    min_size=1, max_size=20)


@given(_increments)
@settings(max_examples=80, deadline=None)
def test_counters_monotonic_across_scrapes(schedule):
    reg = MetricsRegistry()
    fam = reg.counter("events", labelnames=("name",))
    scrapes = []
    for step in schedule:
        for name, amount in step:
            fam.labels(name=name).inc(amount)
        scrapes.append(reg.scrape(float(len(scrapes))))
    for key in ("name=a", "name=b", "name=c"):
        series = [s["counters"]["events"].get(key, 0.0) for s in scrapes]
        assert all(lo <= hi for lo, hi in zip(series, series[1:])), series


@given(st.lists(st.floats(0.0, 1e9, allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_counter_sync_accepts_any_nondecreasing_source(values):
    c = Counter()
    for total in sorted(values):
        c.sync(total)
    assert c.value == max(values)


# --------------------------------------------------------------------- #
# property: scrapes round-trip through JSON losslessly                   #
# --------------------------------------------------------------------- #

_names = st.sampled_from(["redis", "hacc", "kzerod", "x"])
_floats = st.floats(0.0, 1e12, allow_nan=False)


@given(
    counters=st.dictionaries(_names, _floats, max_size=4),
    gauges=st.dictionaries(_names, st.floats(-1e9, 1e9, allow_nan=False),
                           max_size=4),
    samples=st.lists(st.floats(0.001, 1e6, allow_nan=False), max_size=10),
    t=st.floats(0.0, 1e6, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_scrape_json_round_trip_lossless(counters, gauges, samples, t):
    reg = MetricsRegistry()
    cfam = reg.counter("counts", labelnames=("name",))
    for name, v in counters.items():
        cfam.labels(name=name).inc(v)
    gfam = reg.gauge("levels", labelnames=("name",))
    for name, v in gauges.items():
        gfam.labels(name=name).set(v)
    hist = reg.histogram("lat").child()
    for v in samples:
        hist.observe(v)
    scrape = reg.scrape(t)
    assert json.loads(json.dumps(scrape)) == scrape
