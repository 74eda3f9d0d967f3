"""Prometheus-style metrics registry: labeled counters, gauges, histograms.

The telemetry layer (:mod:`repro.metrics.telemetry`) needs a stable,
programmable surface between "the simulator has numbers" and "a run
artifact holds them" — the role the kernel's tracepoint + eBPF map stack
plays for userspace telemetry agents.  This module is that surface:

* a :class:`MetricsRegistry` holds named metric *families*;
* each family carries a fixed ``labelnames`` tuple and spawns one child
  per label-value combination (``family.labels(policy="hawkeye-g")``);
* children are :class:`Counter` (monotonic non-decreasing),
  :class:`Gauge` (set to anything) or :class:`Histogram` (log2 buckets,
  reusing :class:`repro.trace.LatencyHistogram`);
* :meth:`MetricsRegistry.scrape` snapshots every child into one plain
  JSON-able dict, deterministically ordered, that round-trips through
  ``json.dumps``/``json.loads`` losslessly.

Counters enforce the Prometheus contract — they only move up.  Sources
that are themselves cumulative (``kernel.stats``, vmstat) feed them
through :meth:`Counter.sync`, which raises if asked to go backwards, so
a scrape sequence is monotonic by construction (property-tested in
``tests/test_registry.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping

from repro.errors import ReproError
from repro.trace import LatencyHistogram


class MetricError(ReproError):
    """A metric was declared or used inconsistently."""


def label_key(labels: Mapping[str, str]) -> str:
    """Canonical string form of a label set (sorted ``k=v`` pairs).

    The empty label set maps to ``""``; keys and values must not contain
    the separator characters (``=``/``,``) so the form stays invertible.
    """
    for k, v in labels.items():
        if "=" in f"{k}{v}" or "," in f"{k}{v}":
            raise MetricError(f"label {k}={v!r} contains a reserved character")
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """A monotonically non-decreasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def sync(self, total: float) -> None:
        """Set from a cumulative external source; must not move down."""
        if total < self.value:
            raise MetricError(
                f"counter sync would move down ({self.value} -> {total})")
        self.value = total


class Gauge:
    """A value that can move freely in both directions."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class Histogram:
    """Log2-bucketed sample distribution (thin wrapper over the trace one)."""

    __slots__ = ("hist",)

    def __init__(self) -> None:
        self.hist = LatencyHistogram()

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.hist.add(value)

    @property
    def count(self) -> int:
        return self.hist.count


#: child class per family kind.
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _no_labels(labels: Mapping[str, str]) -> tuple:
    """Lookup key of an unlabeled family's one child."""
    return ()


class MetricFamily:
    """One named metric with a fixed label schema and one child per labelset.

    ``children`` maps label values to children: the bare value when the
    family declares one label name (every per-process family), otherwise
    the tuple of values in ``labelnames`` order.  Label values are
    strings.  Checking them and rendering the child's :func:`label_key`
    happen once, when the child is created; later :meth:`labels` calls
    are one dict lookup.
    """

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: tuple[str, ...] = ()):
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.children: dict[object, Counter | Gauge | Histogram] = {}
        #: each child's canonical ``k=v`` key, by the same lookup key.
        self._rendered: dict[object, str] = {}
        #: ``(rendered key, child)`` in scrape order; None after a change.
        self._order: list | None = None
        #: the ``labels()`` keyword arguments -> the child's lookup key.
        self._key = itemgetter(*self.labelnames) if self.labelnames else _no_labels

    def labels(self, **labels: str) -> Counter | Gauge | Histogram:
        """The child for one label-value combination (created on first use)."""
        try:
            if len(labels) == len(self.labelnames):
                key = self._key(labels)
                child = self.children.get(key)
                return child if child is not None else self._create(key)
        except KeyError:
            pass
        raise MetricError(
            f"{self.name}: labels {sorted(labels)} != declared "
            f"{sorted(self.labelnames)}")

    def child(self) -> Counter | Gauge | Histogram:
        """The unlabeled child (families declared with no labelnames)."""
        return self.labels()

    def remove(self, *labelvalues: str) -> None:
        """Drop the child for ``labelvalues`` (in ``labelnames`` order).

        The ``prometheus_client`` ``Gauge.remove`` idiom: a series whose
        subject is gone (an exited process) leaves the next scrape
        instead of reporting its last value forever.  Raises
        :class:`KeyError` if there is no such child.
        """
        if len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name}: {len(labelvalues)} label values for "
                f"{len(self.labelnames)} declared labels")
        key = labelvalues[0] if len(labelvalues) == 1 else tuple(labelvalues)
        del self.children[key]
        del self._rendered[key]
        self._order = None

    def _sorted_children(self) -> list:
        """``(rendered key, child)`` pairs sorted by key (scrape order)."""
        if self._order is None:
            self._order = sorted(
                ((self._rendered[key], child)
                 for key, child in self.children.items()),
                key=itemgetter(0))
        return self._order

    def _create(self, key) -> Counter | Gauge | Histogram:
        values = (key,) if len(self.labelnames) == 1 else key
        for value in values:
            if type(value) is not str:
                raise MetricError(
                    f"{self.name}: label value {value!r} is not a string")
        rendered = label_key(dict(zip(self.labelnames, values)))
        child = self.children[key] = _KINDS[self.kind]()
        self._rendered[key] = rendered
        self._order = None
        return child


class MetricsRegistry:
    """A namespace of metric families with a deterministic scrape."""

    def __init__(self) -> None:
        self.families: dict[str, MetricFamily] = {}

    def _declare(self, name: str, kind: str, help: str,
                 labelnames: Iterable[str]) -> MetricFamily:
        labelnames = tuple(labelnames)
        family = self.families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != labelnames:
                raise MetricError(
                    f"metric {name!r} re-declared as {kind}{labelnames} "
                    f"(was {family.kind}{family.labelnames})")
            return family
        family = MetricFamily(name, kind, help, labelnames)
        self.families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._declare(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = ()) -> MetricFamily:
        """Declare (or fetch) a histogram family."""
        return self._declare(name, "histogram", help, labelnames)

    def scrape(self, t_seconds: float) -> dict:
        """Snapshot every child into one JSON-able dict.

        Shape::

            {"t_s": 12.0,
             "counters":   {name: {labelkey: value}},
             "gauges":     {name: {labelkey: value}},
             "histograms": {name: {labelkey: <LatencyHistogram.to_dict()>}}}

        Family and label keys are emitted sorted, and every leaf is a
        plain float/int/dict, so ``json.loads(json.dumps(s)) == s`` —
        the lossless-round-trip property the telemetry artifact (and its
        hypothesis test) relies on.
        """
        out: dict = {"t_s": float(t_seconds), "counters": {},
                     "gauges": {}, "histograms": {}}
        for name in sorted(self.families):
            family = self.families[name]
            section = out[family.kind + "s"]
            hist = family.kind == "histogram"
            section[name] = {key: child.hist.to_dict() if hist else child.value
                             for key, child in family._sorted_children()}
        return out
