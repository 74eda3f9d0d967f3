"""First-class kernel tracepoints with latency histograms.

The simulator's policy decisions and cost-charging sites emit structured
:class:`TraceEvent` records through a per-kernel :class:`Tracer` — the
analogue of Linux's static tracepoints read through ``perf``/eBPF.  Every
event carries the *simulated-time span* the site charged (fault latency,
promotion cost, scan time, …), so a recorded run decomposes into a
per-subsystem time-attribution table (:func:`attribution`) — a free
generalisation of the paper's Tables 1 and 8.

Zero-cost-when-disabled contract: every emission site is guarded by
``(tp := kernel.trace) is not None and tp.enabled``, so a kernel with no
tracer pays one attribute load and one ``None`` test per potential event
(the analogue of a nop-patched static branch).  ``repro bench touch``
gates this: a tracer attached with ``tracer.enabled = False`` must cost
< 5 % over no tracer at all.

Usage::

    from repro import trace

    tracer = trace.attach(kernel)
    ... run the workload ...
    print(trace.format_attribution(tracer.attribution()))
    trace.detach(kernel)

Events land in a bounded ring-buffer-style sink that **drops new events
when full** (like ``perf``'s ring buffer), counting drops; the per-kind
event counts, span totals and latency histograms are updated on every
emission and therefore stay exact even when the event list saturates.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry

#: Default ring-buffer capacity (events kept before drops start).
DEFAULT_CAPACITY = 200_000


class TraceKind(enum.Enum):
    """The tracepoint catalogue.

    Values are dotted ``subsystem.event`` names; the prefix before the
    first dot is the *subsystem* used for attribution grouping, and
    filters accept either the full name or the bare subsystem.
    """

    FAULT_BASE = "fault.base"
    FAULT_HUGE = "fault.huge"
    FAULT_COW = "fault.cow"
    PROMOTE_COLLAPSE = "promote.collapse"
    PROMOTE_INPLACE = "promote.inplace"
    DEMOTE = "demote"
    MADVISE_FREE = "madvise.free"
    BLOAT_SCAN = "bloat.scan"
    BLOAT_RECOVER = "bloat.recover"
    COMPACT = "compact"
    PREZERO = "prezero"
    SWAP_IN = "swap.in"
    SWAP_OUT = "swap.out"
    KSM_MERGE = "ksm.merge"
    OOM = "oom"
    KTHREAD_EPOCH = "kthread.epoch"
    NUMA_HINT = "numa.hint"
    NUMA_MIGRATE = "numa.migrate"
    NUMA_REMOTE_WALK = "numa_walk.remote"
    # zero-span policy-decision instants, emitted by repro.audit when
    # both an audit log and a tracer are attached; detail = outcome:reason.
    DECISION_PROMOTE = "decision.promote"
    DECISION_COLLAPSE = "decision.collapse_node"
    DECISION_BLOAT = "decision.bloat"
    DECISION_KNUMAD = "decision.knumad"
    DECISION_FAULT = "decision.fault_size"
    # zero-span per-process WSS/region counters, emitted by repro.heat
    # when both a heat monitor and a tracer are attached; detail =
    # `key=value;…` pairs rendered as Perfetto counter tracks.
    HEAT_WSS = "heat.wss"

    # Members are singletons, so identity hashing is exact; it replaces
    # Enum's Python-level ``hash(self._name_)`` on every counter update.
    __hash__ = object.__hash__

    @property
    def subsystem(self) -> str:
        """Attribution group: the part of the name before the first dot."""
        return self.value.split(".", 1)[0]


@dataclass(slots=True)
class TraceEvent:
    """One emitted tracepoint record.

    ``span_us`` is the simulated time the site charged for the traced
    operation (0 for pure decision events); ``page`` is a vpn for
    base-page-granularity events and an hvpn for huge-region-granularity
    ones (see ``docs/observability.md`` for the per-kind convention).
    """

    t_us: float
    kind: TraceKind
    process: str
    span_us: float = 0.0
    page: Optional[int] = None
    detail: str = ""

    @property
    def t_seconds(self) -> float:
        """Timestamp in simulated seconds."""
        return self.t_us / SEC

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        where = f" page={self.page}" if self.page is not None else ""
        return (
            f"[{self.t_seconds:9.3f}s] {self.kind.value:<16} "
            f"{self.process:<12} span={self.span_us:.2f}us{where} {self.detail}"
        )


def repeat_add(total: float, value: float, n: int) -> float:
    """``total`` plus ``value`` added ``n`` times, one addition at a time.

    Bit-identical to ``for _ in range(n): total += value`` (never
    ``total + n * value``, which rounds differently), with the loop in C.
    """
    return functools.reduce(operator.add, itertools.repeat(value, n), total)


class LatencyHistogram:
    """Power-of-two latency buckets, like ``perf``'s log2 histograms.

    Bucket ``i`` counts samples with ``2**i <= span_us < 2**(i+1)``;
    sub-microsecond samples land in negative buckets and zero spans in a
    dedicated underflow bucket.
    """

    #: bucket index used for exactly-zero samples.
    ZERO_BUCKET = -64

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total_us = 0.0
        self.min_us = float("inf")
        self.max_us = 0.0

    def add(self, span_us: float) -> None:
        """Record one latency sample."""
        if span_us <= 0.0:
            idx = self.ZERO_BUCKET
        else:
            # frexp: span = m * 2**e with 0.5 <= m < 1, so the enclosing
            # power-of-two bucket [2**(e-1), 2**e) has index e - 1.
            idx = math.frexp(span_us)[1] - 1
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total_us += span_us
        if span_us < self.min_us:
            self.min_us = span_us
        if span_us > self.max_us:
            self.max_us = span_us

    def add_run(self, span_us: float, n: int) -> None:
        """Record ``n`` samples of one value: exactly ``n`` :meth:`add` calls.

        :meth:`add` stays a separate inline body: it runs once per emitted
        event, where one more call level would double its cost.
        """
        if n <= 0:
            return
        if span_us <= 0.0:
            idx = self.ZERO_BUCKET
        else:
            idx = math.frexp(span_us)[1] - 1
        self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += n
        self.total_us = repeat_add(self.total_us, span_us, n)
        if span_us < self.min_us:
            self.min_us = span_us
        if span_us > self.max_us:
            self.max_us = span_us

    @property
    def mean_us(self) -> float:
        """Mean sample value in µs (0 when empty)."""
        return self.total_us / self.count if self.count else 0.0

    def items(self) -> list[tuple[int, int]]:
        """``(bucket_index, count)`` pairs in ascending bucket order."""
        return sorted(self.buckets.items())

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the log2 buckets.

        Samples are interpolated linearly within their bucket, as if
        uniformly distributed over ``[2**i, 2**(i+1))``.  Error bound:
        the true quantile provably lies in the same bucket as the
        estimate, so the estimate is off by less than one bucket width —
        within a factor of 2 of the true value, and the signed error is
        at most ``2**i`` µs for a quantile landing in bucket ``i``.  The
        exact min/max are tracked separately, so the estimate is clamped
        into ``[min_us, max_us]`` (this makes single-sample and
        extreme-quantile estimates exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx, count in self.items():
            if cumulative + count >= target:
                lo, hi = self.bucket_bounds(idx)
                fraction = (target - cumulative) / count
                estimate = lo + fraction * (hi - lo)
                return min(max(estimate, self.min_us), self.max_us)
            cumulative += count
        return self.max_us

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 estimates (see :meth:`quantile`)."""
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def to_dict(self) -> dict:
        """JSON-able form: buckets, exact moments, and p50/p95/p99.

        The percentile fields are derived (recomputed by
        :meth:`from_dict` round-trips); buckets/count/total/min/max are
        the lossless state.
        """
        out: dict = {
            "buckets": {str(idx): count for idx, count in self.items()},
            "count": self.count,
            "total_us": self.total_us,
        }
        if self.count:
            out["min_us"] = self.min_us
            out["max_us"] = self.max_us
            out.update(self.percentiles())
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild a histogram serialised by :meth:`to_dict`."""
        hist = cls()
        hist.buckets = {int(idx): count for idx, count in data["buckets"].items()}
        hist.count = data["count"]
        hist.total_us = data["total_us"]
        if hist.count:
            hist.min_us = data["min_us"]
            hist.max_us = data["max_us"]
        return hist

    @staticmethod
    def bucket_bounds(idx: int) -> tuple[float, float]:
        """The ``[lo, hi)`` µs range of bucket ``idx``."""
        if idx == LatencyHistogram.ZERO_BUCKET:
            return 0.0, 0.0
        return 2.0 ** idx, 2.0 ** (idx + 1)


class Tracer:
    """Per-kernel tracepoint sink: bounded buffer and exact counters.

    The event list keeps the *first* ``capacity`` events; once full, **new
    events are dropped** (and counted in :attr:`dropped`) — the per-kind
    counters, span totals and histograms keep updating, so
    :meth:`attribution` remains exact regardless of drops.  An event
    object is built only when the buffer keeps it.  :meth:`emit_run`
    records a run of identical events on consecutive pages in one call,
    with the same result as emitting them one by one.
    """

    def __init__(self, kernel: "Kernel", capacity: int = DEFAULT_CAPACITY,
                 warn_on_drop: bool = True):
        self.kernel = kernel
        self.capacity = capacity
        #: per-tracer gate: False pauses emission while staying attached
        #: (the disabled-overhead benchmark measures exactly this state).
        self.enabled = True
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._warned_drop = not warn_on_drop
        self.counts: dict[TraceKind, int] = {}
        self.spans: dict[TraceKind, float] = {}
        self.histograms: dict[TraceKind, LatencyHistogram] = {}

    # ------------------------------------------------------------------ #
    # emission                                                            #
    # ------------------------------------------------------------------ #

    def emit(
        self,
        kind: TraceKind,
        process: str,
        span_us: float = 0.0,
        page: int | None = None,
        detail: str = "",
    ) -> None:
        """Emit one event at the kernel's current simulated time."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.spans[kind] = self.spans.get(kind, 0.0) + span_us
        if span_us > 0.0:
            hist = self.histograms.get(kind)
            if hist is None:
                hist = self.histograms[kind] = LatencyHistogram()
            hist.add(span_us)
        if len(self.events) < self.capacity:
            self.events.append(TraceEvent(self.kernel.now_us, kind, process,
                                          span_us, page, detail))
        else:
            self._drop(1)

    def emit_run(
        self,
        kind: TraceKind,
        process: str,
        span_us: float,
        page0: int,
        n: int,
        step: int = 1,
    ) -> None:
        """Emit ``n`` events on pages ``page0, page0 + step, ...``.

        Exactly equivalent to ``n`` calls ``emit(kind, process, span_us,
        page0 + i * step)``: the same counts, span totals (accumulated by
        ``n`` sequential additions), histogram, buffered events, drop
        count and one-time warning.  Only the events that still fit under
        ``capacity`` are built.
        """
        if n <= 0:
            return
        self.counts[kind] = self.counts.get(kind, 0) + n
        self.spans[kind] = repeat_add(self.spans.get(kind, 0.0), span_us, n)
        if span_us > 0.0:
            hist = self.histograms.get(kind)
            if hist is None:
                hist = self.histograms[kind] = LatencyHistogram()
            hist.add_run(span_us, n)
        kept = max(0, min(n, self.capacity - len(self.events)))
        if kept:
            now_us = self.kernel.now_us
            self.events.extend(
                TraceEvent(now_us, kind, process, span_us, page)
                for page in range(page0, page0 + kept * step, step)
            )
        if kept < n:
            self._drop(n - kept)

    def _drop(self, n: int) -> None:
        """Count ``n`` events that found the buffer full; warn the first time."""
        self.dropped += n
        if not self._warned_drop:
            self._warned_drop = True
            warnings.warn(
                f"trace ring buffer full ({self.capacity} events): "
                "dropping new events (counters stay exact)",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------ #
    # queries                                                             #
    # ------------------------------------------------------------------ #

    def of_kind(self, kind: TraceKind) -> list[TraceEvent]:
        """Buffered events of one kind, in emission order."""
        return [e for e in self.events if e.kind is kind]

    def for_process(self, process: str) -> list[TraceEvent]:
        """Buffered events attributed to one process name."""
        return [e for e in self.events if e.process == process]

    def filter(
        self,
        kinds: Sequence[str] | None = None,
        process: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TraceEvent]:
        """Buffered events through :func:`filter_events`."""
        return filter_events(self.events, kinds, process, since, until)

    def attribution(self) -> dict[str, tuple[int, float]]:
        """Exact per-subsystem ``(events, span_us)`` totals (drop-immune)."""
        out: dict[str, tuple[int, float]] = {}
        for kind, count in self.counts.items():
            sub = kind.subsystem
            prev = out.get(sub, (0, 0.0))
            out[sub] = (prev[0] + count, prev[1] + self.spans.get(kind, 0.0))
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable[TraceEvent]:
        return iter(self.events)


# ---------------------------------------------------------------------- #
# attachment                                                              #
# ---------------------------------------------------------------------- #


def attach(kernel: "Kernel", capacity: int = DEFAULT_CAPACITY,
           warn_on_drop: bool = True) -> Tracer:
    """Attach a :class:`Tracer` to ``kernel`` (fills ``kernel.trace``).

    Returns the kernel's existing tracer unchanged if one is already
    attached (re-attachment is idempotent).  ``warn_on_drop=False``
    silences the one-shot ring-buffer-full warning (telemetry capture
    uses a deliberately small buffer and relies on the exact counters).
    """
    if kernel.trace is None:
        kernel.trace = Tracer(kernel, capacity, warn_on_drop)
    return kernel.trace


def detach(kernel: "Kernel") -> Tracer | None:
    """Detach ``kernel``'s tracer (empties ``kernel.trace``).

    Returns the detached tracer (its buffered events stay readable), or
    None if the kernel had no tracer.
    """
    tracer, kernel.trace = kernel.trace, None
    return tracer


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish the exact per-subsystem attribution table (the families
    exist on every kernel, so a late tracer adds no family)."""
    events = registry.counter(
        "trace_events_total", "tracepoint emissions per subsystem",
        labelnames=("subsystem",))
    spans = registry.counter(
        "trace_span_us_total", "traced simulated-time span per subsystem",
        labelnames=("subsystem",))
    if (tracer := kernel.trace) is None:
        return
    for subsystem, (count, span_us) in tracer.attribution().items():
        events.labels(subsystem=subsystem).sync(count)
        spans.labels(subsystem=subsystem).sync(span_us)


# ---------------------------------------------------------------------- #
# stream helpers (work on any TraceEvent iterable, live or replayed)      #
# ---------------------------------------------------------------------- #


def _kind_matches(kind: TraceKind, wanted: Sequence[str]) -> bool:
    """Whether a kind matches any filter term (full name or subsystem)."""
    for term in wanted:
        if kind.value == term or kind.subsystem == term:
            return True
    return False


def filter_events(
    events: Iterable[TraceEvent],
    kinds: Sequence[str] | None = None,
    process: str | None = None,
    since: float | None = None,
    until: float | None = None,
) -> list[TraceEvent]:
    """Filter an event stream by kind/subsystem, process and time window.

    ``kinds`` entries may be full tracepoint names (``"fault.base"``) or
    bare subsystems (``"fault"``); ``since``/``until`` are simulated
    seconds, half-open ``[since, until)``.
    """
    out = []
    for e in events:
        if kinds and not _kind_matches(e.kind, kinds):
            continue
        if process is not None and e.process != process:
            continue
        t = e.t_us / SEC
        if since is not None and t < since:
            continue
        if until is not None and t >= until:
            continue
        out.append(e)
    return out


def attribution(events: Iterable[TraceEvent]) -> dict[str, tuple[int, float]]:
    """Per-subsystem ``(events, span_us)`` totals over an event stream.

    Use :meth:`Tracer.attribution` on a live tracer instead — it stays
    exact when the ring buffer drops; this helper serves replayed or
    filtered streams.
    """
    out: dict[str, tuple[int, float]] = {}
    for e in events:
        sub = e.kind.subsystem
        prev = out.get(sub, (0, 0.0))
        out[sub] = (prev[0] + 1, prev[1] + e.span_us)
    return out


def histograms(events: Iterable[TraceEvent]) -> dict[TraceKind, LatencyHistogram]:
    """Per-kind log2 latency histograms rebuilt from an event stream (the
    replay counterpart of :attr:`Tracer.histograms`)."""
    out: dict[TraceKind, LatencyHistogram] = {}
    for e in events:
        if e.span_us > 0.0:
            out.setdefault(e.kind, LatencyHistogram()).add(e.span_us)
    return out


def format_percentiles(hists: dict[TraceKind, LatencyHistogram]) -> str:
    """p50/p95/p99 per tracepoint, interpolated from the log2 buckets: an
    estimate lands in the true quantile's bucket, so it is within 2x of
    the true latency (see :meth:`LatencyHistogram.quantile`)."""
    from repro.metrics.tables import format_table

    rows = [(kind.value, hists[kind].count,
             *(round(v, 1) for v in hists[kind].percentiles().values()))
            for kind in sorted(hists, key=lambda k: k.value)]
    return format_table(
        ["kind", "n", "p50_us", "p95_us", "p99_us"], rows,
        title="latency percentiles (log2-bucket interpolation, within 2x):")


def format_attribution(
    table: dict[str, tuple[int, float]], title: str = "simulated-time attribution"
) -> str:
    """Render an attribution table as aligned text, largest span first."""
    from repro.metrics.tables import format_table

    total_us = sum(span for _, span in table.values()) or 1.0
    rows = [
        (sub, count, span / 1000.0, 100.0 * span / total_us)
        for sub, (count, span) in sorted(
            table.items(), key=lambda item: -item[1][1]
        )
    ]
    return format_table(
        ["subsystem", "events", "time_ms", "share_%"], rows, title=title
    )


def format_histogram(hist: LatencyHistogram, title: str, width: int = 40) -> str:
    """Render one latency histogram perf-style (log2 buckets, hash bars)."""
    lines = [
        f"{title}: {hist.count} samples, "
        f"mean {hist.mean_us:.2f}us, min {hist.min_us:.2f}us, max {hist.max_us:.2f}us"
    ]
    if not hist.count:
        return lines[0]
    peak = max(count for _, count in hist.items())
    for idx, count in hist.items():
        lo, hi = LatencyHistogram.bucket_bounds(idx)
        bar = "#" * max(1, round(width * count / peak))
        if idx == LatencyHistogram.ZERO_BUCKET:
            label = f"{'0':>10} us"
        else:
            label = f"{lo:>10.3g} us"
        lines.append(f"  {label} .. {hi:>10.3g}: {count:>8}  {bar}")
    return "\n".join(lines)
