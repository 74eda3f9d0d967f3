"""Decision provenance and memory forensics: who allocated, who decided.

Two coordinated ledgers behind one :class:`AuditLog`, the analogue of
Linux's ``page_owner`` + a policy decision audit trail:

1. The **frame provenance ledger** (:class:`FrameLedger`) — numpy-columned
   per-frame records: allocating pid, allocation order/epoch/site, plus a
   bounded per-frame lifecycle ring (promoted, demoted, migrated
   node→node, compacted, swapped, zeroed, KSM-merged, freed).  It is fed
   from the frame table's own mutation seams (``mark_allocated`` /
   ``mark_free`` / ``zero_fill``) and from the lifecycle sites in the
   kernel, compaction, swap, KSM and NUMA-balancing code, so provenance
   travels with page content across migration and compaction — exactly
   the way ``__folio_copy_owner`` moves ``page_owner`` info.

2. The **policy decision audit** — every accept/reject at a decision
   point (promotion scoring, collapse target-node choice, bloat-recovery
   victim selection, knumad migration candidacy, rate-limiter budget
   denials) lands as a :class:`DecisionRecord` carrying the inputs the
   policy actually read (coverage EMA, thresholds, budget remaining, …)
   and the outcome + reason.  Records feed a per-point **funnel**
   (candidates → eligible → budget-passed → acted) and a per-reason
   rejection breakdown, and — when a tracer is attached — each decision
   also emits a zero-span ``decision.*`` tracepoint, so decisions show up
   as instants in the Perfetto export and in the attribution table.

Zero-cost-when-disabled contract (same as ``repro.trace``): every site is
guarded by ``(al := kernel.audit) is not None and al.enabled`` (the
buddy hot path tests ``frames.ledger`` the same way), so a kernel with
no audit attached pays one attribute load and one ``None`` test per
potential record, and ``repro bench epoch`` holds the attached-but-silent
state under the same <5 % ceiling as tracing.

Usage::

    from repro import audit

    log = audit.attach(kernel)
    ... run the workload ...
    print(audit.format_funnel(log.summary()))
    for rec in log.decisions_for(pid=proc.pid, hvpn=hvpn):
        print(rec)
    audit.detach(kernel)
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro import trace
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry

#: per-frame lifecycle ring slots (newest events win once full).
RING_SLOTS = 8

#: most recent DecisionRecords kept for `repro why` (older ones age out;
#: the funnel and rejection counters stay exact regardless).
DECISION_CAPACITY = 4096

# ---------------------------------------------------------------------- #
# frame lifecycle event codes (int8 in the ring)                          #
# ---------------------------------------------------------------------- #

EV_NONE = 0
EV_PROMOTED = 1
EV_DEMOTED = 2
EV_MIGRATED = 3       # arg = destination node
EV_COMPACTED = 4      # arg = source frame the content came from
EV_SWAPPED_OUT = 5
EV_SWAPPED_IN = 6
EV_ZEROED = 7
EV_KSM_MERGED = 8     # arg = canonical frame the mapping now points at
EV_FREED = 9

EVENT_NAMES = {
    EV_NONE: "-",
    EV_PROMOTED: "promoted",
    EV_DEMOTED: "demoted",
    EV_MIGRATED: "migrated",
    EV_COMPACTED: "compacted",
    EV_SWAPPED_OUT: "swapped_out",
    EV_SWAPPED_IN: "swapped_in",
    EV_ZEROED: "zeroed",
    EV_KSM_MERGED: "ksm_merged",
    EV_FREED: "freed",
}

# ---------------------------------------------------------------------- #
# allocation-site codes (int8 column)                                     #
# ---------------------------------------------------------------------- #

SITE_UNKNOWN = 0
SITE_FAULT = 1        # demand fault / COW / swap-in allocation
SITE_PROMOTE = 2      # copy-based promotion (collapse) target block
SITE_COMPACT = 3      # compaction migration target
SITE_NUMA = 4         # knumad migration target
SITE_KERNEL = 5       # kernel-owned (zero page, replicas, …)
SITE_PREEXISTING = 6  # allocated before the audit log attached

SITE_NAMES = {
    SITE_UNKNOWN: "?",
    SITE_FAULT: "fault",
    SITE_PROMOTE: "promote",
    SITE_COMPACT: "compact",
    SITE_NUMA: "numa",
    SITE_KERNEL: "kernel",
    SITE_PREEXISTING: "preexisting",
}

#: funnel stage names, in order; a decision that reached stage ``k``
#: increments stages ``0..k-1`` (every decision is at least a candidate).
FUNNEL_STAGES = ("candidates", "eligible", "budget_passed", "acted")

#: decision point -> tracepoint kind for the zero-span instant.
_DECISION_KINDS = {
    "promote": trace.TraceKind.DECISION_PROMOTE,
    "collapse_node": trace.TraceKind.DECISION_COLLAPSE,
    "bloat": trace.TraceKind.DECISION_BLOAT,
    "knumad": trace.TraceKind.DECISION_KNUMAD,
    "fault_size": trace.TraceKind.DECISION_FAULT,
}

#: kernel-owned allocations carry this owner pid (kernel.KERNEL_OWNER;
#: duplicated here to keep the import graph acyclic).
_KERNEL_OWNER = -3


class FrameLedger:
    """page_owner-style per-frame provenance, numpy-columned.

    One row per physical frame: the allocation columns are overwritten on
    every (re)allocation; :attr:`live` mirrors the frame table's
    ``allocated`` bitmap while the ledger is enabled; the lifecycle ring
    keeps the last :data:`RING_SLOTS` events per frame (older events are
    overwritten, ``ev_len`` keeps the true total).
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        n = kernel.frames.num_frames
        #: per-ledger gate, kept in lockstep with ``AuditLog.enabled``.
        self.enabled = True
        self.live = np.zeros(n, dtype=bool)
        self.alloc_pid = np.full(n, -1, dtype=np.int32)
        self.alloc_order = np.full(n, -1, dtype=np.int8)
        self.alloc_epoch = np.full(n, -1, dtype=np.int32)
        self.alloc_site = np.zeros(n, dtype=np.int8)
        self.ev_code = np.zeros((n, RING_SLOTS), dtype=np.int8)
        self.ev_epoch = np.zeros((n, RING_SLOTS), dtype=np.int32)
        self.ev_arg = np.zeros((n, RING_SLOTS), dtype=np.int32)
        self.ev_len = np.zeros(n, dtype=np.int32)
        #: total ring-event recordings (cheap health counter).
        self.events_recorded = 0

    # -- frame-table hooks --------------------------------------------- #

    def on_alloc(self, start: int, count: int, owner: int, order: int = 0) -> None:
        """A frame range was marked allocated (at buddy ``order``): open
        fresh records."""
        sl = slice(start, start + count)
        self.live[sl] = True
        self.alloc_pid[sl] = owner
        self.alloc_order[sl] = order
        self.alloc_epoch[sl] = self.kernel.stats.epochs
        self.alloc_site[sl] = (
            SITE_KERNEL if owner == _KERNEL_OWNER else SITE_FAULT)
        self.ev_len[sl] = 0

    def on_free(self, start: int, count: int) -> None:
        """A frame range was marked free: close records, keep forensics."""
        self.live[start:start + count] = False
        self.record(start, count, EV_FREED)

    def on_free_frames(self, frames: np.ndarray) -> None:
        """:meth:`on_free` over an index array of distinct frames."""
        self.live[frames] = False
        self.record_frames(frames, EV_FREED)

    def on_zero(self, start: int, count: int) -> None:
        """A frame range had its content zero-filled."""
        self.record(start, count, EV_ZEROED)

    def on_zero_frames(self, frames: np.ndarray) -> None:
        """:meth:`on_zero` over an index array of distinct frames."""
        self.record_frames(frames, EV_ZEROED)

    # -- lifecycle recording ------------------------------------------- #

    def record(self, start: int, count: int, ev: int, arg: int = 0) -> None:
        """Append one lifecycle event to each frame in the range."""
        if count == 1:
            pos = self.ev_len[start] % RING_SLOTS
            self.ev_code[start, pos] = ev
            self.ev_epoch[start, pos] = self.kernel.stats.epochs
            self.ev_arg[start, pos] = arg
            self.ev_len[start] += 1
            self.events_recorded += 1
        else:
            self.record_frames(np.arange(start, start + count), ev, arg)

    def record_frames(self, frames: np.ndarray, ev: int, arg=0) -> None:
        """:meth:`record` over an index array of distinct frames; ``arg``
        is one value or one per frame."""
        pos = self.ev_len[frames] % RING_SLOTS
        self.ev_code[frames, pos] = ev
        self.ev_epoch[frames, pos] = self.kernel.stats.epochs
        self.ev_arg[frames, pos] = arg
        self.ev_len[frames] += 1
        self.events_recorded += len(frames)

    def set_site(self, start: int, count: int, site: int) -> None:
        """Re-attribute an allocation to a non-fault site (post-alloc)."""
        self.alloc_site[start:start + count] = site

    def copy_provenance(self, old, new, count: int | None = 1) -> None:
        """Provenance travels with page content (migration/compaction).

        ``count`` frames from ``old``/``new`` on, or with ``count=None``
        two index arrays of frames paired by position.
        """
        so, sn = ((old, new) if count is None else
                  (slice(old, old + count), slice(new, new + count)))
        self.alloc_pid[sn] = self.alloc_pid[so]
        self.alloc_order[sn] = self.alloc_order[so]
        self.alloc_epoch[sn] = self.alloc_epoch[so]
        self.alloc_site[sn] = self.alloc_site[so]
        self.ev_code[sn] = self.ev_code[so]
        self.ev_epoch[sn] = self.ev_epoch[so]
        self.ev_arg[sn] = self.ev_arg[so]
        self.ev_len[sn] = self.ev_len[so]

    def on_compact(self, old: np.ndarray, new: np.ndarray) -> None:
        """Compaction moved each ``old[i]`` to ``new[i]``: provenance
        travels with the content, and the migration itself is an event on
        the destination frame, attributed to compaction."""
        self.copy_provenance(old, new, None)
        self.record_frames(new, EV_COMPACTED, old)
        self.alloc_site[new] = SITE_COMPACT

    # -- queries -------------------------------------------------------- #

    def frame_events(self, frame: int) -> list[tuple[str, int, int]]:
        """The frame's buffered ring as ``(name, epoch, arg)``, oldest first."""
        total = int(self.ev_len[frame])
        kept = min(total, RING_SLOTS)
        out = []
        for i in range(total - kept, total):
            pos = i % RING_SLOTS
            out.append((EVENT_NAMES[int(self.ev_code[frame, pos])],
                        int(self.ev_epoch[frame, pos]),
                        int(self.ev_arg[frame, pos])))
        return out

    def describe(self, frame: int) -> dict:
        """One frame's provenance record as a plain dict."""
        return {
            "frame": frame,
            "live": bool(self.live[frame]),
            "pid": int(self.alloc_pid[frame]),
            "order": int(self.alloc_order[frame]),
            "epoch": int(self.alloc_epoch[frame]),
            "site": SITE_NAMES.get(int(self.alloc_site[frame]), "?"),
            "events": self.frame_events(frame),
        }


@dataclass
class DecisionRecord:
    """One policy decision with the numbers the policy actually compared.

    ``hvpn`` is -1 for decisions not scoped to a region (e.g. a budget
    denial that stopped a whole scan).  ``stage`` is the deepest funnel
    stage the candidate reached (see :data:`FUNNEL_STAGES`).
    """

    t_us: float
    epoch: int
    point: str
    process: str
    pid: int
    hvpn: int
    outcome: str            # "accept" | "reject"
    reason: str
    stage: int              # 1..len(FUNNEL_STAGES)
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (stage rendered by name, times in seconds)."""
        return {
            "t_s": self.t_us / SEC,
            "epoch": self.epoch,
            "point": self.point,
            "process": self.process,
            "pid": self.pid,
            "hvpn": self.hvpn,
            "outcome": self.outcome,
            "reason": self.reason,
            "stage": FUNNEL_STAGES[self.stage - 1],
            "inputs": dict(self.inputs),
        }

    def __str__(self) -> str:  # pragma: no cover - CLI rendering aid
        where = f" hvpn={self.hvpn}" if self.hvpn >= 0 else ""
        nums = ", ".join(f"{k}={v:g}" if isinstance(v, (int, float))
                         else f"{k}={v}" for k, v in self.inputs.items())
        return (f"[{self.t_us / SEC:9.3f}s] {self.point:<13} "
                f"{self.process:<12}{where} {self.outcome}:{self.reason}"
                + (f" ({nums})" if nums else ""))


class AuditLog:
    """Per-kernel audit sink: frame ledger + decision records + funnel."""

    def __init__(self, kernel: "Kernel",
                 capacity: int = DECISION_CAPACITY) -> None:
        self.kernel = kernel
        self.capacity = capacity
        self.ledger = FrameLedger(kernel)
        #: most recent decisions (oldest age out at ``capacity``).
        self.decisions: collections.deque[DecisionRecord] = \
            collections.deque(maxlen=capacity)
        #: total decisions ever recorded (exact, unlike the deque).
        self.recorded = 0
        #: point -> [candidates, eligible, budget_passed, acted] (exact).
        self.funnel: dict[str, list[int]] = {}
        #: point -> {reason: count} for rejects (exact).
        self.rejections: dict[str, dict[str, int]] = {}
        self._enabled = True

    # -- gating --------------------------------------------------------- #

    @property
    def enabled(self) -> bool:
        """Per-log gate; False pauses both ledgers while staying attached."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self.ledger.enabled = value

    @property
    def dropped(self) -> int:
        """Decisions no longer replayable by ``repro why`` (aged out)."""
        return max(0, self.recorded - len(self.decisions))

    # -- decision recording --------------------------------------------- #

    def decide(self, point: str, process: str, pid: int, hvpn: int,
               outcome: str, reason: str, stage: int,
               inputs: dict | None = None) -> None:
        """Record one accept/reject at a decision point.

        ``stage`` is the deepest funnel stage reached (1 = candidate only,
        4 = acted); the funnel counters for every stage up to it are
        incremented, so ``candidates >= eligible >= budget_passed >=
        acted`` holds per point by construction.
        """
        f = self.funnel.get(point)
        if f is None:
            f = self.funnel[point] = [0, 0, 0, 0]
        for i in range(stage):
            f[i] += 1
        if outcome != "accept":
            rej = self.rejections.setdefault(point, {})
            rej[reason] = rej.get(reason, 0) + 1
        kernel = self.kernel
        self.decisions.append(DecisionRecord(
            t_us=kernel.now_us, epoch=kernel.stats.epochs, point=point,
            process=process, pid=pid, hvpn=hvpn, outcome=outcome,
            reason=reason, stage=stage, inputs=inputs or {}))
        self.recorded += 1
        # Decisions double as zero-span tracepoints: instants in the
        # Perfetto export, a `decision` row in the attribution table.
        if (tp := kernel.trace) is not None and tp.enabled:
            kind = _DECISION_KINDS.get(point)
            if kind is not None:
                tp.emit(kind, process, 0.0,
                        hvpn if hvpn >= 0 else None,
                        f"{outcome}:{reason}")

    # -- queries -------------------------------------------------------- #

    def decisions_for(self, pid: int | None = None,
                      hvpn: int | None = None,
                      point: str | None = None,
                      limit: int | None = None) -> list[DecisionRecord]:
        """Most recent matching decisions, newest first."""
        out = []
        for rec in reversed(self.decisions):
            if pid is not None and rec.pid != pid:
                continue
            if hvpn is not None and rec.hvpn != hvpn:
                continue
            if point is not None and rec.point != point:
                continue
            out.append(rec)
            if limit is not None and len(out) >= limit:
                break
        return out

    def summary(self) -> dict:
        """The artifact section: ``funnel`` (point -> {stage: count}),
        ``rejections`` (point -> {reason: count}), both sorted, and the
        ``recorded``/``dropped`` record counts."""
        return {
            "funnel": {point: dict(zip(FUNNEL_STAGES, counts))
                       for point, counts in sorted(self.funnel.items())},
            "rejections": {point: dict(sorted(reasons.items()))
                           for point, reasons in sorted(self.rejections.items())},
            "recorded": self.recorded,
            "dropped": self.dropped,
        }


# ---------------------------------------------------------------------- #
# attachment (mirrors repro.trace)                                        #
# ---------------------------------------------------------------------- #


def attach(kernel: "Kernel", capacity: int = DECISION_CAPACITY) -> AuditLog:
    """Attach an :class:`AuditLog` to ``kernel`` (fills ``kernel.audit``).

    Idempotent: returns the existing log if one is attached.  Frames
    already allocated when the log attaches are backfilled as
    ``preexisting`` records (owner from the frame table), so the
    live-record invariant holds from the first step.
    """
    if kernel.audit is not None:
        return kernel.audit
    log = AuditLog(kernel, capacity)
    kernel.audit = log
    frames = kernel.frames
    frames.ledger = log.ledger
    pre = frames.allocated.copy()
    ledger = log.ledger
    ledger.live[:] = pre
    ledger.alloc_pid[pre] = frames.owner[pre]
    ledger.alloc_order[pre] = 0
    ledger.alloc_epoch[pre] = kernel.stats.epochs
    ledger.alloc_site[pre] = SITE_PREEXISTING
    return log


def detach(kernel: "Kernel") -> AuditLog | None:
    """Detach ``kernel``'s audit log (empties ``kernel.audit``)."""
    log, kernel.audit = kernel.audit, None
    kernel.frames.ledger = None
    return log


# ---------------------------------------------------------------------- #
# publication: families, artifact section, scalars, rows, rendering       #
# ---------------------------------------------------------------------- #


def format_funnel(section: dict, title: str = "decision funnel") -> str:
    """Render a decisions section's :func:`rows` as text tables."""
    from repro.metrics.tables import format_table

    funnel, rejections = rows(section)
    out = format_table(["point", *FUNNEL_STAGES], funnel, title=title)
    if rejections:
        out += "\n" + format_table(
            ["point", "reason", "rejections"], rejections,
            title="rejections by reason")
    return out


#: the decisions section's key in a telemetry artifact.
SECTION = "decisions"


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish the funnel and rejection counters of an attached log."""
    if (log := kernel.audit) is None:
        return
    funnel = registry.counter(
        "decision_funnel_total",
        "policy decisions reaching each funnel stage",
        labelnames=("point", "stage"))
    rejections = registry.counter(
        "decision_rejections_total",
        "policy rejections per decision point and reason",
        labelnames=("point", "reason"))
    for point, counts in log.funnel.items():
        for stage, count in zip(FUNNEL_STAGES, counts):
            funnel.labels(point=point, stage=stage).sync(count)
    for point, reasons in log.rejections.items():
        for reason, count in reasons.items():
            rejections.labels(point=point, reason=reason).sync(count)


def section(kernel: "Kernel") -> dict:
    """The artifact section: funnel, rejections and record counts."""
    return kernel.audit.summary() if kernel.audit is not None else {}


def merge(sections: Iterable[dict]) -> dict:
    """Sum several sections' funnels and rejections into one."""
    funnel: dict[str, dict[str, int]] = {}
    rejections: dict[str, dict[str, int]] = {}
    for sec in sections:
        for point, stages in (sec.get("funnel") or {}).items():
            agg = funnel.setdefault(point, dict.fromkeys(FUNNEL_STAGES, 0))
            for stage, count in stages.items():
                agg[stage] += count
        for point, reasons in (sec.get("rejections") or {}).items():
            rej = rejections.setdefault(point, {})
            for reason, count in reasons.items():
                rej[reason] = rej.get(reason, 0) + count
    return {"funnel": funnel, "rejections": rejections}


def rows(section: dict) -> tuple[list[list], list[list]]:
    """``[point, *FUNNEL_STAGES]`` funnel rows and ``[point, reason,
    count]`` rejection rows, sorted: the CLI and HTML tables."""
    funnel = [[point, *(stages.get(s, 0) for s in FUNNEL_STAGES)]
              for point, stages in sorted((section.get("funnel") or {}).items())]
    rejections = [[point, reason, count]
                  for point, reasons in sorted(
                      (section.get("rejections") or {}).items())
                  for reason, count in sorted(reasons.items())]
    return funnel, rejections


def scalars(section: dict) -> dict[str, float]:
    """``decision.<point>.<stage>`` and ``decision.<point>.reject.<reason>``."""
    out = {}
    for point, stages in (section.get("funnel") or {}).items():
        for stage, count in stages.items():
            out[f"decision.{point}.{stage}"] = count
    for point, reasons in (section.get("rejections") or {}).items():
        for reason, count in reasons.items():
            out[f"decision.{point}.reject.{reason}"] = count
    return out
