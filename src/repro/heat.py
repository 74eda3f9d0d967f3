"""DAMON-style spatial access monitoring: adaptive regions and heatmaps.

The observability stack so far (trace, telemetry, audit) is entirely
*aggregate* — it can say how much time promotion cost or how many bloat
pages were recovered, but not **where** in an address space the hot
pages, huge mappings or bloat actually live over time.  This module
closes that gap the way Linux's DAMON does: a :class:`HeatMonitor`
piggybacks on the kernel's existing access-bit scan
(``Kernel._sample_access_bits`` writes ``last_coverage`` into the
:class:`~repro.core.region_table.RegionTable` SoA; this module only ever
*reads* those columns) and folds every sample into

1. **Adaptive monitoring regions** — per process, a set of contiguous
   ``[start_hvpn, end_hvpn)`` spans that exactly partition the process's
   VMA extents.  After each sample, adjacent regions inside one VMA whose
   access *densities* differ by at most :data:`MERGE_THRESHOLD` are
   merged, and (when under half the :data:`MAX_REGIONS` budget) every
   splittable region is split at its midpoint — DAMON's min/max-regions
   algorithm, made deterministic (midpoint instead of a random offset)
   so serial-vs-pooled sweep determinism is preserved.  Access counts are
   conserved exactly across split/merge: a region's ``sample`` is the sum
   of sampled coverage over its span, child sums are recomputed from the
   same prefix-sum array the parent used, and EMAs are partitioned
   proportionally / summed.

2. **Spatial × temporal matrices** — each process's address span is
   projected onto :data:`NBINS` fixed bins and a bounded ring of rows
   records, per sample: access heat (mean sampled pages per region),
   huge-page share, utilization (resident fraction), bloat (zero-filled
   base pages under huge mappings, read off the frame table), NUMA node
   placement (when multi-node) and mean allocation epoch (joining the
   frame ledger when ``repro.audit`` is attached).

3. **WSS percentile series** — per process, the monitoring-region WSS
   estimate (sum of region EMAs) feeds a
   :class:`~repro.trace.LatencyHistogram` for p50/p95/p99, alongside the
   exact :class:`~repro.core.wss.WSSEstimator` value as the ground-truth
   cross-check (the two integrate the same access-bit signal, so they
   track within a tested error bound on steady workloads).

Zero-cost-when-disabled contract (same as ``repro.trace`` /
``repro.audit``): the only per-sample cost with no monitor attached is
one ``kernel.heat is not None`` test in ``Kernel.run_epoch``, and
``repro bench touch`` / ``repro bench epoch`` hold the attached-but-silent
state under the same <5 % ceiling.  The monitor is a pure observer: it
never charges simulated time or mutates kernel state, so attaching it
cannot change any result byte.

Usage::

    from repro import heat

    mon = heat.attach(kernel)
    ... run the workload ...
    snap = mon.snapshot()
    print(heat.format_heatmap(snap["processes"][0]))
    heat.detach(kernel)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import trace
from repro.trace import LatencyHistogram
from repro.units import HUGE_PAGE_SIZE, PAGES_PER_HUGE, SEC, bytes_human

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry
    from repro.vm.process import Process

#: Region-budget floor: splitting stops shrinking resolution below this.
MIN_REGIONS = 10

#: Region-budget ceiling per process (DAMON's ``max_nr_regions``).
MAX_REGIONS = 128

#: Merge two adjacent regions when their access densities (sampled pages
#: per huge-region slot, 0..512) differ by at most this many pages.
MERGE_THRESHOLD = PAGES_PER_HUGE // 16

#: Spatial bins per process for the heatmap matrices.
NBINS = 64

#: Matrix ring length: samples of history kept per process.
HISTORY = 48

#: Snapshots of exited processes kept by the monitor (oldest age out).
RETIRED_CAP = 16

#: A monitoring region is "hot" when its EMA density clears half a region.
HOT_DENSITY = PAGES_PER_HUGE // 2

#: Terminal heat ramp, cold to hot (9 levels, index 0 = exactly zero).
RAMP = " ▁▂▃▄▅▆▇█"


class Region:
    """One monitoring region: a ``[start, end)`` hvpn span inside a VMA.

    ``sample`` is the exact sum of last sampled coverage (resident
    regions only) over the span; ``ema`` integrates it with the kernel's
    ``ema_alpha``; ``age`` counts samples since the region last changed
    shape (DAMON's region age, used to judge stability).
    """

    __slots__ = ("start", "end", "span", "sample", "ema", "age")

    def __init__(self, start: int, end: int, span: int,
                 sample: int = 0, ema: float = 0.0, age: int = 0):
        self.start = start
        self.end = end
        self.span = span
        self.sample = sample
        self.ema = ema
        self.age = age

    @property
    def width(self) -> int:
        return self.end - self.start

    def density(self) -> float:
        """Sampled pages per huge-region slot (0..512)."""
        return self.sample / self.width if self.width else 0.0

    def to_dict(self) -> dict:
        """JSON-able form (EMA and density rounded for stable output)."""
        return {
            "start": self.start, "end": self.end,
            "sample": self.sample, "ema": round(self.ema, 3),
            "density": round(self.density(), 2), "age": self.age,
        }


class ProcessHeat:
    """Per-process monitoring state: regions, matrices, WSS series."""

    def __init__(self, proc: "Process", nbins: int, history: int,
                 min_regions: int, max_regions: int,
                 merge_threshold: float) -> None:
        self.pid = proc.pid
        self.name = proc.name
        self.nbins = nbins
        self.history = history
        self.min_regions = min_regions
        self.max_regions = max_regions
        self.merge_threshold = merge_threshold
        #: the VMA extents (hvpn spans) the regions currently partition.
        self.spans: tuple[tuple[int, int], ...] = ()
        self.regions: list[Region] = []
        #: (lo_hvpn, hi_hvpn, nbins) of the current spatial axis; a
        #: change (address-space growth) resets the matrix rings.
        self.bin_key: Optional[tuple[int, int, int]] = None
        self.t_s: deque = deque(maxlen=history)
        self.epoch: deque = deque(maxlen=history)
        self.heat_rows: deque = deque(maxlen=history)
        self.util_rows: deque = deque(maxlen=history)
        self.huge_rows: deque = deque(maxlen=history)
        self.bloat_rows: deque = deque(maxlen=history)
        self.node_rows: deque = deque(maxlen=history)
        self.age_rows: deque = deque(maxlen=history)
        self.wss_hist = LatencyHistogram()
        self.wss_t_s: deque = deque(maxlen=history)
        self.wss_estimate: deque = deque(maxlen=history)
        self.wss_exact: deque = deque(maxlen=history)
        self.last_estimate = 0.0
        self.samples = 0
        self.finished = False

    # -- region layout -------------------------------------------------- #

    def _sync_spans(self, spans: tuple[tuple[int, int], ...]) -> None:
        """Re-partition after a VMA-set change, keeping surviving state.

        Old regions are clipped into the new spans; any uncovered gap
        inside a span becomes a fresh zero-state region, so the invariant
        *regions exactly partition the spans* holds by construction.
        """
        old = self.regions
        self.spans = spans
        out: list[Region] = []
        for si, (lo, hi) in enumerate(spans):
            cursor = lo
            for r in old:
                s, e = max(r.start, cursor), min(r.end, hi)
                if s >= e:
                    continue
                if s > cursor:
                    out.append(Region(cursor, s, si))
                if (s, e) == (r.start, r.end):
                    r.span = si
                    out.append(r)
                else:
                    # clipped: scale the conserved quantities by overlap.
                    frac = (e - s) / r.width
                    out.append(Region(s, e, si, int(r.sample * frac),
                                      r.ema * frac, 0))
                cursor = e
            if cursor < hi:
                out.append(Region(cursor, hi, si))
        self.regions = out

    def _merge_similar(self) -> None:
        """Merge adjacent same-VMA regions with similar access density."""
        if len(self.regions) <= 1:
            return
        out = [self.regions[0]]
        for r in self.regions[1:]:
            last = out[-1]
            if (r.span == last.span
                    and abs(r.density() - last.density())
                    <= self.merge_threshold):
                last.end = r.end
                last.sample += r.sample
                last.ema += r.ema
                last.age = min(last.age, r.age)
            else:
                out.append(r)
        self.regions = out

    def _enforce_budget(self) -> None:
        """Hard cap: merge most-similar adjacent pairs until within budget.

        A VMA-layout change can transiently leave more regions than
        ``max_regions`` (every clipped survivor and every gap becomes
        its own region).  DAMON's answer is to merge aggressively until
        the budget holds again: similarity still picks the victims, but
        the merge threshold no longer gates.  Ties break toward the
        lowest address, keeping the pass deterministic.  The floor is
        one region per span, so a span count beyond the budget simply
        leaves one region each.
        """
        while len(self.regions) > self.max_regions:
            best: Optional[int] = None
            best_diff = 0.0
            for i in range(len(self.regions) - 1):
                a, b = self.regions[i], self.regions[i + 1]
                if a.span != b.span:
                    continue
                diff = abs(a.density() - b.density())
                if best is None or diff < best_diff:
                    best, best_diff = i, diff
            if best is None:
                return
            a, b = self.regions[best], self.regions[best + 1]
            a.end = b.end
            a.sample += b.sample
            a.ema += b.ema
            a.age = min(a.age, b.age)
            del self.regions[best + 1]

    def _split_for_budget(self, sh: np.ndarray, cum: np.ndarray) -> None:
        """Midpoint-split regions while under half the region budget.

        DAMON splits every region in two whenever the count drops under
        ``max_nr_regions / 2``; we do the same but at the deterministic
        midpoint, recomputing child sums from the sample's prefix-sum
        array so access counts are conserved exactly.
        """
        if len(self.regions) >= max(self.min_regions, self.max_regions // 2):
            return
        out: list[Region] = []
        room = self.max_regions - len(self.regions)
        for r in self.regions:
            if room <= 0 or r.width < 2:
                out.append(r)
                continue
            mid = r.start + r.width // 2
            left_sum = int(cum[np.searchsorted(sh, mid)]
                           - cum[np.searchsorted(sh, r.start)])
            right_sum = r.sample - left_sum
            if r.sample > 0:
                left_ema = r.ema * (left_sum / r.sample)
            else:
                left_ema = r.ema * ((mid - r.start) / r.width)
            out.append(Region(r.start, mid, r.span, left_sum, left_ema, r.age))
            out.append(Region(mid, r.end, r.span, right_sum,
                              r.ema - left_ema, r.age))
            room -= 1
        self.regions = out

    # -- sampling --------------------------------------------------------#

    def on_sample(self, kernel: "Kernel", proc: "Process",
                  alpha: float) -> None:
        """Fold one access-bit sample into regions, matrices and WSS."""
        spans = tuple(
            (v.start >> 9, (v.end + PAGES_PER_HUGE - 1) >> 9)
            for v in proc.vmas if v.npages > 0)
        if spans != self.spans:
            self._sync_spans(spans)
        if not self.regions:
            return
        table = proc.regions
        n = len(table)
        if n:
            h = table.hvpn[:n]
            w = np.where(table.resident_arr() > 0, table.last_coverage[:n], 0)
            order = np.argsort(h, kind="stable")
            sh = h[order]
            cum = np.concatenate(([0], np.cumsum(w[order])))
        else:
            h = sh = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.int64)
            cum = np.zeros(1, dtype=np.int64)
        starts = np.fromiter((r.start for r in self.regions),
                             dtype=np.int64, count=len(self.regions))
        ends = np.fromiter((r.end for r in self.regions),
                           dtype=np.int64, count=len(self.regions))
        sums = cum[np.searchsorted(sh, ends)] - cum[np.searchsorted(sh, starts)]
        for r, s in zip(self.regions, sums.tolist()):
            r.sample = int(s)
            r.ema = alpha * s + (1.0 - alpha) * r.ema
            r.age += 1
        self._merge_similar()
        self._enforce_budget()
        self._split_for_budget(sh, cum)
        self._record_matrices(kernel, proc, h, w)
        est = sum(r.ema for r in self.regions)
        self.last_estimate = est
        self.wss_hist.add(est)
        from repro.core.wss import WSSEstimator
        exact = WSSEstimator(kernel).wss_pages(proc)
        t_s = kernel.now_us / SEC
        self.wss_t_s.append(round(t_s, 3))
        self.wss_estimate.append(round(est, 2))
        self.wss_exact.append(round(exact, 2))
        self.samples += 1

    def _record_matrices(self, kernel: "Kernel", proc: "Process",
                         h: np.ndarray, w: np.ndarray) -> None:
        lo = min(s for s, _ in self.spans)
        hi = max(e for _, e in self.spans)
        nb = max(1, min(self.nbins, hi - lo))
        key = (lo, hi, nb)
        if key != self.bin_key:
            # the spatial axis moved (VMA growth): old columns no longer
            # line up, so restart the rings on the new axis.
            self.bin_key = key
            for ring in (self.t_s, self.epoch, self.heat_rows,
                         self.util_rows, self.huge_rows, self.bloat_rows,
                         self.node_rows, self.age_rows):
                ring.clear()
        span = hi - lo
        if len(h):
            pos = np.clip((h - lo) * nb // span, 0, nb - 1)
            cnt = np.bincount(pos, minlength=nb)
            denom = np.maximum(cnt, 1)
            resident = proc.regions.resident_arr()
            heat = np.bincount(pos, weights=w, minlength=nb) / denom
            util = (np.bincount(pos, weights=resident, minlength=nb)
                    / (denom * PAGES_PER_HUGE))
            huge = (np.bincount(pos, weights=proc.regions.is_huge_arr(),
                                minlength=nb) / denom)
        else:
            heat = util = huge = np.zeros(nb)
        bloat = np.zeros(nb, dtype=np.int64)
        fnz = kernel.frames.first_nonzero
        hframe = proc.page_table.hframe
        hvs = np.flatnonzero(hframe[lo:hi] >= 0) + lo
        for hv, frame in zip(hvs.tolist(), hframe[hvs].tolist()):
            b = min((hv - lo) * nb // span, nb - 1)
            bloat[b] += int((fnz[frame:frame + PAGES_PER_HUGE] < 0).sum())
        numa = kernel.numa
        node_row: Optional[list[int]] = None
        if numa is not None and len(h):
            node_count = np.zeros((nb, numa.nodes), dtype=np.int64)
            for hv in h.tolist():
                node = numa.region_node(proc, hv)
                if node is not None:
                    b = min((hv - lo) * nb // span, nb - 1)
                    node_count[b, node] += 1
            node_row = np.where(node_count.sum(axis=1) > 0,
                                node_count.argmax(axis=1), -1).tolist()
        age_row: Optional[list[float]] = None
        audit_log = kernel.audit
        if audit_log is not None and len(h):
            ledger = audit_log.ledger
            age_sum = np.zeros(nb)
            age_cnt = np.zeros(nb, dtype=np.int64)
            pt = proc.page_table
            for idx, hv in enumerate(h.tolist()):
                if pt.region_huge(hv):
                    frame = int(pt.hframe[hv])
                else:
                    mframes, _ = pt.region_mirror(hv)
                    mapped = mframes[mframes >= 0]
                    if not len(mapped):
                        continue
                    frame = int(mapped[0])
                epoch = int(ledger.alloc_epoch[frame])
                if epoch >= 0:
                    b = min((hv - lo) * nb // span, nb - 1)
                    age_sum[b] += epoch
                    age_cnt[b] += 1
            age_row = [round(s / c, 1) if c else -1.0
                       for s, c in zip(age_sum.tolist(), age_cnt.tolist())]
        self.t_s.append(round(kernel.now_us / SEC, 3))
        self.epoch.append(kernel.stats.epochs)
        self.heat_rows.append([round(v, 2) for v in heat.tolist()])
        self.util_rows.append([round(v, 3) for v in util.tolist()])
        self.huge_rows.append([round(v, 3) for v in huge.tolist()])
        self.bloat_rows.append(bloat.tolist())
        self.node_rows.append(node_row)
        self.age_rows.append(age_row)

    # -- queries ---------------------------------------------------------#

    def hot_regions(self) -> int:
        """Monitoring regions whose EMA density clears :data:`HOT_DENSITY`."""
        return sum(1 for r in self.regions
                   if r.width and r.ema / r.width >= HOT_DENSITY)

    def snapshot(self) -> dict:
        """JSON-able state: regions, matrices, WSS percentile series."""
        lo, hi, nb = self.bin_key if self.bin_key else (0, 0, 0)
        wss: dict = {
            "t_s": list(self.wss_t_s),
            "estimate": list(self.wss_estimate),
            "exact": list(self.wss_exact),
            "samples": self.wss_hist.count,
        }
        if self.wss_hist.count:
            wss.update({k: round(v, 2)
                        for k, v in self.wss_hist.percentiles().items()})
        return {
            "process": self.name,
            "pid": self.pid,
            "finished": self.finished,
            "samples": self.samples,
            "span": [lo, hi],
            "bins": nb,
            "t_s": list(self.t_s),
            "epoch": list(self.epoch),
            "heat": [list(r) for r in self.heat_rows],
            "util": [list(r) for r in self.util_rows],
            "huge": [list(r) for r in self.huge_rows],
            "bloat": [list(r) for r in self.bloat_rows],
            "node": [r if r is None else list(r) for r in self.node_rows],
            "alloc_age": [r if r is None else list(r)
                          for r in self.age_rows],
            "regions": [r.to_dict() for r in self.regions],
            "hot_regions": self.hot_regions(),
            "wss": wss,
        }


class HeatMonitor:
    """Per-kernel spatial monitor: one :class:`ProcessHeat` per process."""

    def __init__(self, kernel: "Kernel", nbins: int = NBINS,
                 history: int = HISTORY, min_regions: int = MIN_REGIONS,
                 max_regions: int = MAX_REGIONS,
                 merge_threshold: float = MERGE_THRESHOLD) -> None:
        self.kernel = kernel
        self.nbins = nbins
        self.history = history
        self.min_regions = min_regions
        self.max_regions = max_regions
        self.merge_threshold = merge_threshold
        #: per-monitor gate: False pauses sampling while staying attached
        #: (the disabled-overhead benchmarks measure exactly this state).
        self.enabled = True
        self.procs: dict[int, ProcessHeat] = {}
        #: the last :data:`RETIRED_CAP` exited processes' states, oldest
        #: first; nothing updates them, so they snapshot when asked.
        self._retired: deque[ProcessHeat] = deque(maxlen=RETIRED_CAP)
        self.samples = 0

    def on_sample(self, kernel: "Kernel") -> None:
        """Fold the access-bit sample the kernel just took (epoch hook)."""
        alpha = kernel.config.ema_alpha
        live = {p.pid for p in kernel.processes}
        for pid in list(self.procs):
            if pid not in live:
                state = self.procs.pop(pid)
                state.finished = True
                self._retired.append(state)
        for proc in kernel.processes:
            state = self.procs.get(proc.pid)
            if state is None:
                state = self.procs[proc.pid] = ProcessHeat(
                    proc, self.nbins, self.history, self.min_regions,
                    self.max_regions, self.merge_threshold)
            state.on_sample(kernel, proc, alpha)
        self.samples += 1
        # WSS doubles as a zero-span tracepoint per process: a counter
        # track in the Perfetto export, a `heat` row in attribution.
        if (tp := kernel.trace) is not None and tp.enabled:
            for state in self.procs.values():
                tp.emit(trace.TraceKind.HEAT_WSS, state.name, 0.0, None,
                        f"wss_pages={state.last_estimate:.1f};"
                        f"hot_regions={state.hot_regions()};"
                        f"regions={len(state.regions)}")

    @property
    def retired(self) -> list[dict]:
        """Final snapshots of exited processes, oldest first."""
        return [state.snapshot() for state in self._retired]

    def snapshot(self) -> dict:
        """JSON-able monitor state: live processes (by pid) then retired."""
        return {
            "samples": self.samples,
            "processes": [self.procs[pid].snapshot()
                          for pid in sorted(self.procs)] + self.retired,
        }


# ---------------------------------------------------------------------- #
# attachment (mirrors repro.trace / repro.audit)                           #
# ---------------------------------------------------------------------- #


def attach(kernel: "Kernel", **config) -> HeatMonitor:
    """Attach a :class:`HeatMonitor` to ``kernel`` (fills ``kernel.heat``).

    Idempotent: returns the existing monitor if one is attached.
    Keyword arguments forward to :class:`HeatMonitor` (``nbins``,
    ``history``, ``min_regions``, ``max_regions``, ``merge_threshold``).
    """
    if kernel.heat is None:
        kernel.heat = HeatMonitor(kernel, **config)
    return kernel.heat


def detach(kernel: "Kernel") -> HeatMonitor | None:
    """Detach ``kernel``'s monitor (empties ``kernel.heat``)."""
    monitor, kernel.heat = kernel.heat, None
    return monitor


# ---------------------------------------------------------------------- #
# publication: families, artifact section, scalars, rows, rendering       #
# ---------------------------------------------------------------------- #

#: the heat section's key in a telemetry artifact.
SECTION = "heat"


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish per-process region counts and WSS of an attached monitor,
    for live processes only."""
    if (monitor := kernel.heat) is None:
        return
    regions = registry.gauge(
        "heat_monitoring_regions", "adaptive monitoring regions per process",
        labelnames=("process",))
    hot = registry.gauge(
        "heat_hot_regions",
        "monitoring regions above the hot-density threshold",
        labelnames=("process",))
    wss = registry.gauge(
        "heat_wss_pages",
        "monitoring-region working-set estimate in base pages",
        labelnames=("process",))
    # The monitor retires an exited process at its next sample; a
    # scrape in between must not publish it.
    pids = {proc.pid for proc in kernel.processes}
    live = set()
    for pid, state in monitor.procs.items():
        if pid in pids:
            live.add(state.name)
            regions.labels(process=state.name).set(len(state.regions))
            hot.labels(process=state.name).set(state.hot_regions())
            wss.labels(process=state.name).set(round(state.last_estimate, 2))
    for family in (regions, hot, wss):
        for name in [name for name in family.children if name not in live]:
            family.remove(name)


def section(kernel: "Kernel") -> dict:
    """The monitor snapshot, or ``{}`` until it has seen anything."""
    if kernel.heat is None:
        return {}
    snap = kernel.heat.snapshot()
    return snap if snap["samples"] or snap["processes"] else {}


def scalars(section: dict) -> dict[str, float]:
    """``heat.<process>.{regions,hot_regions,wss_p50,wss_p95,wss_p99}``."""
    out: dict[str, float] = {}
    for proc in section.get("processes") or ():
        name = proc.get("process")
        out[f"heat.{name}.regions"] = len(proc.get("regions") or ())
        out[f"heat.{name}.hot_regions"] = proc.get("hot_regions", 0)
        wss = proc.get("wss") or {}
        for p in ("p50", "p95", "p99"):
            if p in wss:
                out[f"heat.{name}.wss_{p}"] = wss[p]
    return out


def rows(section: dict) -> list[list]:
    """``[process, samples, regions, hot, wss p50, p95, p99]`` per process:
    the CLI and HTML table."""
    out = []
    for proc in section.get("processes") or ():
        wss = proc.get("wss") or {}
        out.append([proc.get("process"), proc.get("samples", 0),
                    len(proc.get("regions") or ()), proc.get("hot_regions", 0),
                    wss.get("p50", ""), wss.get("p95", ""), wss.get("p99", "")])
    return out


def ramp_char(value: float, vmax: float) -> str:
    """Map a value onto the terminal heat ramp (index 0 = exactly zero)."""
    if value <= 0 or vmax <= 0:
        return RAMP[0]
    level = 1 + int((len(RAMP) - 2) * min(value, vmax) / vmax)
    return RAMP[min(level, len(RAMP) - 1)]


def format_heatmap(proc_snap: dict, epochs: int | None = None,
                   matrix: str = "heat") -> str:
    """Render one process's spatial×temporal matrix as a block heatmap.

    ``matrix`` selects which ring to draw (``heat``, ``util``, ``huge``,
    ``bloat``); ``epochs`` keeps only the last N sample rows.
    """
    rows = proc_snap.get(matrix) or []
    t_s = proc_snap.get("t_s") or []
    wss_series = (proc_snap.get("wss") or {}).get("estimate") or []
    if epochs is not None:
        rows, t_s = rows[-epochs:], t_s[-epochs:]
    lo, hi = proc_snap.get("span", (0, 0))
    nb = proc_snap.get("bins", 0) or 1
    vmax = {"heat": float(PAGES_PER_HUGE), "util": 1.0, "huge": 1.0}.get(
        matrix, max((max(r) for r in rows if r), default=1.0) or 1.0)
    bin_bytes = max(1, hi - lo) * HUGE_PAGE_SIZE / nb
    head = (f"{matrix} — {proc_snap.get('process')} pid={proc_snap.get('pid')}"
            f"  span hvpn [{lo},{hi})  {nb} bins × {len(rows)} samples"
            f"  (1 col ≈ {bytes_human(bin_bytes)})")
    lines = [head]
    # wss series aligns with the *tail* of the matrix rows (same ring).
    wss_tail = wss_series[-len(rows):] if rows else []
    for i, row in enumerate(rows):
        cells = "".join(ramp_char(v, vmax) for v in row)
        t = f"{t_s[i]:>8.1f}s" if i < len(t_s) else " " * 9
        wss = (f"  wss={wss_tail[i]:>10.0f}p"
               if matrix == "heat" and i < len(wss_tail) else "")
        lines.append(f"{t} │{cells}│{wss}")
    lines.append(f"  scale: '{RAMP[0]}'=0 … '{RAMP[-1]}'≥{vmax:g}"
                 + ("  (pages accessed / region)" if matrix == "heat" else ""))
    return "\n".join(lines)


def format_regions(proc_snap: dict) -> str:
    """Render one process's monitoring regions as an aligned table."""
    from repro.metrics.tables import format_table

    rows = [
        (f"[{r['start']},{r['end']})", r["end"] - r["start"], r["sample"],
         r["ema"], r["density"], r["age"],
         "hot" if r["ema"] / max(r["end"] - r["start"], 1) >= HOT_DENSITY
         else "")
        for r in proc_snap.get("regions") or []
    ]
    title = (f"monitoring regions — {proc_snap.get('process')} "
             f"pid={proc_snap.get('pid')} "
             f"({len(rows)} regions, {proc_snap.get('hot_regions', 0)} hot)")
    return format_table(
        ["span_hvpn", "width", "sample", "ema", "density", "age", ""],
        rows, title=title)


def format_wss(proc_snap: dict) -> str:
    """Render the WSS percentile summary + estimate-vs-exact series."""
    from repro.metrics.tables import format_table

    wss = proc_snap.get("wss") or {}
    rows = list(zip(wss.get("t_s") or [], wss.get("estimate") or [],
                    wss.get("exact") or []))
    pct = ", ".join(f"{k}={wss[k]:,.0f}p" for k in ("p50", "p95", "p99")
                    if k in wss)
    title = (f"wss — {proc_snap.get('process')} "
             f"({wss.get('samples', 0)} samples"
             + (f"; {pct}" if pct else "") + ")")
    return format_table(["t_s", "estimate_pages", "exact_pages"], rows,
                        title=title)
