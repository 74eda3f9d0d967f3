"""Per-process heat monitoring: the reference twin of :mod:`repro.heat`.

This is the spatial monitor as it ran before the monitoring regions
became kernel-wide columns: one :class:`ProcessHeat` per process, its
regions as :class:`Region` objects, reshaped one region at a time, and
its matrix rows built per process and rounded as they are recorded.  It
is kept as an executable specification: ``tests/test_heat_twin.py``
drives it beside the column monitor and asserts that both produce the
same snapshot, ``HEAT_WSS`` trace details and published gauges, the way
:mod:`repro.oracle`'s loops serve the vectorized kernel paths.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.heat import HOT_DENSITY, RETIRED_CAP
from repro.trace import LatencyHistogram
from repro.units import PAGES_PER_HUGE, SEC


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

    def __init__(self, proc, nbins: int, history: int,
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
        self.last_exact = 0.0
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

    def on_sample(self, kernel, proc, alpha: float) -> None:
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
        self.last_exact = exact
        self.samples += 1

    def _record_matrices(self, kernel, proc, h: np.ndarray,
                         w: np.ndarray) -> None:
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


class ReferenceMonitor:
    """Per-kernel reference monitor: one :class:`ProcessHeat` per process.

    ``on_sample`` is the per-process loop of the former
    ``HeatMonitor.on_sample``; instead of emitting ``HEAT_WSS``
    tracepoints it appends each ``(process, detail)`` pair to
    :attr:`details`, and :meth:`gauges` returns what ``heat.collect``
    published for the live processes.
    """

    def __init__(self, kernel, nbins: int, history: int, min_regions: int,
                 max_regions: int, merge_threshold: float) -> None:
        self.kernel = kernel
        self.nbins = nbins
        self.history = history
        self.min_regions = min_regions
        self.max_regions = max_regions
        self.merge_threshold = merge_threshold
        self.procs: dict[int, ProcessHeat] = {}
        self._retired: deque[ProcessHeat] = deque(maxlen=RETIRED_CAP)
        self.samples = 0
        self.details: list[tuple[str, str]] = []

    def on_sample(self, kernel) -> None:
        """Fold the access-bit sample the kernel just took."""
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
        for state in self.procs.values():
            self.details.append((
                state.name,
                f"wss_pages={state.last_estimate:.1f};"
                f"hot_regions={state.hot_regions()};"
                f"regions={len(state.regions)}"))

    def gauges(self, kernel) -> dict[str, dict]:
        """``heat_*`` gauge values by process name, live processes only."""
        pids = {proc.pid for proc in kernel.processes}
        out: dict[str, dict] = {"heat_monitoring_regions": {},
                                "heat_hot_regions": {}, "heat_wss_pages": {}}
        for pid, state in self.procs.items():
            if pid in pids:
                out["heat_monitoring_regions"][state.name] = len(state.regions)
                out["heat_hot_regions"][state.name] = state.hot_regions()
                out["heat_wss_pages"][state.name] = round(state.last_estimate, 2)
        return out

    def snapshot(self) -> dict:
        """Live processes (by pid) then retired ones, as ``HeatMonitor``."""
        return {
            "samples": self.samples,
            "processes": [self.procs[pid].snapshot()
                          for pid in sorted(self.procs)]
            + [state.snapshot() for state in self._retired],
        }
