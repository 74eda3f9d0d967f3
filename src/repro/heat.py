"""DAMON-style spatial access monitoring: adaptive regions and heatmaps.

The aggregate observers (trace, telemetry, audit) say how much time
promotion cost, not **where** in an address space the hot pages, huge
mappings or bloat live over time.  A :class:`HeatMonitor` answers that
the way Linux's DAMON does, folding each access-bit sample (the region
tables ``Kernel._sample_access_bits`` just wrote) into, per process,

1. **adaptive monitoring regions** — ``[start, end)`` hvpn spans that
   exactly partition the VMA extents.  Adjacent regions of one VMA whose
   densities differ by at most :data:`MERGE_THRESHOLD` merge; under half
   the :data:`MAX_REGIONS` budget, regions split at the midpoint
   (deterministic, so serial and pooled sweeps agree).  Sampled counts
   are conserved exactly and EMAs split in proportion;
2. **spatial × temporal matrices** — the span on at most :data:`NBINS`
   bins, one row per sample for :data:`HISTORY` samples: access heat,
   huge-page share, utilization, bloat (zero-filled base pages under
   huge mappings), NUMA node and mean allocation epoch (``repro.audit``);
3. **WSS percentiles** — the region-EMA working-set estimate, beside the
   exact :class:`~repro.core.wss.WSSEstimator` value as a cross-check.

**One column store per kernel.**  Every live process's regions are rows
of one set of numpy columns (:data:`FIELDS`), grouped by owner in
first-seen order.  A sample is one pass: the region-table gathers are
concatenated, sorted once by (owner, hvpn) and prefix-summed; a region's
sum is two ``searchsorted`` lookups of composite keys; EMA and age update
elementwise; each matrix row of every owner comes from one ``bincount``
or gather keyed by per-owner bin offsets.  Reshaping runs, sequentially,
only for owners whose layout can change: a new span set, more than one
region or a region wider than one hvpn.  Values are rounded (Python's
``round``) only by :meth:`HeatMonitor.snapshot`, and per-owner float
totals are sequential Python sums, so every published byte is the one a
per-process fold gives (``tests/heat_reference.py`` keeps one).

Unattached, a sample costs one ``kernel.heat is not None`` test; ``repro
bench touch|epoch`` hold an attached, paused monitor under 5 %.  The
monitor never charges simulated time or mutates kernel state::

    mon = heat.attach(kernel)
    ... run the workload ...
    print(heat.format_heatmap(mon.snapshot()["processes"][0]))
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

#: The monitoring-region columns: the ``[start, end)`` hvpn span, the
#: index of the VMA span holding it, the sum of last sampled coverage
#: over it (resident regions only), that sum's EMA with the kernel's
#: ``ema_alpha``, and samples since it last changed shape (DAMON's age).
#: A region *row* is a list of these, in this order.
FIELDS = ("start", "end", "span", "sample", "ema", "age")
_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64, np.int64)


# -- region reshaping: one owner's rows, sequentially ------------------


def _density(row: list) -> float:
    """Sampled pages per huge-region slot (0..512) of one region row."""
    width = row[1] - row[0]
    return row[3] / width if width else 0.0


def _absorb(a: list, b: list) -> None:
    """Merge region row ``b`` into its left neighbour ``a``."""
    a[1] = b[1]
    a[3] += b[3]
    a[4] += b[4]
    a[5] = min(a[5], b[5])


def _sync_spans(rows: list[list], spans: tuple) -> list[list]:
    """Re-partition region rows onto a new VMA span set, keeping state.

    Old rows are clipped into the new spans; any uncovered gap inside a
    span becomes a fresh zero-state row, so the rows exactly partition
    the spans by construction.
    """
    out: list[list] = []
    for si, (lo, hi) in enumerate(spans):
        cursor = lo
        for r in rows:
            s, e = max(r[0], cursor), min(r[1], hi)
            if s >= e:
                continue
            if s > cursor:
                out.append([cursor, s, si, 0, 0.0, 0])
            if (s, e) == (r[0], r[1]):
                r[2] = si
                out.append(r)
            else:
                # clipped: scale the conserved quantities by overlap.
                frac = (e - s) / (r[1] - r[0])
                out.append([s, e, si, int(r[3] * frac), r[4] * frac, 0])
            cursor = e
        if cursor < hi:
            out.append([cursor, hi, si, 0, 0.0, 0])
    return out


def _reshape(rows: list[list], sh: np.ndarray, cum: np.ndarray,
             min_regions: int, max_regions: int,
             merge_threshold: float) -> list[list]:
    """Merge, enforce the budget, then midpoint-split one owner's rows.

    Adjacent same-span rows within ``merge_threshold`` density merge;
    over budget, the most similar adjacent same-span pair merges (lowest
    address on ties; floor one row per span); under half the budget,
    rows two or more hvpns wide split at the midpoint, the left sum from
    the sample's sorted hvpns ``sh`` and prefix sums ``cum``.
    """
    if len(rows) > 1:
        out = [rows[0]]
        for r in rows[1:]:
            last = out[-1]
            if (r[2] == last[2]
                    and abs(_density(r) - _density(last)) <= merge_threshold):
                _absorb(last, r)
            else:
                out.append(r)
        rows = out
    while len(rows) > max_regions:
        pairs = [(abs(_density(a) - _density(b)), i)
                 for i, (a, b) in enumerate(zip(rows, rows[1:]))
                 if a[2] == b[2]]
        if not pairs:
            break
        i = min(pairs)[1]
        _absorb(rows[i], rows.pop(i + 1))
    if len(rows) >= max(min_regions, max_regions // 2):
        return rows
    out = []
    room = max_regions - len(rows)
    for r in rows:
        start, end, span, sample, ema, age = r
        width = end - start
        if room <= 0 or width < 2:
            out.append(r)
            continue
        mid = start + width // 2
        left = int(cum[np.searchsorted(sh, mid)]
                   - cum[np.searchsorted(sh, start)])
        left_ema = ema * (left / sample if sample > 0
                          else (mid - start) / width)
        out.append([start, mid, span, left, left_ema, age])
        out.append([mid, end, span, sample - left, ema - left_ema, age])
        room -= 1
    return out


def _rows(cols: list, a: int, b: int) -> list[list]:
    """Rows ``[a, b)`` of the region columns as mutable region rows."""
    return [list(r) for r in zip(*(col[a:b].tolist() for col in cols))]


def _cat(parts: list, dtype=np.int64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


# -- the monitor -------------------------------------------------------


class _Owner:
    """A monitored process: span set, last counts, matrix and WSS rings.
    Once it retires, ``regions`` is ``(columns, a, b)``: where its rows
    were (columns are replaced, never written in place)."""

    __slots__ = ("pid", "name", "spans", "axis", "nregions", "hot",
                 "estimate", "samples", "finished", "rows", "wss",
                 "wss_hist", "regions")

    def __init__(self, pid: int, name: str, history: int) -> None:
        self.pid, self.name = pid, name
        #: the hvpn spans the regions partition; the matrix rows' axis.
        self.spans: tuple = ()
        self.axis: Optional[tuple[int, int, int]] = None
        self.nregions = self.hot = self.samples = 0
        self.estimate, self.finished = 0.0, False
        #: unrounded per sample: (t_s, epoch, heat/util/huge/alloc-age/
        #: bloat/node lists, node shown, age shown); (t_s, est, exact).
        self.rows: deque = deque(maxlen=history)
        self.wss: deque = deque(maxlen=history)
        self.wss_hist = LatencyHistogram()
        self.regions: Optional[tuple] = None


class HeatMonitor:
    """Per-kernel spatial monitor: every live process's monitoring regions
    as rows of one set of columns, folded in one pass per sample."""

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
        #: live owners by pid, in first-seen order (the column order),
        #: and the last :data:`RETIRED_CAP` exited ones, snapshotted lazily.
        self.owners: dict[int, _Owner] = {}
        self._retired: deque[_Owner] = deque(maxlen=RETIRED_CAP)
        self.samples = 0
        #: the region columns and each live owner's row count.
        for name, dtype in zip(FIELDS, _DTYPES):
            setattr(self, name, np.zeros(0, dtype=dtype))
        self._counts = _cat([])

    def _cols(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in FIELDS]

    def _bounds(self) -> list[int]:
        """Row offsets: owner k holds rows ``[b[k], b[k + 1])``."""
        return [0, *np.cumsum(self._counts).tolist()]

    def _splice(self, segs: list) -> None:
        """Rebuild the columns from one segment per owner, in owner order:
        an ``(a, b)`` range of the current rows or a list of new rows."""
        new = [row for seg in segs if isinstance(seg, list) for row in seg]
        fresh = [np.array(col, dtype=dtype)
                 for col, dtype in zip(zip(*new), _DTYPES)]
        old, pieces, at = self._cols(), [], 0
        for seg in segs:
            if isinstance(seg, list):
                pieces.append((fresh, at, at + len(seg)))
                at += len(seg)
            else:
                pieces.append((old, *seg))
        for i, (name, dtype) in enumerate(zip(FIELDS, _DTYPES)):
            setattr(self, name, _cat([src[i][a:b] for src, a, b in pieces
                                      if b > a], dtype))
        self._counts = np.array([b - a for _, a, b in pieces], dtype=np.int64)

    # -- sampling ----------------------------------------------------------#

    def on_sample(self, kernel: "Kernel") -> None:
        """Fold the access-bit sample the kernel just took (epoch hook)."""
        owners, plist = self._sync({p.pid: p for p in kernel.processes})
        self._record(kernel, owners, plist,
                     self._fold(kernel.config.ema_alpha, plist))
        self.samples += 1
        # WSS doubles as a zero-span tracepoint per process: a counter
        # track in the Perfetto export, a `heat` row in attribution.
        if (tp := kernel.trace) is not None and tp.enabled:
            for owner in owners:
                tp.emit(trace.TraceKind.HEAT_WSS, owner.name, 0.0, None,
                        f"wss_pages={owner.estimate:.1f};"
                        f"hot_regions={owner.hot};regions={owner.nregions}")

    def _sync(self, procs: dict) -> tuple[list, list]:
        """Retire exited owners, add new ones, follow VMA-layout changes;
        returns the live owners and their processes, in owner order."""
        cols, bounds = self._cols(), self._bounds()
        segs: list = []
        for k, owner in enumerate(list(self.owners.values())):
            if owner.pid in procs:
                segs.append((bounds[k], bounds[k + 1]))
                continue
            del self.owners[owner.pid]
            owner.finished = True
            owner.regions = (cols, bounds[k], bounds[k + 1])
            self._retired.append(owner)
        for pid, proc in procs.items():
            if pid not in self.owners:
                self.owners[pid] = _Owner(pid, proc.name, self.history)
                segs.append([])
        owners = list(self.owners.values())
        plist = [procs[owner.pid] for owner in owners]
        for k, (owner, proc) in enumerate(zip(owners, plist)):
            spans = tuple((v.start >> 9,
                           (v.start + v.npages + PAGES_PER_HUGE - 1) >> 9)
                          for v in proc.vmas if v.npages > 0)
            if spans == owner.spans:
                continue
            owner.spans = spans
            rows = segs[k] if isinstance(segs[k], list) else _rows(cols, *segs[k])
            segs[k] = _sync_spans(rows, spans)
            if spans:  # ascending, as the VMAs are sorted and disjoint
                lo, hi = spans[0][0], spans[-1][1]
                axis = (lo, hi, max(1, min(self.nbins, hi - lo)))
                if axis != owner.axis:
                    # the axis moved (VMA growth): restart the matrix rows
                    owner.axis = axis
                    owner.rows.clear()
        if len(segs) != len(self._counts) or any(
                isinstance(seg, list) for seg in segs):
            self._splice(segs)
        return owners, plist

    def _fold(self, alpha: float, plist: list) -> tuple:
        """Sums, EMA and age of every region; reshape where it can change.
        Returns the owners' concatenated region-table gather (hvpns, weights,
        residency, huge frames, coverage EMAs, slot owner, slot counts)."""
        counts = self._counts.tolist()
        hs, lcs, res, hfs, covs, nslot = [], [], [], [], [], []
        for proc, c in zip(plist, counts):
            table = proc.regions
            n = table.n if c else 0
            nslot.append(n)
            if n:
                h = table.hvpn[:n]
                hs.append(h)
                lcs.append(table.last_coverage[:n])
                res.append(proc.page_table.hcount[h])
                hfs.append(proc.page_table.hframe[h])
                covs.append(table.coverage_ema[:n])
        h, resident = _cat(hs), _cat(res)
        w = np.where(resident > 0, _cat(lcs), 0)
        so = np.repeat(np.arange(len(plist)), nslot)
        ro = np.repeat(np.arange(len(plist)), counts)
        # one stable sort by (owner, hvpn) and one prefix sum: a region's
        # sum is two lookups of its composite bounds.
        stride = int(max(h.max(initial=0), self.end.max(initial=0))) + 1
        key = so * stride + h
        order = np.argsort(key, kind="stable")
        sk = key[order]
        cum = np.concatenate(([0], np.cumsum(w[order])))
        sums = (cum[np.searchsorted(sk, ro * stride + self.end)]
                - cum[np.searchsorted(sk, ro * stride + self.start)])
        self.sample = sums
        self.ema = alpha * sums + (1.0 - alpha) * self.ema
        self.age = self.age + 1
        wide = np.bincount(ro[self.end - self.start >= 2],
                           minlength=len(plist))
        reshape = np.flatnonzero((self._counts > 1) | (wide > 0)).tolist()
        if reshape:
            bounds, cols = self._bounds(), self._cols()
            soff = [0, *np.cumsum(nslot).tolist()]
            segs: list = list(zip(bounds, bounds[1:]))
            for k in reshape:
                segs[k] = _reshape(_rows(cols, *segs[k]),
                                   sk[soff[k]:soff[k + 1]] - k * stride,
                                   cum[soff[k]:soff[k + 1] + 1],
                                   self.min_regions, self.max_regions,
                                   self.merge_threshold)
            self._splice(segs)
        return (h, w, resident, _cat(hfs), _cat(covs, np.float64), so,
                nslot)

    def _record(self, kernel: "Kernel", owners: list, plist: list,
                gather: tuple) -> None:
        """Matrix rows, WSS and region counts of every owner."""
        h, w, resident, hf, cov, so, nslot = gather
        counts = self._counts.tolist()
        lo_k, hi_k, nb_k = np.array(
            [o.axis if c else (0, 1, 0) for o, c in zip(owners, counts)],
            dtype=np.int64).reshape(-1, 3).T
        span_k = hi_k - lo_k
        boff = np.concatenate(([0], np.cumsum(nb_k)))
        total = int(boff[-1])
        snb = nb_k[so]
        gbin = boff[so] + np.clip((h - lo_k[so]) * snb // span_k[so],
                                  0, snb - 1)
        denom = np.maximum(np.bincount(gbin, minlength=total), 1)
        # all owners' heat/util/huge/alloc-age/bloat/node rows; k's from boff[k]
        mat = np.zeros((6, total))
        mat[0] = np.bincount(gbin, weights=w, minlength=total) / denom
        mat[1] = (np.bincount(gbin, weights=resident, minlength=total)
                  / (denom * PAGES_PER_HUGE))
        mat[2] = np.bincount(gbin, weights=hf >= 0, minlength=total) / denom
        # bloat: zero-filled base frames under the span's huge mappings
        # (every huge mapping has a region record: faults and promotion
        # create it first).
        huge = np.flatnonzero((hf >= 0) & (h >= lo_k[so]) & (h < hi_k[so]))
        block = hf[huge][:, None] + np.arange(PAGES_PER_HUGE)
        mat[4] = np.bincount(gbin[huge], minlength=total, weights=(
            kernel.frames.first_nonzero[block] < 0).sum(axis=1))
        numa, audit_log = kernel.numa, kernel.audit
        soff = np.cumsum(nslot)[:-1]
        if numa is not None:
            nodes = _cat([numa.region_nodes_arr(proc, hh) for proc, hh
                          in zip(plist, np.split(h, soff)) if hh.size])
            ok = nodes >= 0
            per = np.bincount(gbin[ok] * numa.nodes + nodes[ok],
                              minlength=total * numa.nodes).reshape(total, -1)
            mat[5] = np.where(per.sum(axis=1) > 0, per.argmax(axis=1), -1)
        if audit_log is not None:
            # a region's allocation epoch is its huge frame's, else its
            # first base-mapped page's.
            v0 = h << 9
            size = np.repeat([proc.page_table.frame.shape[0]
                              for proc in plist], nslot)
            first = _cat([proc.page_table.frame.take(vv, mode="clip")
                          for proc, vv in zip(plist, np.split(v0, soff))
                          if vv.size])
            frames = np.where(hf >= 0, hf, np.where(v0 < size, first, -1))
            for s in np.flatnonzero(frames < 0).tolist():
                mframes, _ = plist[so[s]].page_table.region_mirror(h.item(s))
                mapped = mframes[mframes >= 0]
                if mapped.size:
                    frames[s] = mapped[0]
            epochs = audit_log.ledger.alloc_epoch[frames]
            ok = (frames >= 0) & (epochs >= 0)
            n_age = np.bincount(gbin[ok], minlength=total)
            mat[3] = np.where(n_age > 0, np.bincount(
                gbin[ok], weights=epochs[ok], minlength=total)
                / np.maximum(n_age, 1), -1.0)
        # per-owner totals stay sequential Python sums: the estimate in
        # region order, the exact WSS in region-table slot order.
        ro = np.repeat(np.arange(len(owners)), counts)
        hot = np.bincount(ro[self.ema / (self.end - self.start)
                             >= HOT_DENSITY], minlength=len(owners))
        ema, exact = self.ema.tolist(), cov[resident > 0].tolist()
        eoff = [0, *np.cumsum(np.bincount(so[resident > 0],
                                          minlength=len(owners))).tolist()]
        bounds, b = self._bounds(), boff.tolist()
        t_s, epoch = kernel.now_us / SEC, kernel.stats.epochs
        for k, (owner, n) in enumerate(zip(owners, hot.tolist())):
            owner.nregions, owner.hot = counts[k], n
            if not counts[k]:
                continue
            owner.rows.append((t_s, epoch, mat[:, b[k]:b[k + 1]].tolist(),
                               numa is not None and nslot[k] > 0,
                               audit_log is not None and nslot[k] > 0))
            est = sum(ema[bounds[k]:bounds[k + 1]])
            owner.estimate = est
            owner.wss_hist.add(est)
            owner.wss.append((t_s, est, sum(exact[eoff[k]:eoff[k + 1]])))
            owner.samples += 1

    # -- queries ---------------------------------------------------------#

    def _snapshot(self, owner: _Owner, regions: list[list]) -> dict:
        """One owner's JSON-able state; the only place values are rounded."""
        lo, hi, nb = owner.axis if owner.axis else (0, 0, 0)
        mats = [m for _, _, m, _, _ in owner.rows]
        wss: dict = {"t_s": [round(t, 3) for t, _, _ in owner.wss],
                     "estimate": [round(e, 2) for _, e, _ in owner.wss],
                     "exact": [round(x, 2) for _, _, x in owner.wss],
                     "samples": owner.wss_hist.count}
        if owner.wss_hist.count:
            wss.update({k: round(v, 2)
                        for k, v in owner.wss_hist.percentiles().items()})
        return {
            "process": owner.name,
            "pid": owner.pid,
            "finished": owner.finished,
            "samples": owner.samples,
            "span": [lo, hi],
            "bins": nb,
            "t_s": [round(r[0], 3) for r in owner.rows],
            "epoch": [r[1] for r in owner.rows],
            "heat": [[round(v, 2) for v in m[0]] for m in mats],
            "util": [[round(v, 3) for v in m[1]] for m in mats],
            "huge": [[round(v, 3) for v in m[2]] for m in mats],
            "bloat": [[int(v) for v in m[4]] for m in mats],
            "node": [[int(v) for v in m[5]] if r[3] else None
                     for r, m in zip(owner.rows, mats)],
            "alloc_age": [[round(v, 1) for v in m[3]] if r[4] else None
                          for r, m in zip(owner.rows, mats)],
            "regions": [{"start": s, "end": e, "sample": n,
                         "ema": round(ema, 3),
                         "density": round(n / (e - s) if e - s else 0.0, 2),
                         "age": age} for s, e, _, n, ema, age in regions],
            "hot_regions": owner.hot,
            "wss": wss,
        }

    def process_snapshot(self, pid: int) -> dict:
        """The JSON-able state of live process ``pid``."""
        k = list(self.owners).index(pid)
        b = self._bounds()
        return self._snapshot(self.owners[pid], _rows(self._cols(), *b[k:k + 2]))

    @property
    def retired(self) -> list[dict]:
        """Final snapshots of exited processes, oldest first."""
        return [self._snapshot(owner, _rows(*owner.regions))
                for owner in self._retired]

    def snapshot(self) -> dict:
        """JSON-able monitor state: live processes (by pid) then retired."""
        return {"samples": self.samples,
                "processes": [self.process_snapshot(pid)
                              for pid in sorted(self.owners)] + self.retired}


# -- attachment (mirrors repro.trace / repro.audit) --------------------


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


# -- publication: families, artifact section, scalars, rows, rendering ---

#: the heat section's key in a telemetry artifact.
SECTION = "heat"


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish per-process region counts and WSS of an attached monitor,
    for live processes only."""
    if (monitor := kernel.heat) is None:
        return
    families = [registry.gauge(name, help, labelnames=("process",))
                for name, help in (
        ("heat_monitoring_regions", "adaptive monitoring regions per process"),
        ("heat_hot_regions",
         "monitoring regions above the hot-density threshold"),
        ("heat_wss_pages",
         "monitoring-region working-set estimate in base pages"))]
    # The counts are the last sample's: nothing else changes them.  The
    # monitor retires an exited process at its next sample; a scrape in
    # between must not publish it.
    pids = {proc.pid for proc in kernel.processes}
    live = set()
    for pid, owner in monitor.owners.items():
        if pid in pids:
            live.add(owner.name)
            for family, value in zip(families, (owner.nregions, owner.hot,
                                                round(owner.estimate, 2))):
                family.labels(process=owner.name).set(value)
    for family in families:
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


def format_region(proc_snap: dict, hvpn: int, matrix: str = "heat",
                  epochs: int | None = None) -> str:
    """Render the monitoring region covering ``hvpn`` and the time series
    of its spatial bin in ``matrix`` (the last ``epochs`` samples)."""
    from repro.metrics.tables import format_table

    lo, hi = proc_snap.get("span", (0, 0))
    region = next((r for r in proc_snap.get("regions") or []
                   if r["start"] <= hvpn < r["end"]), None)
    if region is None:
        return (f"hvpn {hvpn} is outside "
                f"{proc_snap.get('process')}'s monitored span [{lo},{hi})")
    out = [format_table(
        ["span_hvpn", "width", "sample", "ema", "density", "age"],
        [[f"[{region['start']},{region['end']})",
          region["end"] - region["start"], region["sample"],
          region["ema"], region["density"], region["age"]]],
        title=f"monitoring region covering hvpn {hvpn} — "
              f"{proc_snap.get('process')}")]
    nb = proc_snap.get("bins") or 1
    if hi > lo:
        col = min(nb - 1, (hvpn - lo) * nb // (hi - lo))
        rows = [[t, row[col]] for t, row in zip(proc_snap.get("t_s") or [],
                                                proc_snap.get(matrix) or [])
                if col < len(row)]
        if epochs is not None:
            rows = rows[-epochs:]
        out.append(format_table(["t_s", matrix], rows,
                                title=f"bin {col} ({matrix}) over time"))
    return "\n".join(out)


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
