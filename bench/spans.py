"""Outside-in span recording for the traced pass.

:class:`SpanRecorder` replaces the public entry points of the
``src/repro`` modules listed in :data:`ENTRY_POINTS` with timing
wrappers, at class or module level, and puts the originals back on
:meth:`SpanRecorder.uninstall`.  Each call becomes one in-memory span
``(name, start, end, parent, ok)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``ok`` is 1 when an entry point whose
return value says whether it did anything returned non-None.  No simulator file changes.

Per-event hooks (``Tracer.emit``, ``AuditLog.decide``, buddy calls) are
deliberately *not* wrapped: they fire millions of times, and timing them
would cost more than the work they do.  The benchmark counts them from
the sweep's own telemetry artifacts instead.

A span's self time is its duration minus the durations of its direct
children; the layer of a span is the part of its name before the first
dot, named after the ``src/repro`` module it enters.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name, record "returned non-None").  The two
#: private ``Kernel`` methods are ``run_epoch``'s phase boundaries.
ENTRY_POINTS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.runner.scheduler", "execute_cell_with_telemetry", "runner.cell", False),
    ("repro.runner.registry", "execute_cell", "runner.execute", False),
    ("repro.metrics.telemetry", "end_capture", "runner.end_capture", False),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put", False),
    ("repro.experiments", "make_kernel", "setup.make_kernel", False),
    ("repro.mem.fragmentation", "Fragmenter.fragment", "setup.fragment", False),
    ("repro.kernel.kernel", "Kernel.run_epoch", "kernel.run_epoch", False),
    ("repro.kernel.kernel", "Kernel._run_kcompactd", "compaction.kcompactd", False),
    ("repro.kernel.kernel", "Kernel._sample_access_bits", "kernel.sample", False),
    ("repro.workloads.base", "WorkloadRun.step", "workloads.step", False),
    ("repro.kernel.kernel", "Kernel.fault_range", "fault.range", False),
    ("repro.kernel.kernel", "Kernel.fault", "fault.page", False),
    ("repro.kernel.kernel", "Kernel.madvise_free", "lifecycle.madvise_free", False),
    ("repro.kernel.kernel", "Kernel.exit_process", "lifecycle.exit", False),
    ("repro.kernel.kernel", "Kernel.spawn", "lifecycle.spawn", False),
    ("repro.mem.compaction", "Compactor.run", "compaction.run", False),
    ("repro.policies.base", "HugePagePolicy.on_epoch", "policy.on_epoch", False),
    ("repro.policies.linux", "LinuxTHPPolicy.on_epoch", "policy.on_epoch", False),
    ("repro.policies.ingens", "IngensPolicy.on_epoch", "policy.on_epoch", False),
    ("repro.core.hawkeye", "HawkEyePolicy.on_epoch", "policy.on_epoch", False),
    ("repro.policies.base", "HugePagePolicy.on_sample", "policy.on_sample", False),
    ("repro.policies.ingens", "IngensPolicy.on_sample", "policy.on_sample", False),
    ("repro.core.hawkeye", "HawkEyePolicy.on_sample", "policy.on_sample", False),
    ("repro.core.promotion", "PromotionEngine.run_epoch", "policy.promotion", False),
    ("repro.core.prezero", "PreZeroThread.run_epoch", "policy.prezero", False),
    ("repro.core.bloat", "BloatRecovery.run_epoch", "policy.bloat", False),
    ("repro.core.bloat", "BloatRecovery.emergency", "policy.bloat", False),
    ("repro.kernel.kernel", "Kernel.promote_region", "policy.promote", True),
    ("repro.kernel.kernel", "Kernel.demote_region", "policy.demote", False),
    ("repro.kernel.kernel", "Kernel.dedup_zero_pages", "policy.dedup", False),
    ("repro.tlb.mmu_model", "MMUModel.epoch", "tlb.mmu_epoch", False),
    ("repro.fleet.manager", "FleetManager.on_epoch", "fleet.on_epoch", False),
    ("repro.metrics.telemetry", "TelemetrySampler.on_epoch", "obs.scrape", False),
    ("repro.heat", "HeatMonitor.on_sample", "obs.heat", False),
)

#: name of the benchmark's own root span around one ``run_sweep``; its
#: self time is the traced wall no layer span covers.
ROOT = "sweep"


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the summed durations of its children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def layer_total_s(spans: list[list], layer: str) -> float:
    """Host time inside ``layer``: the summed durations of its spans that
    no other span of the same layer encloses."""
    total = 0.0
    for span in spans:
        if layer_of(span[0]) != layer:
            continue
        up = span[3]
        while up >= 0 and layer_of(spans[up][0]) != layer:
            up = spans[up][3]
        if up < 0:
            total += span[2] - span[1]
    return total


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``total_s``, ``self_s``, ``ok``."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.get(span[0])
        if entry is None:
            entry = out[span[0]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "ok": 0}
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
        if len(span) > 4 and span[4]:
            entry["ok"] += 1
    return out


def _resolve(module: str, attr: str):
    """``(owner, name)`` of a dotted attribute path inside ``module``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class SpanRecorder:
    """In-memory spans from class- and module-level entry-point wrappers.

    A traced fleet pass records ~10^5 spans.  They are kept in flat
    ``array`` columns, which the cyclic garbage collector does not scan,
    so recording them does not slow the simulator's own collections;
    :attr:`spans` turns them into ``(name, start, end, parent, ok)``
    tuples once the pass is over.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._oks = array("b")
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        """Every recorded span as ``(name, start, end, parent, ok)``."""
        return list(zip(self._names, self._starts, self._ends, self._parents,
                        self._oks))

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1])
        self._ends.append(0.0)
        self._oks.append(0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, record_ok: bool):
        # _open/_close inlined: this runs once per wrapped call.
        names, starts, ends = self._names, self._starts, self._ends
        parents, oks, stack = self._parents, self._oks, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            oks.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if record_ok and result is not None:
                oks[idx] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point (idempotent per recorder)."""
        if self._saved:
            return
        for module, attr, name, record_ok in ENTRY_POINTS:
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, record_ok))

    def uninstall(self) -> None:
        """Put every original entry point back, last wrapped first."""
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)


def write_chrome_trace(spans: list[list], path: Path, cell_names: list[str]) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto).

    Each ``runner.cell`` span and its descendants get their own track,
    labelled from ``cell_names`` in execution order; the sweep root and
    the cache writes between cells share track 0.
    """
    if not spans:
        return
    t0 = min(s[1] for s in spans)
    tids = [0] * len(spans)
    tracks = {0: ROOT}
    for i, span in enumerate(spans):
        if span[0] == "runner.cell":
            tids[i] = len(tracks)
            n = tids[i] - 1
            tracks[tids[i]] = cell_names[n] if n < len(cell_names) else f"cell {n}"
        elif span[3] >= 0:
            tids[i] = tids[span[3]]
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
               "args": {"name": label}} for tid, label in tracks.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    # Streamed one event at a time: a fleet pass has ~10^5 spans.
    with open(path, "w") as fh:
        fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        fh.write(",\n".join(json.dumps(e) for e in events))
        for s, tid in zip(spans, tids):
            fh.write(",\n" + json.dumps(
                {"name": s[0], "cat": layer_of(s[0]), "ph": "X", "pid": 1,
                 "tid": tid, "ts": round((s[1] - t0) * 1e6, 3),
                 "dur": round((s[2] - s[1]) * 1e6, 3)}))
        fh.write("\n]}\n")
