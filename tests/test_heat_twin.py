"""The column heat monitor against its per-process reference, row for row.

``tests/heat_reference.py`` keeps the spatial monitor as it ran before
its regions became kernel-wide columns.  These tests fold every access
sample into both and check, after each sample, that they agree on what
they publish -- the ``snapshot()`` JSON, the ``HEAT_WSS`` trace details
and the ``collect()`` gauges -- and on the unrounded state behind it:
every region's row and each process's WSS estimate and exact value, bit
for bit.  The gauges are checked again after every epoch, as a telemetry
scrape between samples (after exits) reads them.
"""

from __future__ import annotations

import json

from repro import heat, trace
from repro.metrics import telemetry
from repro.metrics.registry import MetricsRegistry
from repro.runner.registry import Cell, execute_cell_with_telemetry
from repro.units import MB, SEC
from tests.conftest import spawn_simple
from tests.heat_reference import ReferenceMonitor

GAUGES = ("heat_monitoring_regions", "heat_hot_regions", "heat_wss_pages")


def published_gauges(kernel) -> dict:
    """The ``heat_*`` gauges ``heat.collect`` publishes, by process."""
    registry = MetricsRegistry()
    heat.collect(registry, kernel)
    return {name: {label: child.value for label, child
                   in registry.gauge(name, labelnames=("process",))
                   .children.items()}
            for name in GAUGES}


class Twin:
    """Folds each of the monitor's samples into a reference, then compares.

    The reference runs inside the monitor's own ``on_sample`` (an
    instance attribute the kernel calls right after its access-bit
    scan), so both read the same kernel state: an epoch hook would run
    after the fleet manager's spawns and exits of that epoch.  The
    gauge check is an epoch hook.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.monitor = mon = kernel.heat
        self.ref = ReferenceMonitor(kernel, mon.nbins, mon.history,
                                    mon.min_regions, mon.max_regions,
                                    mon.merge_threshold)
        self.details: list[tuple[str, str]] = []
        self.seen: set[int] = set()
        self.max_regions = 0
        fold = mon.on_sample

        def on_sample(k) -> None:
            self.ref.on_sample(k)
            fold(k)
            self.check()

        mon.on_sample = on_sample
        if (tracer := kernel.trace) is not None:
            emit = tracer.emit

            def record(kind, process, span_us=0.0, page=None, detail=""):
                if kind is trace.TraceKind.HEAT_WSS:
                    self.details.append((process, detail))
                emit(kind, process, span_us, page, detail)

            tracer.emit = record
        kernel.epoch_hooks.append(self.check_gauges)

    def check_gauges(self, kernel) -> None:
        assert published_gauges(kernel) == self.ref.gauges(kernel)

    def check(self) -> None:
        mon, ref = self.monitor, self.ref
        assert json.dumps(mon.snapshot()) == json.dumps(ref.snapshot())
        if self.kernel.trace is not None:
            assert self.details == ref.details
        assert list(mon.owners) == list(ref.procs)
        cols, bounds = mon._cols(), mon._bounds()
        for k, (pid, owner) in enumerate(mon.owners.items()):
            state = ref.procs[pid]
            assert heat._rows(cols, bounds[k], bounds[k + 1]) == [
                [r.start, r.end, r.span, r.sample, r.ema, r.age]
                for r in state.regions]
            assert owner.estimate == state.last_estimate
            if owner.wss:
                assert owner.wss[-1][2] == state.last_exact
            self.max_regions = max(self.max_regions, len(state.regions))
        self.seen |= set(ref.procs)

    @property
    def retired(self) -> int:
        """Processes the monitors retired so far."""
        return len(self.seen - set(self.ref.procs))


def run_cell(monkeypatch, cell: Cell) -> list[Twin]:
    """Run a registry cell with capture armed (tracer, audit, heat)."""
    twins: list[Twin] = []
    autoattach = telemetry.autoattach

    def attach_twin(kernel) -> None:
        autoattach(kernel)
        twins.append(Twin(kernel))

    monkeypatch.setattr(telemetry, "autoattach", attach_twin)
    execute_cell_with_telemetry(cell)
    assert twins and all(t.ref.samples for t in twins)
    return twins


def test_fleet_churn_retires_past_the_cap(monkeypatch):
    (twin,) = run_cell(monkeypatch,
                       Cell("fleet-smoke", "arrival-smoke", "hawkeye-g"))
    assert twin.retired > heat.RETIRED_CAP
    assert len(twin.monitor.retired) == heat.RETIRED_CAP


def test_redis_with_audit_merges_splits_and_ages(monkeypatch):
    (twin,) = run_cell(monkeypatch, Cell("fig1", "redis-fig1", "hawkeye-g"))
    assert twin.max_regions > 1
    procs = twin.monitor.snapshot()["processes"]
    assert any(row is not None and max(row) >= 0
               for proc in procs for row in proc["alloc_age"])
    assert any(max(row) > 0 for proc in procs for row in proc["huge"])


def test_two_node_numa_rows(monkeypatch):
    (twin,) = run_cell(monkeypatch,
                       Cell("numa", "balanced-2", "hawkeye-g"))
    procs = twin.monitor.snapshot()["processes"]
    assert any(row is not None and max(row) >= 0
               for proc in procs for row in proc["node"])


def test_mmap_growth_restarts_the_rings(kernel_hawkeye):
    """A second VMA moves the spatial axis: both monitors restart their
    matrix rings at the same sample."""
    from repro.workloads.base import (AccessProfile, MmapOp, Phase,
                                      RegionAccessSpec, TouchOp, Workload)

    def compute(vma: str) -> Phase:
        return Phase("compute", work_us=70 * SEC, profile=AccessProfile(
            specs=[RegionAccessSpec(vma, coverage=256)], access_rate=30.0))

    class Growing(Workload):
        name = "grow"

        def build_phases(self):
            return [Phase("a", ops=[MmapOp("a", 6 * MB), TouchOp("a")]),
                    compute("a"),
                    Phase("b", ops=[MmapOp("b", 10 * MB), TouchOp("b")]),
                    compute("b")]

    heat.attach(kernel_hawkeye)
    twin = Twin(kernel_hawkeye)
    kernel_hawkeye.spawn(Growing())
    spawn_simple(kernel_hawkeye, heap_mb=2, work_s=200.0)
    kernel_hawkeye.run(max_epochs=600)
    (proc,) = [p for p in twin.monitor.snapshot()["processes"]
               if p["process"] == "grow"]
    assert len(proc["t_s"]) < proc["samples"]       # the rings restarted
    assert proc["span"][1] - proc["span"][0] > 3    # on the grown axis


def test_rounding_ties_round_as_python_does(kernel_hawkeye):
    """Values on a decimal tie: a 200-hvpn region holding 3 sampled pages
    has density and heat 0.015 (Python rounds it to 0.01, numpy's
    ``round`` to 0.02), and 256 resident pages in 200 regions give a
    utilization of 0.0025."""
    config = dict(nbins=1, min_regions=1, max_regions=1)
    mon = heat.attach(kernel_hawkeye, **config)
    twin = Twin(kernel_hawkeye)
    run = spawn_simple(kernel_hawkeye, heap_mb=1)
    proc = run.proc
    vma = kernel_hawkeye.mmap(proc, 400 * MB, "sparse")
    hvpns = range(vma.start >> 9, vma.end >> 9)
    assert len(hvpns) == 200
    table = proc.regions
    for i, hv in enumerate(hvpns):
        slot = table.ensure(hv)
        proc.page_table.hcount[hv] = 2 if i < 56 else 1
        table.last_coverage[slot] = 1 if i < 3 else 0
    mon.on_sample(kernel_hawkeye)
    (snap,) = mon.snapshot()["processes"]
    assert snap["regions"][0]["density"] == 0.01
    assert snap["heat"] == [[0.01]]
    assert twin.ref.samples == 1
