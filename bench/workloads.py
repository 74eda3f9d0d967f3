"""The benchmark's four workloads and the seeded experiment bodies they run.

Each body below is a copy of a stock ``repro.runner.adapters`` (or
``repro.fleet.experiment``) body built from public simulator APIs, with
two additions:

* the workload seed reaches the three sources of randomness the paper
  grids have — the fragmenter (``7 + seed``), every ``FreeOp`` of the
  spawned run (``11 + seed``) and the fleet manager
  (``crc32("fleet/<case>/<policy>") + seed``) — so seed 0 reproduces the
  registry cells byte for byte and any other seed gives new inputs;
* each body times its own set-up (everything before the first epoch)
  and its epoch loop into a :class:`CellTimer`, outside the returned
  result, so the sweep path stays exactly the one users run.

The bodies are registered under ``bench-<experiment>`` names with the
public :func:`repro.runner.registry.register`, then driven through
``run_sweep`` like any other grid.
"""

from __future__ import annotations

import functools
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro import experiments
from repro.errors import OutOfMemoryError
from repro.fleet.experiment import (
    BASE_RATE_PER_S,
    BATCH_GROUP_CAP,
    FLEET_LIFETIMES,
    FLEET_MEM_FULL,
    drive_fleet,
    fleet_result,
)
from repro.fleet.manager import FleetManager, FleetSpec
from repro.mem.fragmentation import Fragmenter
from repro.metrics.series import SeriesRecorder
from repro.runner.adapters import FIG5_WORK_S, TAB1_GAP_US, TAB1_ROUNDS
from repro.runner.registry import Cell, register
from repro.units import GB, MB, SEC
from repro.workloads.base import FreeOp
from repro.workloads.microbench import AllocTouchFree
from repro.workloads.npb import NPBWorkload
from repro.workloads.redis import RedisBulkInsert, RedisFig1
from repro.workloads.sparsehash import SparseHash
from repro.workloads.xsbench import XSBench


@dataclass(frozen=True)
class BenchWorkload:
    """One named grid of cells run back to back through ``run_sweep``."""

    name: str
    why: str
    #: (stock experiment, case, policy) grid points.
    points: tuple[tuple[str, str, str], ...]
    #: scale divisor of the measured runs.
    scale: int
    #: scale divisor of ``--quick`` (CI-sized, seconds for the whole set).
    quick_scale: int

    def cells(self, quick: bool = False) -> list[Cell]:
        """The workload's cells, under their ``bench-`` experiment names."""
        scale = self.quick_scale if quick else self.scale
        return [Cell(f"bench-{exp}", case, policy, scale)
                for exp, case, policy in self.points]


WORKLOADS: dict[str, BenchWorkload] = {w.name: w for w in (
    BenchWorkload(
        "fault-storm",
        "base-page fault storms: batched fault_range, pre-zeroing and trace "
        "emission; no compaction, fragmentation, sampling or fleet",
        (("tab1", "alloc-touch-free", "linux-4kb"),
         ("tab1", "alloc-touch-free", "hawkeye-4kb"),
         ("tab8", "redis-bulk", "linux-4kb"),
         ("tab8", "sparsehash", "linux-4kb")),
        scale=64, quick_scale=512),
    BenchWorkload(
        "frag-promote",
        "fragmented-start promotion race: fragment() set-up, kcompactd "
        "compaction and promote_region; few, bulk faults",
        tuple(("fig5", case, policy)
              for case in ("cg.D", "xsbench")
              for policy in ("hawkeye-g", "ingens-90", "linux-2mb")),
        scale=1024, quick_scale=4096),
    BenchWorkload(
        "bloat-churn",
        "sparse frees, compaction of the holes, bloat recovery, demotion "
        "and zero-page dedup: the unmap side of the memory layers",
        tuple(("fig1", "redis-fig1", policy)
              for policy in ("hawkeye-g", "ingens-90", "linux-2mb")),
        scale=256, quick_scale=1024),
    BenchWorkload(
        "fleet-churn",
        "100+ tenants with spawn/exit churn: per-page faults, exit_process, "
        "stepping idle tenants, the OOM killer and large telemetry",
        tuple(("fleet", case, policy)
              for case in ("arrival-2x", "arrival-4x")
              for policy in ("hawkeye-g", "linux-2mb")),
        scale=2048, quick_scale=8192),
)}


# ---------------------------------------------------------------------- #
# host-time split of each cell                                            #
# ---------------------------------------------------------------------- #


@dataclass
class CellTiming:
    """Host time of one cell: set-up, epoch loop, simulated time advanced."""

    setup_s: float = 0.0
    loop_s: float = 0.0
    sim_s: float = 0.0


class CellTimer:
    """Collects one :class:`CellTiming` per executed bench cell.

    ``spans`` is a :class:`bench.spans.SpanRecorder` during the traced
    pass; the set-up and loop phases then also become spans, so the
    layer calls they make nest under them.
    """

    def __init__(self) -> None:
        self.cells: list[CellTiming] = []
        self.spans = None

    def reset(self) -> None:
        """Forget the cells of the previous pass."""
        self.cells = []

    def _span(self, name: str):
        return self.spans.span(name) if self.spans is not None else nullcontext()

    @contextmanager
    def setup(self):
        """Time everything before the cell's first epoch."""
        timing = CellTiming()
        self.cells.append(timing)
        with self._span("setup.cell"):
            start = time.perf_counter()
            try:
                yield
            finally:
                timing.setup_s = time.perf_counter() - start

    @contextmanager
    def loop(self, kernel):
        """Time the epoch loop and the simulated time it advances."""
        timing = self.cells[-1]
        sim_start = kernel.now_us
        with self._span("kernel.run"):
            start = time.perf_counter()
            try:
                yield
            finally:
                timing.loop_s = time.perf_counter() - start
                timing.sim_s = (kernel.now_us - sim_start) / SEC


# ---------------------------------------------------------------------- #
# seeded copies of the stock bodies                                       #
# ---------------------------------------------------------------------- #


def _spawn(kernel, workload, seed: int):
    """Spawn ``workload`` with every FreeOp reseeded to ``11 + seed``."""
    run = kernel.spawn(workload)
    for phase in run.phases:
        for op in phase.ops:
            if isinstance(op, FreeOp):
                op.seed = 11 + seed
    return run


def _fragment(kernel, seed: int) -> None:
    """The paper's fragmentation step with a seeded fragmenter (7 + seed)."""
    kernel.fragmenter = Fragmenter(kernel.buddy, seed=7 + seed)
    kernel.fragmenter.fragment(keep_fraction=0.05)


def _lift_prezero_limit(kernel, policy: str) -> None:
    # Same idealised no-zeroing columns as the stock Table 1/8 bodies:
    # pre-zeroing keeps up with frees.
    if policy.startswith("hawkeye"):
        kernel.policy.prezero._limiter.per_second = 1e9


def run_tab1(case, policy, scale, *, seed, timer):
    """Table 1 cell: fault count/latency for alloc-touch-free x10."""
    with timer.setup():
        kernel = experiments.make_kernel(16 * GB, policy, scale, boot_zeroed=True)
        _lift_prezero_limit(kernel, policy)
        run = _spawn(kernel, AllocTouchFree(
            10 * GB, rounds=TAB1_ROUNDS, scale=scale.factor,
            gap_us=TAB1_GAP_US), seed)
    with timer.loop(kernel):
        kernel.run(max_epochs=3000)
    stats = run.proc.stats
    return {
        "faults": int(stats.faults),
        "fault_time_s": stats.fault_time_us / SEC,
        "avg_fault_us": stats.fault_time_us / max(stats.faults, 1),
    }


def _tab8_workload(name: str, scale):
    return {"redis-bulk": RedisBulkInsert, "sparsehash": SparseHash}[name](
        scale=scale.factor)


def run_tab8(case, policy, scale, *, seed, timer):
    """Table 8 cell: one fault-bound workload under one policy.

    Under HawkEye the stock body runs two pre-zeroing epochs before the
    spawn; those are loop time, so there the spawn falls in the loop too.
    """
    warm_up = policy.startswith("hawkeye")
    with timer.setup():
        kernel = experiments.make_kernel(96 * GB, policy, scale, boot_zeroed=False)
        _lift_prezero_limit(kernel, policy)
        if not warm_up:
            wl = _tab8_workload(case, scale)
            run = _spawn(kernel, wl, seed)
    with timer.loop(kernel):
        if warm_up:
            kernel.run_epochs(2)
            wl = _tab8_workload(case, scale)
            run = _spawn(kernel, wl, seed)
        kernel.run(max_epochs=2000)
    if not run.finished:
        raise RuntimeError(f"{case}/{policy} did not finish within the epoch cap")
    time_s = run.op_time_us / SEC
    if case == "redis-bulk":
        return {"metric": "values_per_s", "value": wl.values_inserted() / time_s}
    return {"metric": "time_s", "value": time_s}


def _fig5_workload(name: str, scale):
    work_us = FIG5_WORK_S * SEC
    if name == "cg.D":
        return NPBWorkload("cg.D", scale=scale.factor, work_us=work_us)
    return XSBench(scale=scale.factor, work_us=work_us)


def run_fig5(case, policy, scale, *, seed, timer):
    """Figure 5 cell: promotion speedup/efficiency from a fragmented start."""
    with timer.setup():
        kernel = experiments.make_kernel(96 * GB, policy, scale)
        _fragment(kernel, seed)
        run = _spawn(kernel, _fig5_workload(case, scale), seed)
    with timer.loop(kernel):
        kernel.run(max_epochs=6000)
    if not run.finished:
        raise RuntimeError(f"{case}/{policy} did not finish within the epoch cap")
    return {
        "time_s": run.elapsed_us / SEC,
        "promotions": int(run.proc.stats.promotions),
    }


def run_fig1(case, policy, scale, *, seed, timer):
    """Figure 1 cell: Redis insert/delete-80%/re-insert RSS trajectory."""
    with timer.setup():
        kernel = experiments.make_kernel(48 * GB, policy, scale)
        recorder = SeriesRecorder(kernel, every_epochs=10)
        recorder.probe(
            "rss_mb", lambda k: sum(p.rss_pages() for p in k.processes) * 4096 / MB)
        run = _spawn(kernel, RedisFig1(scale=scale.factor), seed)
    oom = False
    with timer.loop(kernel):
        try:
            kernel.run(max_epochs=4000)
        except OutOfMemoryError:
            oom = True
    proc = run.proc
    series = recorder["rss_mb"]
    return {
        "policy": policy,
        "oom": oom,
        "finished": run.finished,
        "t_end_s": kernel.now_us / SEC,
        "rss_mb": proc.rss_pages() * 4096 / MB,
        "useful_mb": experiments.useful_bytes(kernel, proc) / MB,
        "recovered_pages": int(kernel.stats.bloat_pages_recovered),
        "rss_series": {"times": list(series.times), "values": list(series.values)},
    }


def fleet_seed(case: str, policy: str, seed: int) -> int:
    """The stock per-cell fleet seed, shifted by the workload seed."""
    return zlib.crc32(f"fleet/{case}/{policy}".encode()) + seed


def run_fleet(case, policy, scale, *, seed, timer):
    """Fleet cell: >= 1000 tenant lifetimes at one arrival scale."""
    name, _, mult = case.rpartition("-")
    if name != "arrival" or not mult.endswith("x"):
        raise ValueError(f"unknown fleet case {case!r}")
    with timer.setup():
        kernel = experiments.make_kernel(FLEET_MEM_FULL, policy, scale,
                                         boot_zeroed=True)
        spec = FleetSpec(
            rate_per_s=BASE_RATE_PER_S * float(mult[:-1]),
            seed=fleet_seed(case, policy, seed),
            group_limits={"batch-*": BATCH_GROUP_CAP},
        )
        manager = FleetManager(kernel, spec, scale_factor=scale.factor)
    with timer.loop(kernel):
        epochs = drive_fleet(kernel, manager, FLEET_LIFETIMES, max_epochs=8000)
    return fleet_result(kernel, manager, epochs)


#: stock experiment -> its seeded bench body.
BODIES = {"tab1": run_tab1, "tab8": run_tab8, "fig5": run_fig5,
          "fig1": run_fig1, "fleet": run_fleet}


def register_experiments(seed: int, timer: CellTimer) -> None:
    """(Re-)register every ``bench-<exp>`` grid bound to ``seed`` and
    ``timer``, over the cases and policies the workloads use."""
    for exp, body in BODIES.items():
        points = [(case, policy) for wl in WORKLOADS.values()
                  for e, case, policy in wl.points if e == exp]
        register(
            f"bench-{exp}", f"benchmark copy of {exp} (seed {seed})",
            cases=tuple(dict.fromkeys(case for case, _ in points)),
            policies=tuple(dict.fromkeys(policy for _, policy in points)),
            run=functools.partial(body, seed=seed, timer=timer),
            replace=True, key_material=f"bench-seed={seed}",
        )
