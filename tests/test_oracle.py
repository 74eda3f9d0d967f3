"""Isolation of ``tests/oracle.py``, the scalar reference bodies.

``oracle.install`` must patch exactly one kernel instance (and that
kernel's policy, NUMA state, fragmenter and zone compactors), never a
class or a sibling kernel, and a plain simulation or sweep cell must
never import the module, nor the modules the source digest skips.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.hawkeye import HawkEyePolicy
from repro.experiments import reset_sim_state
from repro.kernel import procfs
from repro.kernel.kernel import Kernel
from repro.numa.topology import NumaTopology
from tests import oracle
from tests.conftest import small_config, spawn_simple

#: instance attributes ``install`` binds, per object it patches.
KERNEL_NAMES = ("_sample_access_bits", "fault_range", "_unmap_base_batched")
POLICY_NAMES = ("on_sample",)
NUMA_NAMES = ("_harvest",)
FRAGMENTER_NAMES = ("fragment",)
COMPACTOR_NAMES = ("_empty_chunk",)


def _build() -> Kernel:
    """A 2-node balancing HawkEye kernel: every patched path is live."""
    return Kernel(
        small_config(topology=NumaTopology(nodes=2),
                     knumad_pages_per_sec=1000.0, sample_period=2),
        lambda k: HawkEyePolicy(k, huge_faults=False, promote_per_sec=2.0,
                                prezero_pages_per_sec=1e6),
    )


def _run_sampled(kernel: Kernel) -> tuple:
    """Dense touch + profiled compute, several access-bit samples."""
    reset_sim_state()
    run = spawn_simple(kernel, heap_mb=8, work_s=20.0)
    epochs = kernel.run(max_epochs=2000)
    proc = run.proc
    result = (epochs, run.finished, run.finish_time_us, run.op_time_us,
              proc.stats.faults, proc.stats.huge_faults,
              proc.stats.fault_time_us, proc.page_table.nhuge)
    return result, procfs.vmstat(kernel)


def _patched(kernel: Kernel) -> dict[str, set[str]]:
    return {
        "kernel": set(vars(kernel)) & set(KERNEL_NAMES),
        "policy": set(vars(kernel.policy)) & set(POLICY_NAMES),
        "numa": set(vars(kernel.numa)) & set(NUMA_NAMES),
        "fragmenter": set(vars(kernel.fragmenter)) & set(FRAGMENTER_NAMES),
        # one zone compactor per node
        "compactors": [set(vars(c)) & set(COMPACTOR_NAMES)
                       for c in kernel.compactor.compactors],
    }


def test_install_patches_only_its_own_kernel():
    a, b = _build(), _build()
    oracle.install(a)
    assert _patched(a) == {"kernel": set(KERNEL_NAMES),
                           "policy": set(POLICY_NAMES),
                           "numa": set(NUMA_NAMES),
                           "fragmenter": set(FRAGMENTER_NAMES),
                           "compactors": [set(COMPACTOR_NAMES)] * 2}
    assert _patched(b) == {"kernel": set(), "policy": set(), "numa": set(),
                           "fragmenter": set(), "compactors": [set(), set()]}

    for kernel in (a, b):
        kernel.fragmenter.fragment(keep_fraction=0.05)
        kernel.compactor.run(2000)
    b_result, b_vmstat = _run_sampled(b)
    fresh = _build()
    fresh.fragmenter.fragment(keep_fraction=0.05)
    fresh.compactor.run(2000)
    fresh_result, fresh_vmstat = _run_sampled(fresh)
    assert b.stats.epochs // b.config.sample_period >= 5
    assert b_result == fresh_result
    assert b_vmstat == fresh_vmstat


#: a ``repro run random-4g --scale 256 --nodes 2 --numa-balance``
#: simulation, without the CLI, then a ``smoke`` and a ``fleet-smoke``
#: cell through the sweep's capture path; prints what it imported of
#: ``DIGEST_SKIP``'s modules and of ``tests``.
CELLS_SCRIPT = """
import json, sys
from repro.experiments import Scale, make_kernel
from repro.runner import cells_for
from repro.runner.cache import DIGEST_SKIP
from repro.runner.registry import execute_cell_with_telemetry
from repro.units import GB
from repro.workloads.catalog import WORKLOADS

scale = Scale(1 / 256)
kernel = make_kernel(48 * GB, "hawkeye-g", scale, numa_nodes=2, numa_balance=True)
run = kernel.spawn(WORKLOADS["random-4g"][1](scale.factor))
kernel.run(max_epochs=3000)
cells = [cell for grid in ("smoke", "fleet-smoke")
         for cell in cells_for(grid, 512, policies=("hawkeye-g",))]
for cell in cells:
    execute_cell_with_telemetry(cell)
skipped = ["repro." + path.removesuffix("/").removesuffix(".py") for path in DIGEST_SKIP]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "tests"
                or any(name == s or name.startswith(s + ".") for s in skipped))
print(json.dumps({"finished": run.finished, "cells": len(cells), "loaded": loaded}))
"""


def test_plain_simulation_never_imports_oracle():
    """A plain run and sweep cells import neither the oracle (nor anything
    else of ``tests``) nor a module the source digest skips, with the repo
    root importable so that an import would succeed and show."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-c", CELLS_SCRIPT], env=env, cwd=root,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == {
        "finished": True, "cells": 2, "loaded": []}
