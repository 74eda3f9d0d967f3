"""Isolation of :mod:`repro.oracle`, the scalar reference bodies.

``oracle.install`` must patch exactly one kernel instance (and that
kernel's policy, NUMA state, fragmenter and zone compactors), never a
class or a sibling kernel, and
a plain simulation must never import the module at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import oracle
from repro.core.hawkeye import HawkEyePolicy
from repro.experiments import reset_sim_state
from repro.kernel import procfs
from repro.kernel.kernel import Kernel
from repro.numa.topology import NumaTopology
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


def test_plain_simulation_never_imports_oracle():
    """A `repro run` cell leaves ``repro.oracle`` out of ``sys.modules``."""
    code = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "rc = main(['run', 'random-4g', '--policy', 'hawkeye-g',"
        " '--scale', '256', '--max-epochs', '3000',"
        " '--nodes', '2', '--numa-balance'])\n"
        "print(json.dumps({'rc': rc, 'oracle': 'repro.oracle' in sys.modules}))\n"
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == {"rc": 0, "oracle": False}
