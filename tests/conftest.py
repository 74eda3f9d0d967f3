"""Shared fixtures: small kernels for fast unit/integration tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hawkeye import HawkEyePolicy
from repro.metrics import telemetry
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import MB


@pytest.fixture(autouse=True)
def _reset_capture():
    """Drop any telemetry sweep capture a test left armed."""
    yield
    telemetry.reset()


#: every per-frame column of the provenance ledger (repro.audit.FrameLedger).
LEDGER_COLUMNS = (
    "live", "alloc_pid", "alloc_order", "alloc_epoch", "alloc_site",
    "ev_code", "ev_epoch", "ev_arg", "ev_len",
)


def buddy_snapshot(allocator) -> dict:
    """A buddy allocator's (or every NUMA zone's) free lists with dict
    order kept, ``free_pages``, and the frame-table columns allocation
    touches; two allocators with equal snapshots hand out the same
    frames from then on."""
    frames = allocator.frames
    return {
        "zones": [
            ([list(d.items()) for d in zone._zero],
             [list(d.items()) for d in zone._nonzero],
             list(zone._block_order.items()),
             zone.free_pages)
            for zone in getattr(allocator, "zones", [allocator])
        ],
        "columns": {name: getattr(frames, name).tolist()
                    for name in ("allocated", "owner", "pinned",
                                 "first_nonzero", "content_tag")},
    }


def mappings(pt) -> tuple[dict, dict]:
    """``({vpn: (frame, flags)}, {hvpn: (frame, flags)})``: every base and
    huge mapping of a page table, read off its columns."""
    hvpns = np.flatnonzero(pt.hframe >= 0).tolist()
    return ({vpn: (int(pt.frame[vpn]), int(pt.flags[vpn]))
             for vpn in pt.mapped_vpns().tolist()},
            {hvpn: (int(pt.hframe[hvpn]), int(pt.hflags[hvpn])) for hvpn in hvpns})


def small_config(mem_mb: int = 64, **overrides) -> KernelConfig:
    return KernelConfig(mem_bytes=mem_mb * MB, **overrides)


@pytest.fixture
def kernel4k() -> Kernel:
    """64 MB kernel running the Linux-4KB policy."""
    return Kernel(small_config(), Linux4KPolicy)


@pytest.fixture
def kernel_thp() -> Kernel:
    """64 MB kernel running Linux THP."""
    return Kernel(small_config(), lambda k: LinuxTHPPolicy(k, promote_per_sec=100.0))


@pytest.fixture
def kernel_hawkeye() -> Kernel:
    """64 MB kernel running HawkEye-G with fast background threads."""
    return Kernel(
        small_config(),
        lambda k: HawkEyePolicy(
            k, variant="g", promote_per_sec=100.0, prezero_pages_per_sec=1e6
        ),
    )


def spawn_simple(kernel: Kernel, heap_mb: int = 8, work_s: float = 2.0, name: str = "w"):
    """Spawn a tiny allocate-then-compute workload."""
    from repro.units import SEC
    from repro.workloads.base import (
        AccessProfile,
        MmapOp,
        Phase,
        RegionAccessSpec,
        TouchOp,
        Workload,
    )

    class Simple(Workload):
        def __init__(self):
            self.name = name

        def build_phases(self):
            return [
                Phase("alloc", ops=[MmapOp("heap", heap_mb * MB), TouchOp("heap")]),
                Phase(
                    "compute",
                    work_us=work_s * SEC,
                    profile=AccessProfile(
                        specs=[RegionAccessSpec("heap", coverage=512)],
                        access_rate=30.0,
                    ),
                ),
            ]

    return kernel.spawn(Simple())
