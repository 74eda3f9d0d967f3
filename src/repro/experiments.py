"""Shared experiment infrastructure: scaling, policy registry, helpers.

The paper's testbed has 96 GB of RAM; simulating it page-by-page in
Python is feasible but slow, so experiments run at a configurable linear
**scale** (default 1/64: a "48 GB" machine becomes 768 MB).  Because all
policy thresholds are fractions (watermarks, utilisation thresholds,
FMFI) the policy *dynamics* are scale-invariant — provided background
rates scale too, which :class:`Scale` centralises:

* memory sizes multiply by ``factor`` (workloads do this themselves);
* page-per-second rates (khugepaged promotion, pre-zeroing, bloat scans,
  KSM, compaction) multiply by ``factor`` so "fraction of memory
  processed per second" is preserved.

``POLICIES`` is the registry of policy configurations used across the
benchmark suite — the paper's five columns plus the auxiliary variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.hawkeye import HawkEyeConfig, HawkEyePolicy
from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.base import HugePagePolicy
from repro.policies.freebsd import FreeBSDPolicy
from repro.policies.ingens import IngensPolicy
from repro.policies.linux import Linux4KPolicy, LinuxTHPPolicy
from repro.units import GB, SEC
from repro.workloads.compute import DEFAULT_SCALE

#: full-scale background rates (paper-calibrated).
PROMOTE_PER_SEC = 10.0
PREZERO_PAGES_PER_SEC = 100_000.0
BLOAT_SCAN_PAGES_PER_SEC = 100_000.0
KCOMPACTD_PAGES_PER_SEC = 20_000.0
KSM_PAGES_PER_SEC = 50_000.0
#: knumad cross-node migration budget (matches Linux's default NUMA
#: balancing scan rate of ~256 MB/s of address space considered).
KNUMAD_PAGES_PER_SEC = 50_000.0


@dataclass(frozen=True)
class Scale:
    """Linear memory scale for an experiment."""

    factor: float = DEFAULT_SCALE

    def bytes(self, full_bytes: float) -> int:
        """Scale a full-scale byte size down to simulated bytes."""
        return int(full_bytes * self.factor)

    def rate(self, full_per_sec: float) -> float:
        """Scale a full-scale pages/second rate down to match the memory."""
        return full_per_sec * self.factor

    @property
    def denominator(self) -> int:
        """The 1/N divisor this scale was built from (rounded)."""
        return max(1, round(1.0 / self.factor))

    @classmethod
    def from_denominator(cls, denominator: int) -> "Scale":
        """Build a scale from its 1/N divisor (the CLI/sweep spelling)."""
        return cls(1.0 / denominator)


DEFAULT = Scale()


def reset_sim_state() -> None:
    """Reset process-global simulator counters.

    The simulator is deterministic per kernel except for the global pid
    counter, which threads process creation order across kernels in the
    same interpreter.  Anything that needs run-to-run reproducible output
    regardless of what ran before it — the perf harness, sweep cells —
    calls this first, so the same experiment produces identical results
    in a fresh worker process and mid-way through a long pytest session.
    """
    from repro.vm.process import Process

    Process._next_pid = 1


def _hawkeye(variant: str, huge_faults: bool = True) -> Callable[[Scale], Callable]:
    def build(scale: Scale):
        def factory(kernel: Kernel) -> HugePagePolicy:
            return HawkEyePolicy(
                kernel,
                HawkEyeConfig(
                    variant=variant,
                    huge_faults=huge_faults,
                    promote_per_sec=scale.rate(PROMOTE_PER_SEC),
                    prezero_pages_per_sec=scale.rate(PREZERO_PAGES_PER_SEC),
                    bloat_scan_pages_per_sec=scale.rate(BLOAT_SCAN_PAGES_PER_SEC),
                ),
            )

        return factory

    return build


def _ingens(util: float, adaptive: bool = True) -> Callable[[Scale], Callable]:
    def build(scale: Scale):
        return lambda kernel: IngensPolicy(
            kernel,
            util_threshold=util,
            adaptive=adaptive,
            promote_per_sec=scale.rate(PROMOTE_PER_SEC),
        )

    return build


#: name -> (scale -> policy factory).  These names are used throughout
#: the benchmarks and map onto the paper's configuration columns.
POLICIES: dict[str, Callable[[Scale], Callable[[Kernel], HugePagePolicy]]] = {
    "linux-4kb": lambda scale: Linux4KPolicy,
    "linux-2mb": lambda scale: (
        lambda kernel: LinuxTHPPolicy(kernel, promote_per_sec=scale.rate(PROMOTE_PER_SEC))
    ),
    "freebsd": lambda scale: FreeBSDPolicy,
    "ingens-90": _ingens(0.9),
    "ingens-50": _ingens(0.5),
    # fixed-threshold Ingens configurations (adaptive FMFI switch off),
    # the way Table 7 pins the bloat-vs-performance knob.
    "ingens-90-fixed": _ingens(0.9, adaptive=False),
    "ingens-50-fixed": _ingens(0.5, adaptive=False),
    "hawkeye-g": _hawkeye("g"),
    "hawkeye-pmu": _hawkeye("pmu"),
    # HawkEye with huge faults disabled: pre-zeroing benefits only
    # (the "HawkEye-4KB" column of Tables 1 and 8).
    "hawkeye-4kb": _hawkeye("g", huge_faults=False),
}


def scaled_tlb(scale: Scale):
    """TLB entry counts scaled with memory (virtualised experiments).

    At 1/64 memory scale a full-size TLB covers every huge region of a
    scaled working set, hiding the host-side promotion dynamics the
    Figure 9 experiments measure.  Scaling the entry counts alongside
    memory restores the paper's capacity ratios.
    """
    from repro.tlb.tlb import TLBConfig

    return TLBConfig(
        l1_base=max(1, int(64 * scale.factor)),
        l1_huge=max(1, int(8 * scale.factor)),
        l2_shared=max(8, int(1024 * scale.factor)),
    )


def make_kernel(
    mem_bytes_full: float,
    policy: str,
    scale: Scale = DEFAULT,
    kcompactd: bool = True,
    boot_zeroed: bool = True,
    swap_bytes_full: float = 0,
    epoch_us: float = SEC,
    numa_nodes: int = 1,
    numa_balance: bool = False,
    replicated_pt: bool = False,
    tlb=None,
) -> Kernel:
    """Build a kernel for a full-scale memory size under ``policy``.

    ``epoch_us`` may be coarsened (e.g. 2 s) for long experiments; the
    access-bit sampling cadence stays at the paper's 30 simulated
    seconds regardless.  ``numa_nodes`` splits memory into equal NUMA
    zones; ``numa_balance`` turns on the knumad hint-fault balancer and
    ``replicated_pt`` the Mitosis-style per-node page-table replicas.
    """
    if policy not in POLICIES:
        raise KeyError(f"unknown policy {policy!r}; have {sorted(POLICIES)}")
    from repro.numa.topology import NumaTopology
    from repro.tlb.tlb import TLBConfig

    config = KernelConfig(
        mem_bytes=scale.bytes(mem_bytes_full),
        epoch_us=epoch_us,
        sample_period=max(1, round(30 * SEC / epoch_us)),
        kcompactd_pages_per_sec=scale.rate(KCOMPACTD_PAGES_PER_SEC) if kcompactd else 0.0,
        boot_zeroed=boot_zeroed,
        swap_bytes=scale.bytes(swap_bytes_full),
        topology=NumaTopology(nodes=numa_nodes),
        knumad_pages_per_sec=scale.rate(KNUMAD_PAGES_PER_SEC) if numa_balance else 0.0,
        replicated_page_tables=replicated_pt,
        tlb=tlb if tlb is not None else TLBConfig(),
    )
    return Kernel(config, POLICIES[policy](scale))


def make_hypervisor(
    host_mem_bytes_full: float,
    host_policy: str,
    scale: Scale = DEFAULT,
    swap_bytes_full: float = 0,
):
    """Build a hypervisor whose host runs ``host_policy`` (scaled TLB)."""
    from repro.virt.hypervisor import Hypervisor

    config = KernelConfig(
        mem_bytes=scale.bytes(host_mem_bytes_full),
        tlb=scaled_tlb(scale),
        kcompactd_pages_per_sec=scale.rate(KCOMPACTD_PAGES_PER_SEC),
        swap_bytes=scale.bytes(swap_bytes_full),
    )
    return Hypervisor(config, POLICIES[host_policy](scale))


def make_vm(hypervisor, name: str, ram_bytes_full: float, guest_policy: str,
            scale: Scale = DEFAULT):
    """Create a VM whose guest kernel runs ``guest_policy`` (scaled TLB)."""
    guest_config = KernelConfig(
        mem_bytes=scale.bytes(ram_bytes_full),
        epoch_us=hypervisor.host.config.epoch_us,
        tlb=scaled_tlb(scale),
        kcompactd_pages_per_sec=scale.rate(KCOMPACTD_PAGES_PER_SEC),
    )
    return hypervisor.create_vm(
        name, scale.bytes(ram_bytes_full), POLICIES[guest_policy](scale), guest_config
    )


def fragment(kernel: Kernel, keep_fraction: float = 0.05) -> float:
    """The paper's pre-experiment fragmentation step (file reads)."""
    return kernel.fragmenter.fragment(keep_fraction=keep_fraction)


# ---------------------------------------------------------------------- #
# measurement helpers                                                     #
# ---------------------------------------------------------------------- #


def rss_bytes(proc) -> int:
    """Resident set size of a process in bytes."""
    from repro.units import BASE_PAGE_SIZE

    return proc.rss_pages() * BASE_PAGE_SIZE


def useful_bytes(kernel: Kernel, proc) -> int:
    """Bytes of *non-zero* (actually used) data mapped by ``proc``.

    RSS minus this is memory bloat: mapped, zero-filled pages nobody
    wrote — what HawkEye's §3.2 recovery reclaims.  Counted over every
    allocated frame the process owns, not only its mapped ones: a FreeBSD
    reservation's unmapped frames can hold stale data.
    """
    import numpy as np

    from repro.units import BASE_PAGE_SIZE

    frames = kernel.frames
    owned = np.flatnonzero(frames.owner == proc.pid)
    used = frames.allocated[owned] & (frames.first_nonzero[owned] >= 0)
    return int(np.count_nonzero(used)) * BASE_PAGE_SIZE


def speedup(baseline_us: float, measured_us: float) -> float:
    """Baseline time over measured time (>1 means faster)."""
    return baseline_us / measured_us if measured_us > 0 else float("inf")


def gb(nbytes: float) -> float:
    """Bytes rendered as (fractional) gigabytes."""
    return nbytes / GB
