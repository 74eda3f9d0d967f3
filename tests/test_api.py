"""Public API surface tests."""

import pytest

import repro
from repro.errors import (
    AllocationError,
    ConfigError,
    InvalidAddressError,
    OutOfMemoryError,
    ReproError,
)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_exception_hierarchy():
    for exc in (OutOfMemoryError, InvalidAddressError, AllocationError, ConfigError):
        assert issubclass(exc, ReproError)
    assert issubclass(ReproError, Exception)


def test_top_level_quickstart_shape():
    """The README/quickstart construction path works as documented."""
    from repro import HawkEyePolicy, Kernel, KernelConfig
    from repro.units import MB

    kernel = Kernel(KernelConfig(mem_bytes=64 * MB),
                    lambda k: HawkEyePolicy(k, variant="g"))
    assert kernel.policy.name == "hawkeye-g"
    assert kernel.buddy.free_pages > 0


def test_pattern_enum_exported():
    from repro import Pattern

    assert {p.value for p in Pattern} == {"random", "strided", "sequential"}


def test_process_region_metadata():
    from repro.vm.process import Process, RegionInfo

    proc = Process("x")
    region = proc.region(5)
    assert isinstance(region, RegionInfo)
    assert proc.region(5) is region, "get-or-create must be stable"
    # Residency is read from the page table: map half the region...
    proc.page_table.map_base_range(5 << 9, [(0, 256, False)])
    assert region.utilization() == 0.5
    assert proc.candidate_regions() == [region]
    # ...then collapse it into one huge mapping, as promotion does.
    proc.page_table.unmap_base_run_private(5 << 9, 256)
    proc.page_table.map_huge(5, 0)
    assert proc.huge_regions() == [region]
    assert proc.candidate_regions() == []
