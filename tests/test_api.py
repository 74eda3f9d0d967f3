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
    import repro.vm
    from repro.vm.process import Process

    assert not hasattr(repro.vm, "RegionInfo")
    proc = Process("x")
    table, pt = proc.regions, proc.page_table
    assert table.slot(5) is None and 5 not in table
    slot = table.ensure(5)
    assert table.ensure(5) == slot, "get-or-create must be stable"
    assert table.slot(5) == slot and 5 in table and len(table) == 1
    assert table.hvpn[:table.n].tolist() == [5]
    # Residency is read from the page table: map half the region...
    pt.map_base_range(5 << 9, [(0, 256, False)])
    assert pt.region_resident(5) == 256
    assert table.resident_arr().tolist() == [256]
    assert table.is_huge_arr().tolist() == [False]
    # ...then collapse it into one huge mapping, as promotion does.
    pt.unmap_base_run_private(5 << 9, 256)
    pt.map_huge(5, 0)
    assert pt.region_huge(5)
    assert table.is_huge_arr().tolist() == [True]
    assert table.resident_arr().tolist() == [512]
