"""Unit tests for huge-page limits (§3.5 starvation extension)."""

import pytest

from repro.core.hawkeye import HawkEyePolicy
from repro.core.limits import HugePageLimits
from repro.kernel.kernel import Kernel
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.process import Process
from tests.conftest import small_config
from tests.test_fault import make_proc


def test_exact_and_prefix_limits():
    limits = HugePageLimits({"redis": 4, "batch-*": 2})
    redis = Process("redis")
    batch = Process("batch-7")
    other = Process("other")
    assert limits.limit_for(redis) == 4
    assert limits.limit_for(batch) == 2
    assert limits.limit_for(other) is None


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        HugePageLimits({"x": -1})


def test_may_promote_counts_held_pages():
    limits = HugePageLimits({"p": 2})
    proc = Process("p")
    assert limits.may_promote(proc)
    proc.page_table.map_huge(1, 512)
    proc.page_table.map_huge(2, 1024)
    assert not limits.may_promote(proc)
    assert limits.refusals == 1


def test_exact_beats_prefix():
    limits = HugePageLimits({"svc-*": 1, "svc-db": 10})
    assert limits.limit_for(Process("svc-db")) == 10
    assert limits.limit_for(Process("svc-web")) == 1


def test_hawkeye_fault_path_respects_limit():
    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g", huge_page_limits={"t": 1}),
    )
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    kernel.fault(proc, vma.start)  # first region: huge allowed
    assert proc.stats.huge_faults == 1
    kernel.fault(proc, vma.start + PAGES_PER_HUGE)  # cap reached: base
    assert proc.stats.huge_faults == 1
    assert kernel.policy.limits.refusals >= 1


def test_unlimited_by_default():
    kernel = Kernel(small_config(64), lambda k: HawkEyePolicy(k, variant="g"))
    assert kernel.policy.limits is None


# --------------------------------------------------------------------- #
# group caps (cgroup-style, summed across live members)                  #
# --------------------------------------------------------------------- #


def _named_proc(kernel, name, nbytes=8 * MB):
    from repro.tlb.perf import PMUCounters

    proc = Process(name)
    kernel.processes.append(proc)
    kernel.pmu[proc.pid] = PMUCounters()
    vma = kernel.mmap(proc, nbytes, "heap")
    return proc, vma


def test_group_cap_sums_across_members():
    limits = HugePageLimits(group_limits={"svc-*": 2})
    a, b = Process("svc-a"), Process("svc-b")
    assert limits.may_promote(a)
    a.page_table.map_huge(1, 512)
    assert limits.may_promote(b)
    b.page_table.map_huge(40, 1024)
    # the group now holds 2 huge pages in total: both members blocked.
    assert not limits.may_promote(a)
    assert not limits.may_promote(b)
    assert limits.refusals == 2
    assert limits.group_refusals == 2
    assert limits.group_stats() == {"svc-": (2, 2)}


def test_group_cap_exact_name_spelling_equivalent():
    with_star = HugePageLimits(group_limits={"svc-*": 1})
    without = HugePageLimits(group_limits={"svc-": 1})
    assert with_star.group_stats() == without.group_stats()


def test_group_cap_restart_churn_does_not_leak():
    """Satellite: a killed-and-restarted tenant must not pin its old
    holdings against the group cap."""
    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g",
                                huge_page_group_limits={"svc-*": 1}),
    )
    limits = kernel.policy.limits
    proc, vma = _named_proc(kernel, "svc-a")
    kernel.fault(proc, vma.start)
    assert proc.stats.huge_faults == 1
    assert limits.group_held("svc-") == 1
    # cap reached: a sibling is refused.
    sibling, svma = _named_proc(kernel, "svc-b")
    kernel.fault(sibling, svma.start)
    assert sibling.stats.huge_faults == 0
    assert limits.group_refusals >= 1

    # kill-and-restart churn: teardown must free the group budget...
    kernel.exit_process(proc)
    assert limits.group_held("svc-") == 0
    # ...so the restarted incarnation gets the huge page again.
    fresh, fvma = _named_proc(kernel, "svc-a")
    kernel.fault(fresh, fvma.start)
    assert fresh.stats.huge_faults == 1
    assert limits.group_held("svc-") == 1


def test_group_cap_restart_churn_unbound_registry():
    """Same property without a kernel: exited members are pruned."""
    limits = HugePageLimits(group_limits={"svc-*": 1})
    old = Process("svc-a")
    assert limits.may_promote(old)
    old.page_table.map_huge(1, 512)
    assert not limits.may_promote(old)
    old.finished = True  # torn down: page table cleared, run finished
    old.page_table.clear()
    fresh = Process("svc-a")
    assert limits.may_promote(fresh)
    assert limits.group_held("svc-") == 0


def test_limits_telemetry_family():
    """Satellite: refusals and group held/cap surface as limits.* metrics."""
    from repro.metrics import telemetry as tmod

    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g",
                                huge_page_limits={"t": 0},
                                huge_page_group_limits={"svc-*": 3}),
    )
    sampler = tmod.attach(kernel)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    kernel.fault(proc, vma.start)  # cap 0: refused, falls back to base
    assert proc.stats.huge_faults == 0
    kernel.run_epochs(2)
    art = sampler.telemetry()
    tmod.detach(kernel)
    counters = art.scrapes[-1]["counters"]["limit_refusals_total"]
    assert counters["kind=total"] >= 1
    gauges = art.scrapes[-1]["gauges"]
    assert gauges["limit_group_cap"]["group=svc-"] == 3
    assert gauges["limit_group_held"]["group=svc-"] == 0


def test_no_limits_no_telemetry_family():
    """Zero-cost contract: limitless kernels scrape no limits.* family."""
    from repro.metrics import telemetry as tmod

    kernel = Kernel(small_config(64), lambda k: HawkEyePolicy(k, variant="g"))
    sampler = tmod.attach(kernel)
    kernel.run_epochs(2)
    art = sampler.telemetry()
    tmod.detach(kernel)
    assert "limit_refusals_total" not in art.scrapes[-1]["counters"]
    assert "limit_group_held" not in art.scrapes[-1]["gauges"]


def test_group_membership_cache_matches_recount_under_churn():
    """Group occupancy and refusal counters over spawns, exits and a
    kill-restart equal a from-scratch recount of the live process list
    at every promotion decision."""
    from repro.workloads.base import Phase, Workload

    class Idle(Workload):
        name = "idle"

        def build_phases(self):
            return [Phase("idle", duration_us=1.0)]

    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g", huge_page_limits={"svc-b": 1},
                                huge_page_group_limits={"svc-*": 3, "batch-*": 1}),
    )
    limits = kernel.policy.limits
    expected = {"refusals": 0, "group_refusals": 0}

    def recount(prefix):
        return sum(p.page_table.nhuge for p in kernel.processes
                   if p.name.startswith(prefix))

    real_may_promote = limits.may_promote

    def checked_may_promote(proc):
        cap = limits.limit_for(proc)
        if cap is not None and proc.page_table.nhuge >= cap:
            want, expected["refusals"] = False, expected["refusals"] + 1
        elif any(proc.name.startswith(prefix) and recount(prefix) >= gcap
                 for prefix, gcap in (("svc-", 3), ("batch-", 1))):
            want = False
            expected["refusals"] += 1
            expected["group_refusals"] += 1
        else:
            want = True
        assert real_may_promote(proc) is want
        return want

    limits.may_promote = checked_may_promote

    def spawn(name):
        proc = kernel.spawn(Idle(), name=name).proc
        return proc, kernel.mmap(proc, 8 * MB, "heap")

    def fault_regions(proc, vma, n):
        for i in range(n):
            kernel.fault(proc, vma.start + i * PAGES_PER_HUGE)

    def check():
        for prefix in ("svc-", "batch-"):
            assert limits.group_held(prefix) == recount(prefix), prefix
        assert limits.refusals == expected["refusals"]
        assert limits.group_refusals == expected["group_refusals"]

    a, va = spawn("svc-a")
    fault_regions(a, va, 2)
    check()
    b, vb = spawn("svc-b")
    fault_regions(b, vb, 3)  # per-process cap 1, then the group cap
    check()
    batch1, v1 = spawn("batch-1")
    batch2, v2 = spawn("batch-2")
    fault_regions(batch1, v1, 2)
    fault_regions(batch2, v2, 2)
    check()
    kernel.exit_process(batch1)
    kernel.fault(batch2, v2.start + 3 * PAGES_PER_HUGE)  # batch-1's page is back
    check()
    assert limits.group_held("batch-") == 1
    # Kill-restart: the new svc-a starts from the budget the old one left.
    kernel.exit_process(a)
    check()
    a2, va2 = spawn("svc-a")
    fault_regions(a2, va2, 4)
    check()
    assert limits.group_held("svc-") == 3
    assert limits.refusals > limits.group_refusals > 0
