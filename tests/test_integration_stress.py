"""Stress scenario: a mixed multi-tenant day on one machine.

Every policy must survive a realistic mixed scenario — a latency-bound
server, a churning cache, batch compute arriving later, and memory
fragmentation throughout — with the kernel invariants intact at the end.
This is the no-crash/no-leak regression net under the most interaction
pressure the simulator can generate.
"""

import pytest

from repro.errors import OutOfMemoryError
from repro.experiments import POLICIES, Scale, fragment, make_kernel
from repro.units import GB, PAGES_PER_HUGE, SEC
from repro.vm.page_table import SHARED_ZERO
from repro.workloads.graph import Graph500
from repro.workloads.microbench import AllocTouchFree
from repro.workloads.redis import RedisChurn, RedisLight
from tests.conftest import mappings

SCALE = Scale(1 / 256)


def check_invariants(kernel):
    """Cross-check page tables, rmap and the buddy allocator."""
    mapped = 0
    for proc in kernel.processes:
        pt = proc.page_table
        base, huge = mappings(pt)
        for vpn, (frame, flags) in base.items():
            if flags & SHARED_ZERO:
                assert frame == kernel.zero_registry.zero_frame
            else:
                assert kernel.frames.allocated[frame], (proc.name, vpn)
                mapped += 1
        for block, _ in huge.values():
            assert block % PAGES_PER_HUGE == 0
            assert kernel.frames.allocated[block:block + 512].all()
            mapped += PAGES_PER_HUGE
    overhead = kernel.fragmenter.cache_pages + 1  # file cache + zero frame
    assert kernel.frames.allocated_count() == mapped + overhead
    assert kernel.buddy.free_pages + mapped + overhead == kernel.buddy.total_pages


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_mixed_tenancy_stress(policy):
    kernel = make_kernel(96 * GB, policy, SCALE)
    fragment(kernel, keep_fraction=0.03)
    runs = [
        kernel.spawn(RedisLight(scale=SCALE.factor, serve_us=400 * SEC,
                                insert_rate_pages_per_sec=4e6)),
        kernel.spawn(RedisChurn(scale=SCALE.factor, dataset_bytes=16 * GB,
                                insert_rate_pages_per_sec=4e6,
                                settle_us=60 * SEC, serve_us=60 * SEC)),
    ]
    kernel.run_epochs(30)
    runs.append(kernel.spawn(Graph500(scale=SCALE.factor, work_us=200 * SEC)))
    runs.append(kernel.spawn(AllocTouchFree(4 * GB, rounds=3, scale=SCALE.factor)))
    oom = False
    try:
        kernel.run(max_epochs=1500)
    except OutOfMemoryError:
        oom = True
    # with ~72 GB of peak demand on 96 GB, nobody should OOM
    assert not oom, policy
    assert all(r.finished for r in runs), policy
    check_invariants(kernel)
    # the machine ends in a sane state: memory was actually released
    assert kernel.allocated_fraction() < 0.9, policy
