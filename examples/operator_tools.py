#!/usr/bin/env python3
"""Operator tooling: tracing, /proc views, limits and dynamic watermarks.

Beyond reproducing the paper, the library ships the tooling an operator
of such a kernel would want:

* **tracepoints** recording every promotion/demotion decision with
  timestamps (the raw material of the paper's Figures 6/7);
* **/proc-style snapshots** (meminfo, vmstat, per-process smaps);
* the paper's §3.5 extensions: **huge-page limits** (cgroup-style caps
  that stop one tenant monopolising contiguity) and **dynamic
  watermarks** that adapt bloat recovery to allocation volatility.

Run:  python examples/operator_tools.py
"""

from collections import Counter

from repro import trace
from repro.core.hawkeye import HawkEyePolicy
from repro.experiments import Scale, fragment
from repro.kernel import procfs
from repro.kernel.kernel import Kernel, KernelConfig
from repro.metrics.tables import format_table
from repro.units import GB, SEC
from repro.workloads.graph import Graph500
from repro.workloads.redis import RedisLight

SCALE = Scale(1 / 128)


def make_kernel(limits=None):
    config = KernelConfig(
        mem_bytes=SCALE.bytes(96 * GB),
        kcompactd_pages_per_sec=SCALE.rate(20_000),
    )
    return Kernel(
        config,
        lambda k: HawkEyePolicy(
            k,
            variant="g",
            promote_per_sec=SCALE.rate(10.0),
            prezero_pages_per_sec=SCALE.rate(100_000),
            huge_page_limits=limits,
            dynamic_watermarks=True,
        ),
    )


def main() -> None:
    # Cap the Redis tenant at 8 huge pages; the batch job is unlimited.
    kernel = make_kernel(limits={"redis-light": 8})
    tracer = trace.attach(kernel)
    fragment(kernel)

    kernel.spawn(RedisLight(scale=SCALE.factor, serve_us=1500 * SEC,
                            insert_rate_pages_per_sec=2e6))
    batch = kernel.spawn(Graph500(scale=SCALE.factor, work_us=600 * SEC))
    while not batch.finished and kernel.stats.epochs < 3000:
        kernel.run_epoch()

    promotions = tracer.filter(kinds=["promote"])
    per_tenant = Counter(e.process for e in promotions)
    print("# Promotions per tenant (promote tracepoints)")
    print(format_table(["tenant", "promotions"], sorted(per_tenant.items())))
    redis_proc = kernel.processes[0]
    print(f"\nRedis holds {len(redis_proc.page_table.huge)} huge pages "
          f"(cap: 8); cap refusals: {kernel.policy.limits.refusals}")

    print("\n# Promotion timeline (events per 60 s bucket)")
    timeline = Counter(e.t_us // (60 * SEC) * 60 for e in promotions)
    for bucket, count in sorted(timeline.items()):
        print(f"  {bucket:6.0f}s {'#' * count} ({count})")

    print("\n# meminfo")
    print(procfs.format_meminfo(kernel))

    print("\n# smaps of the batch tenant")
    rows = procfs.smaps(kernel, batch.proc)
    print(format_table(
        ["vma", "size kB", "rss kB", "anon huge kB", "hint"],
        [[r["name"], r["size_kb"], r["rss_kb"], r["anon_huge_kb"], r["hint"]]
         for r in rows],
    ))

    wm = kernel.policy.bloat.watermarks
    print(f"\ndynamic watermarks settled at high={wm.high:.2f} low={wm.low:.2f} "
          f"(static defaults: 0.85/0.70)")


if __name__ == "__main__":
    main()
