#!/usr/bin/env python3
"""Writing your own huge-page policy against the public interface.

The policy interface (`repro.policies.base.HugePagePolicy`) is the same
seam the paper's systems plug into.  This example implements
**SecondTouch**, a deliberately simple policy:

* faults always map base pages (like Ingens/FreeBSD);
* a region becomes promotion-eligible only once access-bit sampling has
  seen it accessed in two *different* sampling periods (a crude
  recency+frequency filter);
* eligible regions are promoted oldest-first with a rate limit.

It then races SecondTouch against Linux and HawkEye on a fragmented
machine — not because SecondTouch is good (it is not), but to show that
a ~40-line policy is a first-class citizen: same experiments, same
metrics, same benchmarks.

Run:  python examples/custom_policy.py
"""

from repro.experiments import POLICIES, Scale, fragment, make_kernel
from repro.kernel.kthread import RateLimiter
from repro.metrics.tables import format_table
from repro.policies.base import HugePagePolicy
from repro.units import GB, SEC
from repro.workloads.xsbench import XSBench

SCALE = Scale(1 / 128)


class SecondTouchPolicy(HugePagePolicy):
    """Promote a region after it was seen accessed in two samples."""

    name = "second-touch"

    def __init__(self, kernel, promote_per_sec=10.0):
        super().__init__(kernel)
        self._limiter = RateLimiter(promote_per_sec, kernel.config.epoch_us)
        self._touches: dict[tuple[int, int], int] = {}
        self._eligible: list[tuple[int, int]] = []  # FIFO of (pid, hvpn)

    def fault_size(self, proc, vma, vpn):
        return "base"

    def on_sample(self, proc):
        table, pt = proc.regions, proc.page_table
        for hvpn, slot in table.slot_of.items():
            if pt.region_huge(hvpn) or table.last_coverage[slot] == 0:
                continue
            key = (proc.pid, hvpn)
            count = self._touches.get(key, 0) + 1
            self._touches[key] = count
            if count == 2:
                self._eligible.append(key)

    def on_epoch(self):
        self._limiter.refill()
        procs = {p.pid: p for p in self.kernel.processes}
        while self._eligible and self._limiter.take():
            pid, hvpn = self._eligible.pop(0)
            proc = procs.get(pid)
            if proc is None or self.kernel.promote_region(proc, hvpn) is None:
                continue


def main() -> None:
    # Register it alongside the built-ins so every helper can use it.
    POLICIES["second-touch"] = lambda scale: (
        lambda kernel: SecondTouchPolicy(kernel, promote_per_sec=scale.rate(10.0))
    )

    rows = []
    for policy in ("linux-2mb", "second-touch", "hawkeye-g"):
        kernel = make_kernel(48 * GB, policy, SCALE)
        fragment(kernel)
        run = kernel.spawn(XSBench(scale=SCALE.factor, work_us=700 * SEC))
        kernel.run(max_epochs=3000)
        rows.append([
            policy, round(run.elapsed_us / SEC, 1),
            run.proc.stats.promotions,
            f"{run.proc.mmu_overhead * 100:.1f}%",
        ])
    print(format_table(
        ["policy", "time s", "promotions", "final MMU overhead"],
        rows,
        title="XSBench, fragmented start (custom policy vs built-ins)",
    ))
    print(
        "\nSecondTouch waits two sampling periods (60 s) before promoting\n"
        "anything, and promotes in discovery order rather than hotness\n"
        "order — both visible in its time relative to HawkEye."
    )


if __name__ == "__main__":
    main()
