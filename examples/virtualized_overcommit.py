#!/usr/bin/env python3
"""Virtualised huge pages and transparent memory return (Figures 9/11).

Part 1 — nested address translation: the same cg.D workload runs inside
a VM with HawkEye at the guest, the host, both, or neither.  Nested page
walks amplify MMU overheads, so promotion policy matters *more* under
virtualisation.

Part 2 — transparent ballooning: a guest allocates and frees a large
buffer.  With HawkEye in the guest, the freed memory is pre-zeroed and
the host's KSM merges it away — the host gets its memory back without any
para-virtual balloon driver.

Run:  python examples/virtualized_overcommit.py
"""

from repro.experiments import Scale, fragment, make_hypervisor, make_vm
from repro.metrics.tables import format_table
from repro.units import GB, MB, SEC
from repro.workloads.base import ContentSpec, FreeOp, MmapOp, Phase, TouchOp, Workload
from repro.workloads.npb import NPBWorkload

SCALE = Scale(1 / 128)


def nested_translation() -> None:
    print("--- cg.D inside a VM: HawkEye at guest/host/both ---")
    rows = []
    for name, host_policy, guest_policy in (
        ("linux host+guest", "linux-2mb", "linux-2mb"),
        ("hawkeye host", "hawkeye-g", "linux-2mb"),
        ("hawkeye guest", "linux-2mb", "hawkeye-g"),
        ("hawkeye both", "hawkeye-g", "hawkeye-g"),
    ):
        hyp = make_hypervisor(96 * GB, host_policy, SCALE)
        fragment(hyp.host)
        vm = make_vm(hyp, "vm1", 48 * GB, guest_policy, SCALE)
        fragment(vm.guest)
        run = vm.spawn(NPBWorkload("cg.D", scale=SCALE.factor, work_us=300 * SEC))
        hyp.run(max_epochs=4000)
        rows.append([
            name, f"{run.elapsed_us / SEC:.0f}",
            f"{vm._host_huge_fraction * 100:.0f}%",
            run.proc.page_table.nhuge,
        ])
    print(format_table(
        ["configuration", "cg.D time s", "host huge backing", "guest huge pages"],
        rows,
    ))
    print()


class ChurnGuest(Workload):
    name = "churn"

    def __init__(self, nbytes):
        self.nbytes = nbytes

    def build_phases(self):
        return [
            Phase("alloc+free", ops=[
                MmapOp("buf", self.nbytes),
                TouchOp("buf", content=ContentSpec(first_nonzero=0)),
                FreeOp("buf"),
            ]),
            Phase("idle", duration_us=300 * SEC),
        ]


def transparent_ballooning() -> None:
    print("--- freed guest memory returning to the host via KSM ---")
    rows = []
    for guest_policy in ("linux-2mb", "hawkeye-g"):
        hyp = make_hypervisor(96 * GB, "linux-2mb", SCALE)
        vm = make_vm(hyp, "vm1", 24 * GB, guest_policy, SCALE)
        ksm = hyp.enable_ksm(pages_per_sec=SCALE.rate(1e6))
        if guest_policy.startswith("hawkeye"):
            vm.guest.policy.prezero._limiter.per_second = SCALE.rate(1e6)
        vm.spawn(ChurnGuest(SCALE.bytes(12 * GB)))
        hyp.run(max_epochs=400)
        rows.append([
            guest_policy,
            f"{vm.host_proc.rss_pages() * 4096 / MB:.0f} MB",
            ksm.merged_pages,
        ])
    print(format_table(
        ["guest policy", "host memory still held", "pages KSM merged"], rows
    ))
    print("Without guest pre-zeroing, freed guest pages keep stale data and\n"
          "KSM cannot merge them: the host never gets the memory back.")


def main() -> None:
    nested_translation()
    transparent_ballooning()


if __name__ == "__main__":
    main()
