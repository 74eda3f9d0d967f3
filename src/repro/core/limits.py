"""Huge-page allocation limits (paper §3.5, "huge page starvation").

The paper notes that allocating huge pages purely by MMU overhead lets an
adversarial process monopolise contiguity, and suggests integrating with
resource-limiting tools like cgroups.  This module implements that
extension: a :class:`HugePageLimits` registry caps the number of huge
pages a process (or cgroup of processes) may hold; the promotion engine
skips processes at their cap, and the fault path falls back to base pages
for them.

Limits come in two flavours:

* **per-process caps** — attached to a process name (exact match) or a
  name prefix (``prefix*``); each matching process is individually
  capped.
* **group caps** — attached to a name prefix (``prefix*``), bounding the
  *sum* of huge pages held across every live matching process, the way a
  cgroup's ``hugetlb`` controller bounds a subtree.  Group occupancy is
  computed live from the kernel's process list (when :meth:`bind` has
  been called; a group's members are looked up again only after that
  list changes) or from the registered member set, so a killed-and-
  restarted tenant can never leak its old holdings into the group's
  budget — teardown clears the page table and drops the process from
  the live list, and exited members are pruned before every sum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.vm.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.metrics.registry import MetricsRegistry


class HugePageLimits:
    """Per-process / per-group caps on held huge pages."""

    def __init__(self, limits: dict[str, int] | None = None,
                 group_limits: dict[str, int] | None = None):
        self._exact: dict[str, int] = {}
        self._prefix: list[tuple[str, int]] = []
        for pattern, cap in (limits or {}).items():
            self.set_limit(pattern, cap)
        #: prefix -> cap on the SUM of huge pages held by live members.
        self._group_caps: dict[str, int] = {}
        for pattern, cap in (group_limits or {}).items():
            self.set_group_limit(pattern, cap)
        #: kernel whose live process list defines group membership (set
        #: by :meth:`bind`); without it, membership is tracked explicitly.
        self._kernel = None
        self._members: dict[str, list[Process]] = {}
        #: bound registries: prefix -> live members, valid for one
        #: ``(process_generation, len(processes))`` of the kernel.
        self._live_key: tuple[int, int] | None = None
        self._live: dict[str, list[Process]] = {}
        #: promotion attempts refused because a cap was reached.
        self.refusals = 0
        #: the subset of refusals caused by a *group* cap.
        self.group_refusals = 0

    def set_limit(self, pattern: str, cap: int) -> None:
        """Cap ``pattern`` (exact name, or ``prefix*``) at ``cap`` huge pages."""
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        if pattern.endswith("*"):
            self._prefix.append((pattern[:-1], cap))
        else:
            self._exact[pattern] = cap

    def set_group_limit(self, pattern: str, cap: int) -> None:
        """Cap the summed holdings of every ``pattern`` process at ``cap``."""
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self._group_caps[pattern[:-1] if pattern.endswith("*") else pattern] = cap

    def bind(self, kernel) -> None:
        """Use ``kernel.processes`` as the group-membership source of truth."""
        self._kernel = kernel

    def limit_for(self, proc: Process) -> int | None:
        """Effective per-process cap for ``proc``, or None when unlimited."""
        if proc.name in self._exact:
            return self._exact[proc.name]
        matches = [cap for prefix, cap in self._prefix if proc.name.startswith(prefix)]
        return min(matches) if matches else None

    def held(self, proc: Process) -> int:
        """Huge pages the process currently maps."""
        return proc.page_table.nhuge

    # ------------------------------------------------------------------ #
    # group accounting                                                    #
    # ------------------------------------------------------------------ #

    def _group_members(self, prefix: str) -> list[Process]:
        if (kernel := self._kernel) is not None:
            # The live list changes at spawn and exit_process; a process
            # appended to it directly changes its length.
            key = (kernel.process_generation, len(kernel.processes))
            if key != self._live_key:
                self._live_key = key
                self._live = {}
            members = self._live.get(prefix)
            if members is None:
                members = self._live[prefix] = [
                    p for p in kernel.processes if p.name.startswith(prefix)]
            return members
        members = self._members.get(prefix, [])
        # Restart churn: an exited process keeps its (cleared) page table
        # but must not linger in the member list forever.
        members[:] = [p for p in members if not p.finished]
        return members

    def _track(self, proc: Process) -> None:
        """Register ``proc`` as a member of every group it matches."""
        if self._kernel is not None:
            return
        for prefix in self._group_caps:
            if proc.name.startswith(prefix):
                members = self._members.setdefault(prefix, [])
                if proc not in members:
                    members.append(proc)

    def group_held(self, prefix: str) -> int:
        """Huge pages currently held across a group's live members."""
        return sum(p.page_table.nhuge for p in self._group_members(prefix))

    def group_stats(self) -> dict[str, tuple[int, int]]:
        """``prefix -> (held, cap)`` for every configured group."""
        return {prefix: (self.group_held(prefix), cap)
                for prefix, cap in sorted(self._group_caps.items())}

    def _group_blocks(self, proc: Process) -> bool:
        """True when a group cap forbids one more huge page for ``proc``."""
        for prefix, cap in self._group_caps.items():
            if proc.name.startswith(prefix):
                self._track(proc)
                if self.group_held(prefix) >= cap:
                    return True
        return False

    def may_promote(self, proc: Process) -> bool:
        """True when ``proc`` may receive one more huge page."""
        cap = self.limit_for(proc)
        if cap is not None and self.held(proc) >= cap:
            self.refusals += 1
            return False
        if self._group_caps and self._group_blocks(proc):
            self.refusals += 1
            self.group_refusals += 1
            return False
        return True


def collect(registry: "MetricsRegistry", kernel: "Kernel") -> None:
    """Publish §3.5 cap refusals and group occupancy, once the policy
    has limits (a fleet may install group caps mid-run)."""
    if (limits := getattr(kernel.policy, "limits", None)) is None:
        return
    refusals = registry.counter(
        "limit_refusals_total", "huge-page promotions refused by §3.5 caps",
        labelnames=("kind",))
    held = registry.gauge(
        "limit_group_held", "huge pages currently held by a limit group",
        labelnames=("group",))
    cap_gauge = registry.gauge(
        "limit_group_cap", "huge-page cap of a limit group",
        labelnames=("group",))
    refusals.labels(kind="total").sync(limits.refusals)
    refusals.labels(kind="group").sync(limits.group_refusals)
    for group, (n, cap) in limits.group_stats().items():
        held.labels(group=group).set(n)
        cap_gauge.labels(group=group).set(cap)
