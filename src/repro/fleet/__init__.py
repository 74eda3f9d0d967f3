"""Fleet-scale multi-tenant load generation (ROADMAP item 2).

The paper's fairness and tail-latency story (§4, Fig. 7/8) only becomes
interesting under sustained tenant churn: thousands of short- and
long-lived processes arriving, faulting in their footprints, competing
for contiguity and exiting — at 10–100x the process counts the table
experiments use.  This package is that load generator:

* :mod:`repro.fleet.arrivals` — open-loop arrival processes (Poisson
  and trace-driven);
* :mod:`repro.fleet.tenants` — tenant classes with configurable
  footprint/lifetime distributions and the workload they run;
* :mod:`repro.fleet.oom` — a badness-scored OOM killer layered on the
  :class:`~repro.mem.watermarks.Watermarks` pressure signal;
* :mod:`repro.fleet.qos` — per-tenant-class QoS accounting (p50/p99
  fault latency from the log2 histograms, promotion share, bloat and
  huge coverage);
* :mod:`repro.fleet.manager` — the :class:`FleetManager` driving
  spawns, reaps and kills through ``Kernel.spawn``/``exit_process``;
* :mod:`repro.fleet.experiment` — the ``fleet`` / ``fleet-smoke``
  registry experiments.

The manager fills the ``kernel.fleet`` observer slot, and
``Kernel.run_epoch`` calls it on the slot guard alone.
"""

from repro.fleet.arrivals import PoissonArrivals, TraceArrivals
from repro.fleet.manager import FleetManager, FleetSpec
from repro.fleet.oom import OOMKiller
from repro.fleet.qos import TenantQoS
from repro.fleet.tenants import DEFAULT_CLASSES, TenantClass, TenantWorkload

__all__ = [
    "DEFAULT_CLASSES",
    "FleetManager",
    "FleetSpec",
    "OOMKiller",
    "PoissonArrivals",
    "TenantClass",
    "TenantQoS",
    "TenantWorkload",
    "TraceArrivals",
]
