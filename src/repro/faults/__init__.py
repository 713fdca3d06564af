"""Declarative fault injection: specs, plans, injectors, chaos catalog.

The paper's central robustness claim — ODR's acceleration path
recovers gracefully from "suddenly-increased processing time"
(Sec. 4.1) — and every regulator's behaviour under network outages,
GPU preemption, or client disconnects are exercised through this
package:

* :mod:`repro.faults.spec` — the typed fault taxonomy
  (:class:`FaultSpec` subclasses) and the :class:`FaultPlan` a cell
  carries; plain frozen data, canonically serializable, part of the
  cell's content address;
* :mod:`repro.faults.injectors` — :func:`apply_fault_plan` wires a
  plan into a constructed :class:`~repro.pipeline.system.CloudSystem`
  (sampler wrappers, network windows, regulator notifications) and
  returns the run's :class:`FaultController`;
* :mod:`repro.faults.catalog` — the named fault classes the
  ``odr-sim chaos`` sweep instantiates per cell horizon.

* :mod:`repro.faults.service` — the *service-plane* chaos taxonomy
  (:class:`ServiceFaultSpec` subclasses) and the seeded
  :class:`ChaosTransport` that makes the gateway's own wire misbehave
  as a pure function of (plan, seed) — the same philosophy, pointed at
  the infrastructure instead of the simulation.

Recovery analytics live in :mod:`repro.metrics.recovery`; the sweep
harness in :mod:`repro.experiments.chaos`.  See ``docs/ROBUSTNESS.md``.
"""

from repro.faults.catalog import FAULT_CLASSES, build_fault_plan, fault_class_names
from repro.faults.injectors import (
    FaultController,
    FaultWindow,
    StallInjector,
    WindowScaleSampler,
    apply_fault_plan,
)
from repro.faults.service import (
    SERVICE_FAULT_TYPES,
    ChaosDecisions,
    ChaosSocket,
    ChaosTransport,
    ConnectRefusal,
    ConnectionDrop,
    DelayedWrite,
    ServiceFaultPlan,
    ServiceFaultSpec,
    SlowRead,
    TcpTransport,
    TruncatedFrame,
    service_fault_from_dict,
)
from repro.faults.spec import (
    FAULT_TYPES,
    BandwidthCollapse,
    ClientPause,
    FaultPlan,
    FaultSpec,
    GpuPreemption,
    NetworkOutage,
    PacketLossBurst,
    StageStall,
    StallStorm,
    fault_from_dict,
)

__all__ = [
    "FAULT_CLASSES",
    "FAULT_TYPES",
    "SERVICE_FAULT_TYPES",
    "BandwidthCollapse",
    "ChaosDecisions",
    "ChaosSocket",
    "ChaosTransport",
    "ClientPause",
    "ConnectRefusal",
    "ConnectionDrop",
    "DelayedWrite",
    "FaultController",
    "FaultPlan",
    "FaultSpec",
    "FaultWindow",
    "GpuPreemption",
    "NetworkOutage",
    "PacketLossBurst",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "SlowRead",
    "StageStall",
    "StallInjector",
    "StallStorm",
    "TcpTransport",
    "TruncatedFrame",
    "WindowScaleSampler",
    "apply_fault_plan",
    "build_fault_plan",
    "fault_class_names",
    "fault_from_dict",
    "service_fault_from_dict",
]
