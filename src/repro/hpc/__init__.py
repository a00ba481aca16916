"""Simulated HPC machine substrate.

This package substitutes for the leadership-class systems the paper ran on
(Intrepid IBM BG/P and Titan Cray XK7).  It provides a typed
discrete-event engine over a :mod:`heapq` event list
(:mod:`repro.hpc.kernel`, see ``docs/kernel.md``), the deterministic
generator-process adapter on top of it (:mod:`repro.hpc.event`),
waitable resources
(:mod:`repro.hpc.resources`), a machine model with nodes, cores and
memory accounting (:mod:`repro.hpc.machine`), an interconnect model
with processor-sharing bandwidth allocation (:mod:`repro.hpc.network`),
interconnect topologies (:mod:`repro.hpc.topology`) and calibrated presets
for the two systems used in the paper (:mod:`repro.hpc.systems`).
"""

from repro.hpc.event import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.hpc.kernel import (
    KERNEL_EVENT_KINDS,
    EventKernel,
    KernelCounters,
    event_kind_code,
    event_kind_name,
    register_event_kind,
)
from repro.hpc.machine import CoreAllocation, Machine, MemoryPool, Node, Partition
from repro.hpc.network import Link, Network, Transfer
from repro.hpc.resources import Resource, Store
from repro.hpc.systems import SystemSpec, build_workflow_machine, intrepid, titan

__all__ = [
    "AllOf",
    "AnyOf",
    "CoreAllocation",
    "Event",
    "EventKernel",
    "Interrupt",
    "KERNEL_EVENT_KINDS",
    "KernelCounters",
    "Link",
    "Machine",
    "MemoryPool",
    "Network",
    "Node",
    "Partition",
    "Process",
    "Resource",
    "Simulator",
    "Store",
    "SystemSpec",
    "Timeout",
    "Transfer",
    "build_workflow_machine",
    "event_kind_code",
    "event_kind_name",
    "intrepid",
    "register_event_kind",
    "titan",
]
