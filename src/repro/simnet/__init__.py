"""Discrete-event network simulation substrate.

The paper evaluates Iniva on a 25-machine cluster.  This package provides
the simulation substitute: a deterministic, seeded discrete-event
simulator with

* an event queue and virtual clock (:mod:`repro.simnet.events`),
* message-passing processes with timers and a single-core CPU model
  (:mod:`repro.simnet.process`),
* a network with configurable latency distributions, bandwidth cost,
  message loss and partitions (:mod:`repro.simnet.network`,
  :mod:`repro.simnet.latency`, :mod:`repro.simnet.topology`),
* fault injection (crash and message-drop schedules,
  :mod:`repro.simnet.failures`),
* metric collection (throughput, latency percentiles, CPU utilisation,
  message/byte counters, :mod:`repro.simnet.metrics`).

Consensus-level tracing lives in :mod:`repro.observe`.
"""

from repro.simnet.events import EventHandle, EventQueue, Simulator
from repro.simnet.latency import (
    ConstantLatency,
    LatencyModel,
    LinkBandwidth,
    NormalLatency,
    UniformLatency,
)
from repro.simnet.metrics import MetricsCollector
from repro.simnet.network import Network
from repro.simnet.process import CpuCostModel, Process, Timer
from repro.simnet.failures import FailureInjector, FailurePlan, PartitionEvent
from repro.simnet.topology import MatrixLatency, RackTopologyLatency, RegionMatrixLatency

__all__ = [
    "ConstantLatency",
    "CpuCostModel",
    "EventHandle",
    "EventQueue",
    "FailureInjector",
    "FailurePlan",
    "LatencyModel",
    "LinkBandwidth",
    "MatrixLatency",
    "MetricsCollector",
    "Network",
    "NormalLatency",
    "PartitionEvent",
    "Process",
    "RackTopologyLatency",
    "RegionMatrixLatency",
    "Simulator",
    "Timer",
    "UniformLatency",
]
