"""Message-passing substrate: topologies, processes, scheduler, simulator."""

from repro.network.messages import DroppedRequest, MessageStats, ValueRequest, ValueResponse
from repro.network.node import Process
from repro.network.sampling import choice_in_degrees, override_choices
from repro.network.scheduler import RoundScheduler, default_capacity
from repro.network.simulator import NetworkSimulator
from repro.network.topology import (
    CompleteTopology,
    GraphTopology,
    Topology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)

__all__ = [
    "ValueRequest",
    "ValueResponse",
    "DroppedRequest",
    "MessageStats",
    "Process",
    "RoundScheduler",
    "default_capacity",
    "NetworkSimulator",
    "Topology",
    "CompleteTopology",
    "GraphTopology",
    "ring_topology",
    "random_regular_topology",
    "torus_topology",
    "choice_in_degrees",
    "override_choices",
]
