"""Network substrate: event simulation, topology, links, and gossip."""

from .events import Event
from .gossip import GETDATA_SIZE, INV_SIZE, GossipNode, RelayMode, StoredObject
from .latency import LatencyHistogram, constant_histogram, default_histogram
from .links import DEFAULT_BANDWIDTH_BPS, LinkView
from .network import Message, Network
from .partitions import PartitionController
from .simulator import Simulator
from .topology import Topology, complete_topology, random_topology, ring_topology

__all__ = [
    "DEFAULT_BANDWIDTH_BPS",
    "GETDATA_SIZE",
    "INV_SIZE",
    "Event",
    "GossipNode",
    "LatencyHistogram",
    "LinkView",
    "Message",
    "Network",
    "PartitionController",
    "RelayMode",
    "Simulator",
    "StoredObject",
    "Topology",
    "complete_topology",
    "constant_histogram",
    "default_histogram",
    "random_topology",
    "ring_topology",
]
