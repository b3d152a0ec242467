"""Network substrate: nodes, testbed topology, ETX metrics, MAC timing, events."""

from repro.net.etx import (
    best_route,
    etx_graph,
    etx_to_destination,
    forwarder_order,
    link_etx,
    path_etx,
)
from repro.net.events import Event, EventScheduler
from repro.net.mac import CsmaState, MacTiming
from repro.net.node import MeshNode
from repro.net.packet import Packet
from repro.net.topology import Testbed, prime_delivery_caches

__all__ = [
    "MeshNode",
    "Packet",
    "Testbed",
    "prime_delivery_caches",
    "MacTiming",
    "CsmaState",
    "EventScheduler",
    "Event",
    "link_etx",
    "etx_graph",
    "path_etx",
    "best_route",
    "etx_to_destination",
    "forwarder_order",
]
