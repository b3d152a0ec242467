"""ETX (expected transmission count) link and path metrics.

ExOR (and our single-path baseline) rank nodes and routes by the ETX metric
of De Couto et al. [8]: the expected number of transmissions needed to get a
packet across a link, ``1 / (p_fwd * p_rev)``, where the reverse delivery
probability accounts for the ACK.  Path ETX is the sum of link ETX values;
ExOR orders candidate forwarders by their ETX distance to the destination.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.net.topology import Testbed

__all__ = [
    "EtxGraph",
    "link_etx",
    "etx_graph",
    "path_etx",
    "best_route",
    "etx_to_destination",
    "forwarder_order",
]

#: Links lossier than this are not considered usable by the routing layer.
MAX_USABLE_LOSS = 0.9


def link_etx(forward_delivery: float, reverse_delivery: float) -> float:
    """ETX of a link from its forward and reverse delivery probabilities."""
    product = forward_delivery * reverse_delivery
    if product <= 0.0:
        return float("inf")
    return 1.0 / product


@dataclass(frozen=True)
class EtxGraph:
    """Directed graph of usable links, weighted by ETX.

    ``successors[a][b]`` and ``predecessors[b][a]`` both hold the ETX of
    link ``a -> b``.  Every testbed node is a key of both maps, linked or
    not.  The inner maps keep the order edges were added in (source-major
    over ``testbed.node_ids``), which is the order route searches visit
    neighbours in.
    """

    successors: dict[int, dict[int, float]]
    predecessors: dict[int, dict[int, float]]


def etx_graph(
    testbed: Testbed,
    probe_rate_mbps: float = 6.0,
    probe_bytes: int = 1460,
    max_loss: float = MAX_USABLE_LOSS,
) -> EtxGraph:
    """Directed graph of usable links weighted by ETX.

    Memoised on the testbed: link profiles are static for a testbed's
    lifetime, and every routing scheme simulated over one topology asks for
    the identical graph.
    """
    return testbed.memo(
        ("etx_graph", probe_rate_mbps, probe_bytes, max_loss),
        lambda: _build_etx_graph(testbed, probe_rate_mbps, probe_bytes, max_loss),
    )


def _build_etx_graph(
    testbed: Testbed,
    probe_rate_mbps: float,
    probe_bytes: int,
    max_loss: float,
) -> EtxGraph:
    testbed.prime_delivery_cache(probe_rate_mbps, probe_bytes)
    successors: dict[int, dict[int, float]] = {node: {} for node in testbed.node_ids}
    predecessors: dict[int, dict[int, float]] = {node: {} for node in testbed.node_ids}
    for src in testbed.node_ids:
        for dst in testbed.node_ids:
            if src == dst:
                continue
            fwd = testbed.delivery_probability(src, dst, probe_rate_mbps, probe_bytes)
            rev = testbed.delivery_probability(dst, src, probe_rate_mbps, probe_bytes)
            if (1.0 - fwd) > max_loss:
                continue
            etx = link_etx(fwd, rev)
            if np.isfinite(etx):
                successors[src][dst] = etx
                predecessors[dst][src] = etx
    return EtxGraph(successors, predecessors)


def path_etx(graph: EtxGraph, path: list[int]) -> float:
    """Sum of link ETX values along a path."""
    total = 0.0
    for a, b in zip(path[:-1], path[1:]):
        etx = graph.successors.get(a, {}).get(b)
        if etx is None:
            return float("inf")
        total += etx
    return total


def _dijkstra(
    adjacency: dict[int, dict[int, float]], source: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source Dijkstra over ``adjacency[node] = {neighbour: etx}``.

    Returns the distance of every reachable node, in the order nodes are
    settled, and the last hop of every reached node other than ``source``.
    Heap entries are ``(distance, counter, node)`` and a relaxation must be
    strictly shorter, so among equal-cost last hops the first one relaxed
    is kept.
    """
    distances: dict[int, float] = {}
    tentative = {source: 0.0}
    last_hop: dict[int, int] = {}
    counter = itertools.count()
    heap = [(0.0, next(counter), source)]
    while heap:
        distance, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = distance
        for neighbour, etx in adjacency[node].items():
            candidate = distance + etx
            if neighbour not in distances and candidate < tentative.get(neighbour, float("inf")):
                tentative[neighbour] = candidate
                last_hop[neighbour] = node
                heapq.heappush(heap, (candidate, next(counter), neighbour))
    return distances, last_hop


def best_route(graph: EtxGraph, src: int, dst: int) -> list[int] | None:
    """Minimum-ETX route between two nodes (None when disconnected).

    Ties between equal-cost routes are broken per hop: walking back from
    ``dst``, each node keeps the first-relaxed last hop of the search from
    ``src``, so the same graph always yields the same route.
    """
    if src not in graph.successors:
        return None
    distances, last_hop = _dijkstra(graph.successors, src)
    if dst not in distances:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(last_hop[path[-1]])
    path.reverse()
    return path


def etx_to_destination(graph: EtxGraph, dst: int) -> dict[int, float]:
    """ETX distance from every node that can reach ``dst`` to ``dst``."""
    distances, _ = _dijkstra(graph.predecessors, dst)
    return distances


def forwarder_order(graph: EtxGraph, candidates: list[int], dst: int) -> list[int]:
    """Order candidate forwarders by increasing ETX distance to the destination.

    This is ExOR's forwarder priority: the node closest (in ETX) to the
    destination that holds a packet forwards it (§7.2).  Candidates with no
    route to the destination are dropped.
    """
    distances = etx_to_destination(graph, dst)
    usable = [c for c in candidates if c in distances]
    return sorted(usable, key=lambda c: distances[c])
