"""ETX (expected transmission count) link and path metrics.

ExOR (and our single-path baseline) rank nodes and routes by the ETX metric
of De Couto et al. [8]: the expected number of transmissions needed to get a
packet across a link, ``1 / (p_fwd * p_rev)``, where the reverse delivery
probability accounts for the ACK.  Path ETX is the sum of link ETX values;
ExOR orders candidate forwarders by their ETX distance to the destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.net.topology import Testbed

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
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


def etx_graph(
    testbed: Testbed,
    probe_rate_mbps: float = 6.0,
    probe_bytes: int = 1460,
    max_loss: float = MAX_USABLE_LOSS,
) -> nx.DiGraph:
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
) -> nx.DiGraph:
    import networkx as nx

    testbed.prime_delivery_cache(probe_rate_mbps, probe_bytes)
    graph = nx.DiGraph()
    graph.add_nodes_from(testbed.node_ids)
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
                graph.add_edge(src, dst, etx=etx, delivery=fwd)
    return graph


def path_etx(graph: nx.DiGraph, path: list[int]) -> float:
    """Sum of link ETX values along a path."""
    total = 0.0
    for a, b in zip(path[:-1], path[1:]):
        if not graph.has_edge(a, b):
            return float("inf")
        total += graph.edges[a, b]["etx"]
    return total


def best_route(graph: nx.DiGraph, src: int, dst: int) -> list[int] | None:
    """Minimum-ETX route between two nodes (None when disconnected)."""
    import networkx as nx

    try:
        return nx.shortest_path(graph, src, dst, weight="etx")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def etx_to_destination(graph: nx.DiGraph, dst: int) -> dict[int, float]:
    """ETX distance from every node to the destination."""
    import networkx as nx

    reversed_graph = graph.reverse(copy=False)
    lengths = nx.single_source_dijkstra_path_length(reversed_graph, dst, weight="etx")
    return dict(lengths)


def forwarder_order(graph: nx.DiGraph, candidates: list[int], dst: int) -> list[int]:
    """Order candidate forwarders by increasing ETX distance to the destination.

    This is ExOR's forwarder priority: the node closest (in ETX) to the
    destination that holds a packet forwards it (§7.2).  Candidates with no
    route to the destination are dropped.
    """
    distances = etx_to_destination(graph, dst)
    usable = [c for c in candidates if c in distances]
    return sorted(usable, key=lambda c: distances[c])
