"""Differential oracle: the ETX route searches against networkx.

:mod:`repro.net.etx` keeps its graphs in plain dicts and runs its own
Dijkstra.  networkx is not a dependency of the package; where it is
installed, these tests check that every route, distance map and forwarder
order equals what networkx computes on the same edges, for every ordered
node pair of seeded testbeds, disconnected pairs included.
"""

import numpy as np
import pytest

from repro.experiments.fig18_opportunistic import random_relay_topology
from repro.net import Testbed, best_route, etx_graph, etx_to_destination, forwarder_order
from repro.net.etx import EtxGraph, path_etx
from repro.traffic.service import incast_mesh

nx = pytest.importorskip("networkx")

_TESTBEDS = (
    [("random_relay_topology", seed) for seed in range(7)]
    + [("incast_mesh", seed) for seed in range(7, 14)]
    + [("Testbed.random", seed) for seed in range(14, 20)]
)


def _testbed(kind: str, seed: int) -> Testbed:
    if kind == "random_relay_topology":
        return random_relay_topology(np.random.default_rng(seed))
    if kind == "incast_mesh":
        return incast_mesh(seed, n_senders=4)
    return Testbed.random(8, np.random.default_rng(seed))


def _networkx_graph(graph: EtxGraph):
    """The same nodes and edges, in the same insertion order, as a DiGraph."""
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.successors)
    for src, links in graph.successors.items():
        for dst, etx in links.items():
            digraph.add_edge(src, dst, etx=etx)
    return digraph


def _graph(edges: list[tuple[int, int, float]], nodes: list[int]) -> EtxGraph:
    successors: dict[int, dict[int, float]] = {node: {} for node in nodes}
    predecessors: dict[int, dict[int, float]] = {node: {} for node in nodes}
    for src, dst, etx in edges:
        successors[src][dst] = etx
        predecessors[dst][src] = etx
    return EtxGraph(successors, predecessors)


@pytest.mark.parametrize(("kind", "seed"), _TESTBEDS)
def test_etx_searches_match_networkx(kind, seed):
    testbed = _testbed(kind, seed)
    graph = etx_graph(testbed)
    reference = _networkx_graph(graph)
    reversed_reference = reference.reverse(copy=False)
    nodes = testbed.node_ids
    for dst in nodes:
        expected = nx.single_source_dijkstra_path_length(reversed_reference, dst, weight="etx")
        assert list(etx_to_destination(graph, dst).items()) == list(expected.items())
        for src in nodes:
            if src == dst:
                continue
            try:
                route = nx.shortest_path(reference, src, dst, weight="etx")
            except nx.NetworkXNoPath:
                route = None
            assert best_route(graph, src, dst) == route
            candidates = [node for node in nodes if node not in (src, dst)]
            usable = [node for node in candidates if node in expected]
            assert forwarder_order(graph, candidates, dst) == sorted(
                usable, key=lambda node: expected[node]
            )


def test_oracle_testbeds_include_disconnected_pairs():
    graph = etx_graph(_testbed("incast_mesh", 8))
    reference = _networkx_graph(graph)
    assert not nx.has_path(reference, 1, 2)
    assert best_route(graph, 1, 2) is None


def test_equal_cost_routes_resolve_to_one_minimum_cost_route():
    graph = _graph([(0, 1, 1.5), (0, 2, 1.5), (1, 3, 1.5), (2, 3, 1.5), (0, 3, 4.0)], [0, 1, 2, 3])
    route = best_route(graph, 0, 3)
    assert route in ([0, 1, 3], [0, 2, 3])
    assert path_etx(graph, route) == 3.0
    assert all(best_route(graph, 0, 3) == route for _ in range(5))
    # The documented tie rule: node 1 is relaxed first, so it is kept.
    assert route == [0, 1, 3]
