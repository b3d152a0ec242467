"""Flows as lanes: measure per-flow service times over the shared mesh.

The flows-as-lanes contract
---------------------------
A workload (:mod:`repro.traffic.workload`) is served by turning every flow
into a lane set on the lockstep mesh engine
(:mod:`repro.routing.ensemble`): one :class:`~repro.routing.ensemble.ExorLane`
per (flow, scheme), with a flow's dependent schemes chained via ``after=``
so they share the flow's service stream in canonical order — single path,
then ExOR, then ExOR+SourceSync, then link-local recovery
(:mod:`repro.routing.link_local`).  Lanes are handed to the engine in
**arrival order** (the workload's start times order the lane set) and the
engine advances only the lanes still active each lockstep round; a flow's
measured ``elapsed_us`` is its *service time* — the medium time its
transfer occupies.  Queueing for the shared medium is composed afterwards
by :mod:`repro.analysis.fct` (FIFO by arrival), so service measurement
parallelises across flows while contention stays exact.

Every draw comes from the flow's own index-keyed service stream
(:func:`repro.traffic.workload.flow_service_seed`), so a flow's results
equal those of serving it alone, and any ``chunk_flows`` setting and any
``jobs`` sharding produce bit-identical results.

Topology builders for the two canonical scenarios live here too:
:func:`relay_mesh` (one source, one destination, relays between — the
Fig. 18 shape) and :func:`incast_mesh` (N senders on a ring around one
victim, relays near the centre).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.channel.dynamics import LinkDynamics
from repro.engine import run_chunks
from repro.channel.propagation import PathLossModel
from repro.net.topology import Testbed
from repro.phy.params import DEFAULT_PARAMS, OFDMParams
from repro.routing.ensemble import (
    ExorLane,
    LinkLocalLane,
    prime_testbeds_lockstep,
    simulate_exor_ensemble,
    simulate_link_local_ensemble,
    simulate_single_path_ensemble,
)
from repro.routing.exor import ExorConfig
from repro.routing.link_local import LinkLocalConfig
from repro.traffic.workload import TrafficWorkload, flow_service_seed

__all__ = [
    "SCHEMES",
    "FlowService",
    "relay_mesh",
    "incast_mesh",
    "simulate_flow_services",
]

#: Canonical scheme order; a flow's schemes always consume its service
#: stream in this order (chained lanes on the lockstep path).
#: ``link_local`` is last so enabling it leaves the other schemes' draws
#: — and every pinned pre-existing result — untouched.
SCHEMES = ("single_path", "exor", "sourcesync", "link_local")

#: Source→destination span of :func:`relay_mesh`, matching the lossy-mesh
#: geometry of the Fig. 18 experiment.
_SPAN_M = 85.0

#: Sender-ring radius of :func:`incast_mesh`; far enough from the victim
#: that relays matter, close enough that direct delivery is possible.
_INCAST_RADIUS_M = 60.0

#: Shared path-loss model: extra reference loss stands in for the walls of
#: the paper's office testbed (≈50% lossy links, Fig. 10).
_PATH_LOSS = PathLossModel(exponent=3.3, reference_loss_db=43.0, shadowing_sigma_db=5.0)


@dataclass(frozen=True)
class FlowService:
    """Measured service of one flow through one routing scheme."""

    flow_index: int
    scheme: str
    #: Medium time the transfer occupied (µs) — the flow's service time.
    service_us: float
    delivered_packets: int
    size_packets: int
    transmissions: int

    @property
    def delivered_fraction(self) -> float:
        """Fraction of the flow's packets that reached the destination."""
        return self.delivered_packets / self.size_packets


def relay_mesh(
    seed: int,
    n_relays: int = 3,
    params: OFDMParams = DEFAULT_PARAMS,
) -> Testbed:
    """Source (node 0) → destination (node 1) with relays scattered between."""
    rng = np.random.default_rng(seed)
    positions = [(0.0, 0.0), (_SPAN_M, 0.0)]
    for _ in range(n_relays):
        positions.append(
            (float(rng.uniform(0.3, 0.7) * _SPAN_M), float(rng.uniform(-15.0, 15.0)))
        )
    return Testbed.from_positions(positions, rng=rng, params=params, path_loss=_PATH_LOSS)


def incast_mesh(
    seed: int,
    n_senders: int,
    n_relays: int = 2,
    params: OFDMParams = DEFAULT_PARAMS,
) -> Testbed:
    """Victim (node 0) with senders 1..N on a jittered ring and central relays.

    Sender node ids are ``1..n_senders`` in ring order; relay nodes follow.
    The geometry makes every sender's direct link to the victim lossy while
    the central relays overhear most senders — the N-senders→1-victim
    incast scenario with room for opportunistic forwarding.
    """
    if n_senders < 1:
        raise ValueError("n_senders must be >= 1")
    rng = np.random.default_rng(seed)
    positions = [(0.0, 0.0)]
    for k in range(n_senders):
        angle = 2.0 * np.pi * k / n_senders + float(rng.uniform(-0.1, 0.1))
        radius = _INCAST_RADIUS_M * float(rng.uniform(0.9, 1.1))
        positions.append((radius * float(np.cos(angle)), radius * float(np.sin(angle))))
    for _ in range(n_relays):
        positions.append((float(rng.uniform(-25.0, 25.0)), float(rng.uniform(-25.0, 25.0))))
    return Testbed.from_positions(positions, rng=rng, params=params, path_loss=_PATH_LOSS)


def _canonical_schemes(schemes: Sequence[str]) -> tuple[str, ...]:
    """Validate a scheme selection and return it in canonical order."""
    wanted = set(schemes)
    unknown = wanted - set(SCHEMES)
    if unknown:
        raise ValueError(f"unknown schemes {sorted(unknown)}; known: {SCHEMES}")
    if not wanted:
        raise ValueError("at least one scheme is required")
    return tuple(s for s in SCHEMES if s in wanted)


def _service_chunk(
    rows: list[tuple[int, int, float, int]],
    testbed_factory: Callable[[], Testbed],
    dst: int,
    seed: int,
    rate_mbps: float,
    payload_bytes: int,
    schemes: tuple[str, ...],
    dynamics: LinkDynamics | None = None,
    link_local: LinkLocalConfig | None = None,
) -> list[tuple[FlowService, ...]]:
    """Serve one chunk of flows; returns per-flow services in row order.

    ``rows`` is ``(flow_index, sender, arrival_us, size_packets)`` per
    flow.  Each flow's generator is rebuilt statelessly from
    ``(seed, flow_index)``, so a chunk of any size reproduces the
    identical draws.  ``dynamics`` attaches the same fault-injection spec
    to every scheme of every flow; ``link_local`` supplies the retry/timeout knobs of the link-local
    scheme (its payload and dynamics fields are overridden to the chunk's).
    """
    testbed = testbed_factory()
    relays_for = {
        sender: [n for n in testbed.node_ids if n not in (sender, dst)]
        for sender in {row[1] for row in rows}
    }
    base = ExorConfig(payload_bytes=payload_bytes, dynamics=dynamics)
    ll_config = replace(
        link_local if link_local is not None else LinkLocalConfig(),
        payload_bytes=payload_bytes,
        dynamics=dynamics,
    )
    rngs = [np.random.default_rng(flow_service_seed(seed, index)) for index, _, _, _ in rows]

    # Lanes enter the engine in arrival order — the workload's start times
    # order the lane set — and only active lanes advance each round;
    # per-flow streams make the ordering cosmetic (results are keyed back
    # to flow position afterwards).
    order = sorted(range(len(rows)), key=lambda k: (rows[k][2], rows[k][0]))
    prime_testbeds_lockstep([testbed], base.probe_rate_mbps, payload_bytes)
    # Probe priming materialised every pair's fading profile, so the
    # data-rate pass consumes no generator draws.
    prime_testbeds_lockstep([testbed], rate_mbps, payload_bytes)

    per_flow_services: list[dict[str, FlowService]] = [{} for _ in rows]
    if "single_path" in schemes:
        single_lanes = [
            ExorLane(
                testbed, rows[k][1], dst, rate_mbps, relays_for[rows[k][1]],
                replace(base, batch_size=rows[k][3]), rngs[k],
            )
            for k in order
        ]
        for k, result in zip(order, simulate_single_path_ensemble(single_lanes)):
            index, _, _, size = rows[k]
            per_flow_services[k]["single_path"] = FlowService(
                index, "single_path", result.elapsed_us,
                result.delivered_packets, size, result.transmissions,
            )
    want_exor = "exor" in schemes
    want_joint = "sourcesync" in schemes
    if want_exor or want_joint:
        lanes: list[ExorLane] = []
        placement: list[tuple[int, str]] = []
        for k in order:
            _, sender, _, size = rows[k]
            config = replace(base, batch_size=size)
            exor_lane = None
            if want_exor:
                exor_lane = ExorLane(
                    testbed, sender, dst, rate_mbps, relays_for[sender], config, rngs[k]
                )
                lanes.append(exor_lane)
                placement.append((k, "exor"))
            if want_joint:
                lanes.append(
                    ExorLane(
                        testbed, sender, dst, rate_mbps, relays_for[sender],
                        replace(config, sender_diversity=True), rngs[k], after=exor_lane,
                    )
                )
                placement.append((k, "sourcesync"))
        for (k, scheme), result in zip(placement, simulate_exor_ensemble(lanes)):
            index, _, _, size = rows[k]
            per_flow_services[k][scheme] = FlowService(
                index, scheme, result.elapsed_us,
                result.delivered_packets, size, result.transmissions,
            )
    if "link_local" in schemes:
        local_lanes = [
            LinkLocalLane(
                testbed, rows[k][1], dst, rate_mbps, rows[k][3], ll_config, rngs[k]
            )
            for k in order
        ]
        for k, result in zip(order, simulate_link_local_ensemble(local_lanes)):
            index, _, _, size = rows[k]
            per_flow_services[k]["link_local"] = FlowService(
                index, "link_local", result.elapsed_us,
                result.delivered_packets, size, result.transmissions,
            )
    return [
        tuple(flow_services[scheme] for scheme in schemes)
        for flow_services in per_flow_services
    ]


def simulate_flow_services(
    workload: TrafficWorkload,
    testbed_factory: Callable[[], Testbed],
    dst: int,
    *,
    schemes: Sequence[str] = SCHEMES,
    jobs: int = 1,
    chunk_flows: int = 0,
    dynamics: LinkDynamics | None = None,
    link_local: LinkLocalConfig | None = None,
) -> dict[str, list[FlowService]]:
    """Serve a workload per scheme; returns services in flow-index order.

    ``testbed_factory`` builds the shared mesh (must be picklable for
    ``jobs > 1`` — a ``functools.partial`` over :func:`relay_mesh` /
    :func:`incast_mesh` works); every chunk rebuilds it identically, and
    canonical link priming keeps the testbed's own stream path-independent.
    ``chunk_flows`` caps how many flows one lockstep call carries (0 = one
    shard per job); neither it nor ``jobs`` changes any output.
    ``dynamics`` injects the same bursty-link spec into every scheme of
    every flow (each flow's trajectory comes from its own service stream,
    so every sharding stays bit-identical), and ``link_local`` tunes the
    link-local scheme's retry/timeout/backoff budget.  An empty workload
    returns empty lists without building the testbed or touching any
    generator — the traffic layer's analogue of the zero-packet ensemble
    guard.
    """
    ordered_schemes = _canonical_schemes(schemes)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if chunk_flows < 0:
        raise ValueError("chunk_flows must be >= 0 (0 = one shard per job)")
    if not workload.flows:
        return {scheme: [] for scheme in ordered_schemes}

    rows = [
        (flow.index, flow.sender, flow.arrival_us, flow.size_packets)
        for flow in workload.flows
    ]
    # Sharding and the process pool live in the engine: one shard per job by
    # default (chunk_flows=0 maps to chunk_size=None), an explicit cap
    # otherwise — bit-identical results for every setting.
    flat = run_chunks(
        _service_chunk, rows, jobs,
        testbed_factory, dst, workload.seed,
        workload.rate_mbps, workload.payload_bytes, ordered_schemes,
        dynamics, link_local,
        chunk_size=chunk_flows or None,
    )
    return {
        scheme: [per_flow[pos] for per_flow in flat]
        for pos, scheme in enumerate(ordered_schemes)
    }
