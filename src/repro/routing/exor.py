"""ExOR opportunistic routing (Biswas & Morris, SIGCOMM 2005) — baseline (b) of §8.4.

ExOR exploits *receiver* diversity: the source broadcasts each packet of a
batch, and whichever candidate forwarder closest (in ETX) to the destination
received it forwards it next.  The transfer follows the structure the
paper describes in §7.2 / §8(b):

* candidate forwarders are chosen from ETX measurements and ordered by ETX
  distance to the destination;
* the source transmits the whole batch; every forwarder (and the
  destination) overhears each packet with its own link's delivery
  probability;
* forwarding proceeds in priority order — a node transmits the packets it
  holds that no higher-priority node (closer to the destination) has —
  until the destination holds the full batch or progress stalls;
* a per-round batch-map exchange charge models ExOR's coordination
  overhead.

This module holds the transfer's parameters, its result and the forwarder
priority list; :class:`repro.routing.ensemble.ExorLane` runs the transfer
itself, many of them in lockstep.  The SourceSync extension
(:mod:`repro.routing.exor_sourcesync`, ``sender_diversity=True``) keeps
this scheduler and changes only what happens when a forwarder transmits:
all other forwarders holding the packet join the transmission.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.channel.dynamics import LinkDynamics
from repro.net.etx import etx_graph, forwarder_order
from repro.net.topology import Testbed

__all__ = ["ExorConfig", "ExorResult", "exor_priority"]


@dataclass(frozen=True)
class ExorConfig:
    """Parameters of an ExOR bulk transfer."""

    batch_size: int = 32
    payload_bytes: int = 1460
    max_rounds: int = 40
    retry_limit_last_hop: int = 8
    #: Airtime charged per forwarding round for batch-map coordination (us).
    batch_map_overhead_us: float = 200.0
    #: Candidate forwarders must have a usable (loss < 90%) link from the
    #: source or to the destination to be included.
    probe_rate_mbps: float = 6.0
    #: Use SourceSync joint forwarding: every other forwarder holding a
    #: packet joins its transmission (ExOR + SourceSync, §7.2).
    sender_diversity: bool = False
    #: Bursty link dynamics (Gilbert–Elliott bursts and/or a speed × loss
    #: grid).  ``None`` leaves every link static — and every existing RNG
    #: stream untouched.  With a spec, the lane's state trajectory is drawn
    #: from the transfer's generator before the first delivery draw and
    #: every delivery probability is modulated by the per-slot link
    #: multipliers; the draw *counts* of all phases are unchanged.
    dynamics: LinkDynamics | None = None


@dataclass
class ExorResult:
    """Outcome of one ExOR batch transfer."""

    throughput_mbps: float
    delivered_packets: int
    total_packets: int
    transmissions: int
    rounds: int
    forwarders: tuple[int, ...]
    joint_transmissions: int = 0
    #: Total medium time consumed by the transfer; the traffic layer reads
    #: this as the flow's service time (throughput alone cannot recover it
    #: when nothing was delivered).
    elapsed_us: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        """Fraction of the batch delivered to the destination."""
        if self.total_packets == 0:
            return 0.0
        return self.delivered_packets / self.total_packets


def exor_priority(
    testbed: Testbed,
    relays: list[int],
    src: int,
    dst: int,
    config: ExorConfig,
) -> list[int]:
    """Forwarder priority list for one ExOR transfer, source last.

    Computed once per (testbed, probe rate, probe length, candidate set,
    destination) and memoised on the testbed: both schemes of a topology
    (plain ExOR and ExOR + SourceSync) share the identical ETX graph and
    forwarder ordering, so neither is recomputed for every transfer.
    """
    candidates = tuple(node for node in relays if node not in (src, dst))

    def build() -> tuple[int, ...]:
        graph = etx_graph(
            testbed, probe_rate_mbps=config.probe_rate_mbps, probe_bytes=config.payload_bytes
        )
        # The source acts as the lowest-priority forwarder: it keeps
        # re-broadcasting packets that no relay (and not the destination)
        # has received yet, exactly as in ExOR's scheduler.
        return (*forwarder_order(graph, list(candidates), dst), src)

    key = ("exor_priority", config.probe_rate_mbps, config.payload_bytes, candidates, src, dst)
    return list(testbed.memo(key, build))
