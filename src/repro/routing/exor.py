"""ExOR opportunistic routing (Biswas & Morris, SIGCOMM 2005) — baseline (b) of §8.4.

ExOR exploits *receiver* diversity: the source broadcasts each packet of a
batch, and whichever candidate forwarder closest (in ETX) to the destination
received it forwards it next.  Our implementation follows the structure the
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

The SourceSync extension (:mod:`repro.routing.exor_sourcesync`) reuses this
scheduler and changes only what happens when a forwarder transmits: all
other forwarders holding the packet join the transmission.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.dynamics import LinkDynamics, LinkStateTrajectory, materialise_trajectory
from repro.net.etx import etx_graph, etx_to_destination, forwarder_order
from repro.net.mac import CsmaState, MacTiming
from repro.net.topology import Testbed
from repro.phy.rates import Rate, rate_for_mbps
from repro.rng import require_rng

__all__ = ["ExorConfig", "ExorResult", "exor_priority", "simulate_exor"]


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
    #: Use SourceSync joint forwarding (set by the exor_sourcesync wrapper).
    sender_diversity: bool = False
    #: Bursty link dynamics (Gilbert–Elliott bursts and/or a speed × loss
    #: grid).  ``None`` leaves every link static — and every existing RNG
    #: stream untouched.  With a spec, the lane's state trajectory is one
    #: upfront draw from the transfer's generator and every delivery
    #: probability is modulated by the per-slot link multipliers; the draw
    #: *counts* of all phases are unchanged, which is what keeps the
    #: lockstep engine bit-identical to this sequential path.
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
    forwarder ordering, so neither is recomputed inside every
    :func:`simulate_exor` call.
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


def simulate_exor(
    testbed: Testbed,
    src: int,
    dst: int,
    rate_mbps: float,
    relays: list[int],
    config: ExorConfig | None = None,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
) -> ExorResult:
    """Simulate one ExOR batch transfer from ``src`` to ``dst`` via ``relays``.

    With ``config.sender_diversity`` enabled, every forwarder that already
    holds a packet joins the transmission of the lead forwarder
    (SourceSync, §7.2); the joint delivery probability uses the combined
    per-subcarrier SNR of the participating senders, and the extra
    synchronization airtime of §4.4 is charged on every joint transmission.
    """
    config = config if config is not None else ExorConfig()
    rng = require_rng(rng, "simulate_exor")
    timing = timing if timing is not None else MacTiming(params=testbed.params)
    rate: Rate = rate_for_mbps(rate_mbps)

    priority = exor_priority(testbed, relays, src, dst, config)
    # The ETX priming above materialised every link profile, so the dense
    # probability matrix can be built without consuming the generator; the
    # per-attempt probability lookups below become array gathers.
    testbed.delivery_prob_matrix(rate, config.payload_bytes)

    # Bursty link dynamics: the whole trajectory is one upfront draw from
    # the transfer's generator, made *after* priming and before the first
    # delivery draw — the stream position the lockstep engine reproduces.
    trajectory: LinkStateTrajectory | None = None
    if config.dynamics is not None:
        trajectory = materialise_trajectory(
            config.dynamics, testbed.node_ids, rate_mbps, rng
        )

    # Who holds which packet.  The destination is the highest-priority
    # "holder"; once it has a packet nobody forwards that packet again.
    batch = list(range(config.batch_size))
    holds: dict[int, set[int]] = {node: set() for node in [dst, *priority]}
    holds[src] = set(batch)

    mac = CsmaState()
    joint_count = 0
    single_airtime = timing.single_transaction_us(config.payload_bytes, rate, with_ack=False)

    def charge(n_cosenders: int) -> float:
        if n_cosenders > 0:
            return timing.joint_transaction_us(
                config.payload_bytes, rate, n_cosenders, with_ack=False
            )
        return single_airtime

    def receivers_for(packet_id: int, sender_priority_index: int) -> list[int]:
        """Nodes that could usefully receive this packet (closer to dst + dst)."""
        downstream = [dst] + priority[:sender_priority_index]
        return [node for node in downstream if packet_id not in holds[node]]

    # ------------------------------------------------------------------
    # Source broadcast phase: the source sends every packet of the batch
    # once; all forwarders and the destination overhear probabilistically.
    # The whole packet-by-receiver outcome matrix comes from one Bernoulli
    # draw, the uniform stream of a per-packet, per-listener scalar loop.
    # ------------------------------------------------------------------
    listeners = [node for node in [dst, *priority] if node != src]
    probs = testbed.delivery_probs(src, listeners, rate, config.payload_bytes)[None, :]
    if trajectory is not None:
        # Per-slot link multipliers: packet k transmits at slot k.
        probs = probs * trajectory.rows(mac.transmissions, config.batch_size, src, listeners)
    outcomes = rng.random((config.batch_size, len(listeners))) < probs
    for packet_id in batch:
        # A broadcast succeeds when any targeted listener received it;
        # throughput only reads elapsed_us, so the success flag affects
        # CsmaState.failures alone.
        mac.account(single_airtime, bool(outcomes[packet_id].any()))
        for col, node in enumerate(listeners):
            if outcomes[packet_id, col]:
                holds[node].add(packet_id)

    # ------------------------------------------------------------------
    # Forwarding rounds in priority order.
    # ------------------------------------------------------------------
    rounds = 0
    progress = True
    while rounds < config.max_rounds and len(holds[dst]) < config.batch_size and progress:
        rounds += 1
        progress = False
        mac.elapsed_us += config.batch_map_overhead_us
        for index, forwarder in enumerate(priority):
            higher = [dst] + priority[:index]
            pending = sorted(
                pid for pid in holds[forwarder]
                if all(pid not in holds[h] for h in higher)
            )
            for packet_id in pending:
                senders = [forwarder]
                if config.sender_diversity:
                    # Every other candidate forwarder (including the source,
                    # which is the lowest-priority forwarder) that already
                    # holds the packet joins the transmission (§7.2).
                    joiners = [
                        other for other in priority
                        if other != forwarder and packet_id in holds[other]
                    ]
                    senders = [forwarder, *joiners]
                airtime = charge(len(senders) - 1)
                if len(senders) > 1:
                    joint_count += 1
                receivers = receivers_for(packet_id, index)
                probs = testbed.delivery_probs(senders, receivers, rate, config.payload_bytes)
                if trajectory is not None:
                    probs = probs * trajectory.receiver_multipliers(
                        mac.transmissions, senders, receivers
                    )
                # One uniform per receiver; a lone receiver's is a scalar draw.
                if len(receivers) == 1:
                    delivered = [bool(rng.random() < probs[0])]
                else:
                    delivered = (rng.random(len(receivers)) < probs).tolist()
                # As in the broadcast phase: success means some targeted
                # receiver got the packet (the forwarding analogue of a
                # missing ACK), not merely that airtime was spent.
                mac.account(airtime, any(delivered))
                for node, ok in zip(receivers, delivered):
                    if ok:
                        holds[node].add(packet_id)
                        progress = True

    # ------------------------------------------------------------------
    # Cleanup phase: ExOR hands the stragglers to traditional routing;
    # we model it as direct retransmissions from the best-placed holder.
    # ------------------------------------------------------------------
    missing = [pid for pid in batch if pid not in holds[dst]]
    for packet_id in missing:
        holders = [node for node in priority if packet_id in holds[node]]
        if not holders:
            continue
        sender = holders[0]
        for _ in range(config.retry_limit_last_hop):
            senders = [sender]
            if config.sender_diversity:
                joiners = [n for n in holders[1:]]
                senders = [sender, *joiners]
            airtime = charge(len(senders) - 1)
            if len(senders) > 1:
                joint_count += 1
            probs = testbed.delivery_probs(senders, [dst], rate, config.payload_bytes)
            if trajectory is not None:
                # The slot clock advances every attempt.
                probs = probs * trajectory.receiver_multipliers(mac.transmissions, senders, [dst])
            success = bool(rng.random() < probs[0])
            mac.account(airtime, success)
            if success:
                holds[dst].add(packet_id)
                break

    delivered = len(holds[dst])
    throughput = mac.throughput_mbps(delivered * config.payload_bytes * 8)
    return ExorResult(
        throughput_mbps=throughput,
        delivered_packets=delivered,
        total_packets=config.batch_size,
        transmissions=mac.transmissions,
        rounds=rounds,
        forwarders=tuple(priority),
        joint_transmissions=joint_count,
        elapsed_us=mac.elapsed_us,
    )
