"""Sequential reference loops for the mesh lanes of ``repro.routing.ensemble``.

``src/`` runs every mesh transfer as a lockstep lane: ExOR and
ExOR + SourceSync batches (:class:`~repro.routing.ensemble.ExorLane`), the
last-hop downlink streams of Fig. 17
(:class:`~repro.routing.ensemble.DownlinkLane`) and the flows of the
traffic layer (:func:`repro.traffic.service.simulate_flow_services`).
This module holds plain event loops for the same transfers, one at a time
with per-packet Python sets and scalar draws.  They are the oracle of the
lockstep engine: every lane must reproduce the result of its loop here bit
for bit, under the same generator.

* :func:`simulate_exor` / :func:`simulate_exor_sourcesync` — one ExOR batch
  transfer (§7.2 / §8.4 schemes (b) and (c));
* :func:`simulate_downlink` — one last-hop downlink stream (§8.3);
* :func:`serve_flows` — a workload served flow by flow, every scheme in
  canonical order on the flow's own service stream;
* :func:`exor_lanes_in_sequence` / :func:`downlink_lanes_in_sequence` —
  the loops above applied to a lane list in input order, shaped like the
  ensemble entry points so an experiment can run on them;
* :func:`patch_sequential_mesh` — swaps those stand-ins into the fig17,
  fig18, fig19 and fig20 modules.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.channel.dynamics import LinkStateTrajectory, materialise_trajectory
from repro.lasthop.controller import SourceSyncController
from repro.lasthop.rate_adaptation import SampleRate
from repro.lasthop.simulation import LastHopResult
from repro.net.mac import CsmaState, MacTiming
from repro.net.topology import Testbed
from repro.phy.rates import Rate, rate_for_mbps
from repro.routing.exor import ExorConfig, ExorResult, exor_priority
from repro.routing.link_local import LinkLocalConfig, simulate_link_local
from repro.routing.single_path import simulate_single_path
from repro.rng import require_rng
from repro.traffic.service import SCHEMES, FlowService
from repro.traffic.workload import flow_service_seed


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
    # probability matrix can be built without consuming the generator.
    testbed.delivery_prob_matrix(rate, config.payload_bytes)

    # Bursty link dynamics: the trajectory takes one block of the
    # transfer's generator, *after* priming and before the first delivery
    # draw.
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

    # Source broadcast phase: the source sends every packet of the batch
    # once; all forwarders and the destination overhear probabilistically.
    # The whole packet-by-receiver outcome matrix comes from one Bernoulli
    # draw, the uniform stream of a per-packet, per-listener scalar loop.
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

    # Forwarding rounds in priority order.
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

    # Cleanup phase: ExOR hands the stragglers to traditional routing;
    # modelled as direct retransmissions from the best-placed holder.
    missing = [pid for pid in batch if pid not in holds[dst]]
    for packet_id in missing:
        holders = [node for node in priority if packet_id in holds[node]]
        if not holders:
            continue
        sender = holders[0]
        for _ in range(config.retry_limit_last_hop):
            senders = [sender]
            if config.sender_diversity:
                senders = [sender, *holders[1:]]
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


def simulate_exor_sourcesync(
    testbed: Testbed,
    src: int,
    dst: int,
    rate_mbps: float,
    relays: list[int],
    config: ExorConfig | None = None,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
) -> ExorResult:
    """ExOR + SourceSync over one batch: :func:`simulate_exor` with joint forwarding."""
    joint_config = replace(config if config is not None else ExorConfig(), sender_diversity=True)
    return simulate_exor(
        testbed, src, dst, rate_mbps, relays, config=joint_config, rng=rng, timing=timing
    )


def simulate_downlink(
    testbed: Testbed,
    controller: SourceSyncController,
    client: int,
    scheme: str = "sourcesync",
    n_packets: int = 200,
    payload_bytes: int = 1460,
    retry_limit: int = 7,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
) -> LastHopResult:
    """Simulate a downlink packet stream to one client.

    ``scheme`` is ``"sourcesync"`` (joint multi-AP transmission),
    ``"best_ap"`` (the selective-diversity baseline) or
    ``"single_ap:<id>"`` (one forced AP).
    """
    rng = require_rng(rng, "simulate_downlink")
    timing = timing if timing is not None else MacTiming(params=testbed.params)

    if scheme == "sourcesync":
        senders = controller.downlink_senders(client)
    elif scheme == "best_ap":
        senders = [controller.best_single_ap(client)]
    elif scheme.startswith("single_ap:"):
        senders = [int(scheme.split(":", 1)[1])]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    n_cosenders = len(senders) - 1
    adapter = SampleRate(payload_bytes=payload_bytes, timing=timing, rng=rng)
    mac = CsmaState()
    delivered = 0

    for _ in range(n_packets):
        success = False
        attempts = 0
        rate = adapter.choose_rate()
        while attempts < retry_limit and not success:
            attempts += 1
            if n_cosenders > 0:
                airtime = timing.joint_transaction_us(payload_bytes, rate, n_cosenders)
            else:
                airtime = timing.single_transaction_us(payload_bytes, rate)
            success = testbed.attempt_delivery(senders, client, rate, payload_bytes, rng)
            mac.account(airtime, success)
        adapter.report(rate, success, attempts)
        if success:
            delivered += 1

    throughput = mac.throughput_mbps(delivered * payload_bytes * 8)
    return LastHopResult(
        throughput_mbps=throughput,
        delivered_packets=delivered,
        total_packets=n_packets,
        transmissions=mac.transmissions,
        scheme=scheme,
        senders=tuple(senders),
    )


def serve_flows(
    workload,
    testbed_factory,
    dst: int,
    *,
    schemes=SCHEMES,
    jobs: int = 1,
    chunk_flows: int = 0,
    dynamics=None,
    link_local: LinkLocalConfig | None = None,
) -> dict[str, list[FlowService]]:
    """Serve a workload flow by flow, as ``simulate_flow_services`` defines it.

    Takes the keyword arguments of
    :func:`repro.traffic.service.simulate_flow_services` so it can stand in
    for it; ``jobs`` and ``chunk_flows`` are accepted and ignored (one
    testbed serves every flow).  Each flow runs its schemes in canonical
    order on its own service stream.
    """
    wanted = set(schemes)
    ordered = tuple(scheme for scheme in SCHEMES if scheme in wanted)
    services: dict[str, list[FlowService]] = {scheme: [] for scheme in ordered}
    if not workload.flows:
        return services
    testbed = testbed_factory()
    payload_bytes, rate_mbps = workload.payload_bytes, workload.rate_mbps
    base = ExorConfig(payload_bytes=payload_bytes, dynamics=dynamics)
    ll_config = replace(
        link_local if link_local is not None else LinkLocalConfig(),
        payload_bytes=payload_bytes,
        dynamics=dynamics,
    )
    for flow in workload.flows:
        index, sender, size = flow.index, flow.sender, flow.size_packets
        rng = np.random.default_rng(flow_service_seed(workload.seed, index))
        relays = [n for n in testbed.node_ids if n not in (sender, dst)]
        config = replace(base, batch_size=size)
        for scheme in ordered:
            if scheme == "single_path":
                result = simulate_single_path(
                    testbed, sender, dst, rate_mbps,
                    n_packets=size, payload_bytes=payload_bytes, rng=rng, dynamics=dynamics,
                )
            elif scheme == "exor":
                result = simulate_exor(
                    testbed, sender, dst, rate_mbps, relays, config=config, rng=rng
                )
            elif scheme == "sourcesync":
                result = simulate_exor_sourcesync(
                    testbed, sender, dst, rate_mbps, relays, config=config, rng=rng
                )
            else:
                result = simulate_link_local(
                    testbed, sender, dst, rate_mbps, n_packets=size, config=ll_config, rng=rng
                )
            services[scheme].append(
                FlowService(index, scheme, result.elapsed_us, result.delivered_packets,
                            size, result.transmissions)
            )
    return services


def exor_lanes_in_sequence(lanes) -> list[ExorResult]:
    """:func:`simulate_exor` per :class:`~repro.routing.ensemble.ExorLane`, in input order."""
    return [
        simulate_exor(
            lane.testbed, lane.src, lane.dst, lane.rate_mbps, lane.relays,
            config=lane.config, rng=lane.rng, timing=lane.timing,
        )
        for lane in lanes
    ]


def downlink_lanes_in_sequence(lanes) -> list[LastHopResult]:
    """:func:`simulate_downlink` per :class:`~repro.routing.ensemble.DownlinkLane`, in input order."""
    return [
        simulate_downlink(
            lane.testbed, lane.controller, lane.client, lane.scheme,
            n_packets=lane.n_packets, payload_bytes=lane.payload_bytes,
            retry_limit=lane.retry_limit, rng=lane.rng, timing=lane.timing,
        )
        for lane in lanes
    ]


def patch_sequential_mesh(monkeypatch) -> None:
    """Run fig17–fig20 on the reference loops instead of the lockstep lanes.

    Lanes that share a generator are listed in their chain order, so
    running them one by one in input order replays each generator's
    sequential stream.  fig18's up-front link priming becomes a no-op: the
    loops prime each testbed lazily, in the same canonical pair order.
    The lockstep scheduler is made to raise, so a patched run that still
    reached a lane would fail instead of comparing the lanes to themselves.
    """
    from repro.engine import LockstepScheduler
    from repro.experiments import (
        fig17_lasthop,
        fig18_opportunistic,
        fig19_traffic_load,
        fig20_link_dynamics,
    )

    def no_lockstep(self, lanes):
        raise AssertionError("the sequential mesh oracle reached the lockstep scheduler")

    monkeypatch.setattr(LockstepScheduler, "run", no_lockstep)
    monkeypatch.setattr(fig17_lasthop, "simulate_downlink_ensemble", downlink_lanes_in_sequence)
    monkeypatch.setattr(fig18_opportunistic, "simulate_exor_ensemble", exor_lanes_in_sequence)
    monkeypatch.setattr(fig18_opportunistic, "prime_testbeds_lockstep", lambda *args: None)
    for module in (fig19_traffic_load, fig20_link_dynamics):
        monkeypatch.setattr(module, "simulate_flow_services", serve_flows)
