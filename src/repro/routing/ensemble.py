"""Lockstep mesh-ensemble execution of the ExOR / network layer.

The sender-diversity routing experiments (§8.4, Fig. 18; §8.3, Fig. 17)
are Monte-Carlo loops over *independent* topologies or client placements.
PRs 1 and 3 batched the PHY pipeline and the joint-frame core, but each
topology's ExOR transfer still ran a pure-Python event loop: per packet,
per receiver, one dict-keyed probability lookup and one scalar Bernoulli
draw.  This module advances many transfers *in lockstep* instead,
following the same pattern as :mod:`repro.core.ensemble`:

* link realisations of every testbed are materialised with per-testbed
  draws in the canonical all-pairs order, while the surrounding pure
  compute (tap normalisation, FFTs, the EESM/waterfall mapping) runs once
  over the stacked rows of the whole ensemble
  (:func:`prime_testbeds_lockstep`, which runs
  :func:`repro.net.topology.prime_delivery_caches`);
* each ExOR phase becomes masked Bernoulli matrix draws against the dense
  per-testbed probability tables
  (:meth:`repro.net.topology.Testbed.delivery_prob_matrix` and the
  frozen-sender-set joint rows): the source-broadcast phase is one
  ``(batch, listeners)`` draw, a forwarding turn is one
  ``(pending, receivers)`` draw, and holds live in a boolean
  ``(node, packet)`` array per lane instead of per-packet Python sets;
* the last-hop downlink loops of Fig. 17 advance placements in waves over
  packets with the SampleRate statistics of all lanes held in stacked
  arrays (:func:`simulate_downlink_ensemble`).

Single-path and link-local transfers stop each hop at its first
acknowledged attempt, so their uniforms cannot merge into stacked draws.
Their ensemble entry points (:func:`simulate_single_path_ensemble`,
:func:`simulate_link_local_ensemble`) call the sequential simulators once
per lane in input order; both run the one transfer loop of
:mod:`repro.routing.link_local`.

Heterogeneous lanes
-------------------
Lanes of one ensemble call do not have to be uniform: ExOR lanes may mix
batch sizes, topology sizes, rates and retry depths, and downlink lanes
may mix packet counts and retry limits.  The scheduler advances every
lane at its own pace inside one lockstep schedule — a lane that runs out
of packets (or stalls) simply stops participating in the stacked draws
while the rest continue.

Determinism contract
--------------------
Every RNG draw is made from the owning lane's generator in exactly the
order the sequential code would make it: a turn's flattened
packet-by-receiver draw consumes the same uniform stream as the loop of
per-packet draws of :func:`repro.routing.exor.simulate_exor`, and
stages that cannot merge draws (last-hop cleanup retries, downlink
attempt loops) keep per-lane scalar draws in sequential order.  A
lockstep run over lanes ``[l1, ..., ln]`` therefore produces *bit
identical* results to running each lane's sequential simulation to
completion, which ``tests/engine/test_exor_ensemble.py`` asserts.

Two lanes may share one generator only when they are *chained*: a lane
constructed with ``after=<other lane>`` does not start (neither its
setup nor its first draw) until the referenced lane has fully finished,
so the shared stream is consumed in exactly the sequential order.  This
is how Fig. 18 runs plain ExOR and then ExOR + SourceSync on the same
topology, and Fig. 17 runs the best-AP and SourceSync schemes of one
placement, as a single ensemble call::

    exor  = ExorLane(testbed, src, dst, rate, relays, config, rng)
    joint = ExorLane(testbed, src, dst, rate, relays, joint_config, rng,
                     after=exor)
    exor_result, joint_result = simulate_exor_ensemble([exor, joint])

Unchained lanes must use distinct generators; the engines reject
ensembles that violate the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.error_models import delivery_probabilities_rates
from repro.channel.dynamics import LinkStateTrajectory, materialise_trajectory
from repro.engine import Lane, LockstepScheduler, resolve_chains
from repro.lasthop.controller import SourceSyncController
from repro.lasthop.rate_adaptation import SampleRate
from repro.lasthop.simulation import LastHopResult
from repro.net.etx import etx_graph
from repro.net.mac import MacTiming
from repro.net.topology import Testbed, prime_delivery_caches
from repro.phy.rates import Rate, rate_for_mbps, rates_sorted
from repro.routing.exor import ExorConfig, ExorResult, exor_priority
from repro.routing.link_local import LinkLocalConfig, LinkLocalResult, simulate_link_local
from repro.routing.single_path import SinglePathResult, simulate_single_path

__all__ = [
    "ExorLane",
    "DownlinkLane",
    "LinkLocalLane",
    "prime_testbeds_lockstep",
    "simulate_exor_ensemble",
    "simulate_single_path_ensemble",
    "simulate_link_local_ensemble",
    "simulate_downlink_ensemble",
]


def prime_testbeds_lockstep(
    testbeds: list[Testbed], rate: Rate | float, payload_bytes: int = 1460
) -> None:
    """Prime the delivery caches of a routing ensemble's testbeds.

    The routing-side entry to
    :func:`repro.net.topology.prime_delivery_caches`, which does the work;
    the lanes, fig18 and the flow service prime through it, and
    perfbench's ``routing.prime_s`` span times it by this name.
    """
    prime_delivery_caches(testbeds, rate, payload_bytes)


# ----------------------------------------------------------------------
# ExOR batch transfers in lockstep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExorLane:
    """One ExOR batch transfer to advance inside the lockstep ensemble.

    ``after`` chains this lane behind another lane of the same ensemble
    call: it starts only once that lane has fully finished (including its
    last-hop cleanup), which is the only way two lanes may share one
    generator.  Lanes may otherwise differ freely in batch size, topology,
    rate and retry depth.
    """

    testbed: Testbed
    src: int
    dst: int
    rate_mbps: float
    relays: list[int]
    config: ExorConfig
    rng: np.random.Generator
    timing: MacTiming | None = None
    after: "ExorLane | None" = None


def _wrap_lanes(specs: list, factory) -> list[Lane]:
    """Wrap spec dataclasses as engine lanes, remapping ``after`` chains.

    A spec whose ``after`` points outside the ensemble keeps the foreign
    object as the wrapper's ``after``, so the scheduler's membership check
    rejects it with the same error the private resolver used to raise.
    """
    wrappers = [factory(spec) for spec in specs]
    by_id = {id(spec): wrapper for spec, wrapper in zip(specs, wrappers)}
    for spec, wrapper in zip(specs, wrappers):
        if spec.after is not None:
            wrapper.after = by_id.get(id(spec.after), spec.after)
    return wrappers


def _bit_indices(mask: int) -> list[int]:
    """Ascending positions of the set bits of a packet bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass
class _ExorLaneState:
    """Mutable per-lane execution state of the lockstep scheduler.

    Holds are packet *bitmasks*, one integer per holder (destination
    first, then the forwarder priority order) — the boolean
    ``(node, packet)`` view flattened into machine words, so the
    per-round pending/receiver bookkeeping that dominated the sequential
    profile becomes a handful of integer operations.
    """

    lane: ExorLane
    rate: Rate
    priority: list[int]
    holders: list[int]  #: receiver axis: destination first, then priority
    holds: list[int]  #: per-holder packet bitmask
    single_probs: list[list[float]]  #: per forwarder index, probabilities to rows 0..index
    single_airtime: float
    airtime_by_cosenders: list[float]
    #: Materialised link-state trajectory (``None`` = static links); the
    #: lane's transmission counter is the slot clock, exactly as in the
    #: sequential path.
    trajectory: LinkStateTrajectory | None = None
    elapsed_us: float = 0.0
    transmissions: int = 0
    failures: int = 0
    joint_count: int = 0
    rounds: int = 0
    progress: bool = True
    #: joint probability rows over the holder axis, keyed by sender bitmask
    joint_rows: dict[int, list] = field(default_factory=dict)

    @property
    def delivered(self) -> int:
        """Number of batch packets the destination currently holds."""
        return self.holds[0].bit_count()

    @property
    def active(self) -> bool:
        """Whether the transfer still has forwarding rounds to run."""
        config = self.lane.config
        return (
            self.rounds < config.max_rounds
            and self.delivered < config.batch_size
            and self.progress
        )


def _lane_state(
    lane: ExorLane, trajectory: LinkStateTrajectory | None = None
) -> _ExorLaneState:
    testbed, config = lane.testbed, lane.config
    timing = lane.timing if lane.timing is not None else MacTiming(params=testbed.params)
    rate = rate_for_mbps(lane.rate_mbps)
    priority = exor_priority(testbed, lane.relays, lane.src, lane.dst, config)
    holders = [lane.dst, *priority]
    holds = [0] * len(holders)
    holds[holders.index(lane.src)] = (1 << config.batch_size) - 1  # source holds the batch
    single = timing.single_transaction_us(config.payload_bytes, rate, with_ack=False)
    airtimes = [single] + [
        timing.joint_transaction_us(config.payload_bytes, rate, n, with_ack=False)
        for n in range(1, len(priority))
    ]
    # ETX priming materialised every link profile, so building the dense
    # table consumes no draws; the rows below are gathers from it.
    testbed.delivery_prob_matrix(rate, config.payload_bytes)
    single_probs = [
        testbed.delivery_probs(forwarder, holders[: index + 1], rate, config.payload_bytes).tolist()
        for index, forwarder in enumerate(priority)
    ]
    return _ExorLaneState(
        lane=lane,
        rate=rate,
        priority=priority,
        holders=holders,
        holds=holds,
        single_probs=single_probs,
        single_airtime=single,
        airtime_by_cosenders=airtimes,
        trajectory=trajectory,
    )


def _joint_probs(state: _ExorLaneState, bitmask: int, forwarder_index: int, n_receivers: int) -> list:
    """Joint delivery probabilities of one sender set towards the first receivers.

    ``bitmask`` sets bit ``i`` for every member ``priority[i]`` of the
    sender set; rows are cached per mask and extended lazily so each
    (sender set, receiver) entry is computed exactly when — and in the
    sender order — the sequential scheduler would first need it.
    """
    row = state.joint_rows.get(bitmask)
    if row is None:
        row = [None] * len(state.holders)
        state.joint_rows[bitmask] = row
    missing = [k for k in range(n_receivers) if row[k] is None]
    if missing:
        senders = [state.priority[forwarder_index]] + [
            state.priority[i]
            for i in range(len(state.priority))
            if i != forwarder_index and bitmask >> i & 1
        ]
        values = state.lane.testbed.joint_delivery_prob_row(
            senders,
            [state.holders[k] for k in missing],
            state.rate,
            state.lane.config.payload_bytes,
        )
        for k, value in zip(missing, values.tolist()):
            row[k] = value
    return row[:n_receivers]


def _broadcast_wave(state: _ExorLaneState) -> None:
    """Source-broadcast phase: one Bernoulli matrix draw for the whole batch."""
    lane, config = state.lane, state.lane.config
    listener_rows = [k for k, node in enumerate(state.holders) if node != lane.src]
    listeners = [state.holders[k] for k in listener_rows]
    probs = lane.testbed.delivery_probs(lane.src, listeners, state.rate, config.payload_bytes)[None, :]
    if state.trajectory is not None:
        # Packet k transmits at slot k, as in the sequential path.
        probs = probs * state.trajectory.rows(
            state.transmissions, config.batch_size, lane.src, listeners
        )
    outcomes = lane.rng.random((config.batch_size, len(listener_rows))) < probs
    holds = state.holds
    failures = 0
    for packet_id, row in enumerate(outcomes.tolist()):
        bit = 1 << packet_id
        heard = False
        for col, hit in enumerate(row):
            if hit:
                holds[listener_rows[col]] |= bit
                heard = True
        if not heard:
            failures += 1
    state.transmissions += config.batch_size
    state.failures += failures
    for _ in range(config.batch_size):  # per-packet accumulation order
        state.elapsed_us += state.single_airtime


def _forwarding_turn(state: _ExorLaneState, index: int, higher_or: int) -> int:
    """One forwarder's turn: a flattened packet-by-receiver Bernoulli draw.

    The flattened ``(pending, receivers)`` draw consumes the lane
    generator exactly as the per-packet forwarding draws of
    :func:`~repro.routing.exor.simulate_exor` do (packets in ascending id order,
    receivers in destination-then-priority order).  Returns the union of
    newly-delivered packet bits so the caller can keep its running
    higher-priority OR current.
    """
    config = state.lane.config
    holds = state.holds
    pending_bits = holds[index + 1] & ~higher_or
    if not pending_bits:
        return 0
    pending = _bit_indices(pending_bits)
    n_pending, n_receivers = len(pending), index + 1
    if config.sender_diversity:
        base = 1 << index
        masks = [base] * n_pending
        for i in range(len(state.priority)):
            if i == index:
                continue
            overlap = holds[i + 1] & pending_bits
            if overlap:
                joiner_bit = 1 << i
                for k, packet_id in enumerate(pending):
                    if overlap >> packet_id & 1:
                        masks[k] |= joiner_bit
        prob_rows = []
        airtimes = []
        for mask in masks:
            if mask == base:
                prob_rows.append(state.single_probs[index])
                airtimes.append(state.single_airtime)
            else:
                prob_rows.append(_joint_probs(state, mask, index, n_receivers))
                n_cosenders = mask.bit_count() - 1
                airtimes.append(state.airtime_by_cosenders[n_cosenders])
                state.joint_count += 1
    else:
        prob_rows = None
        single_row = state.single_probs[index]
        airtimes = None
    traj = state.trajectory
    receiver_nodes = state.holders[:n_receivers] if traj is not None else None
    draws = state.lane.rng.random(n_pending * n_receivers).tolist()
    newly = [0] * n_receivers
    failures = 0
    elapsed = state.elapsed_us
    position = 0
    for k in range(n_pending):
        row = prob_rows[k] if prob_rows is not None else single_row
        if traj is not None:
            # Packet k of the turn transmits at slot transmissions + k; the
            # sender list is rebuilt exactly as the sequential scheduler's
            # (forwarder first, then joiners in priority order) so the
            # modulated probabilities are the same floats.
            if config.sender_diversity:
                mask = masks[k]
                senders = [state.priority[index]] + [
                    state.priority[i]
                    for i in range(len(state.priority))
                    if i != index and mask >> i & 1
                ]
            else:
                senders = [state.priority[index]]
            mult = traj.receiver_multipliers(
                state.transmissions + k, senders, receiver_nodes
            )
            row = (np.asarray(row) * mult).tolist()
        bit = 1 << pending[k]
        delivered_any = False
        for r in range(n_receivers):
            if draws[position] < row[r]:
                newly[r] |= bit
                delivered_any = True
            position += 1
        if not delivered_any:
            failures += 1
        elapsed += airtimes[k] if airtimes is not None else state.single_airtime
    state.elapsed_us = elapsed
    state.transmissions += n_pending
    state.failures += failures
    newly_union = 0
    for r in range(n_receivers):
        if newly[r]:
            holds[r] |= newly[r]
            newly_union |= newly[r]
    if newly_union:
        state.progress = True
    return newly_union


def _cleanup(state: _ExorLaneState) -> None:
    """Last-hop cleanup: per-packet retries, scalar draws in sequential order."""
    lane, config = state.lane, state.lane.config
    holds = state.holds
    rng = lane.rng
    traj = state.trajectory
    full = (1 << config.batch_size) - 1
    for packet_id in _bit_indices(~holds[0] & full):
        bit = 1 << packet_id
        holder_indices = [i for i in range(len(state.priority)) if holds[i + 1] & bit]
        if not holder_indices:
            continue
        sender_index = holder_indices[0]
        n_senders = 1
        if config.sender_diversity and len(holder_indices) > 1:
            n_senders = len(holder_indices)
            bitmask = 0
            for i in holder_indices:
                bitmask |= 1 << i
            prob = _joint_probs(state, bitmask, sender_index, 1)[0]
            sender_nodes = [state.priority[i] for i in holder_indices]
        else:
            # Row 0 of a forwarder's single-sender probabilities is the
            # destination (receivers are ordered destination-first).
            prob = state.single_probs[sender_index][0]
            sender_nodes = [state.priority[sender_index]]
        airtime = state.airtime_by_cosenders[n_senders - 1]
        for _ in range(config.retry_limit_last_hop):
            if n_senders > 1:
                state.joint_count += 1
            if traj is None:
                effective = prob
            else:
                # The slot clock advances every attempt, so the modulated
                # probability must be re-read inside the retry loop.
                effective = (
                    prob
                    * traj.receiver_multipliers(
                        state.transmissions, sender_nodes, [lane.dst]
                    )[0]
                )
            success = rng.random() < effective
            state.elapsed_us += airtime
            state.transmissions += 1
            if success:
                holds[0] |= bit
                break
            state.failures += 1


def _prime_lane_caches(lane: ExorLane) -> None:
    """Prime one lane's probe/data caches in its sequential stream position.

    Used when a chained lane activates: when its predecessor already primed
    the shared testbed at the same rates every call below is a memo hit, and
    when it did not, the draws land exactly where the sequential code would
    make them (right after the predecessor's last draw).
    """
    config = lane.config
    prime_testbeds_lockstep([lane.testbed], config.probe_rate_mbps, config.payload_bytes)
    etx_graph(
        lane.testbed,
        probe_rate_mbps=config.probe_rate_mbps,
        probe_bytes=config.payload_bytes,
    )
    prime_testbeds_lockstep([lane.testbed], lane.rate_mbps, config.payload_bytes)


class _ExorEngineLane(Lane):
    """One :class:`ExorLane` spec as a lane on the shared lockstep engine."""

    def __init__(self, spec: ExorLane) -> None:
        self.spec = spec
        self.rng = spec.rng
        self.after = None  # remapped over wrappers by _wrap_lanes
        self._trajectory: LinkStateTrajectory | None = None
        self._state: _ExorLaneState | None = None

    @classmethod
    def prime_lanes(cls, lanes: list["_ExorEngineLane"]) -> None:
        """Batched root priming: grouped cache priming, ETX graphs, trajectories.

        Priming groups by (probe rate, payload) and (data rate, payload) so
        heterogeneous ensembles batch what they can share; building the ETX
        graph and dense matrices afterwards consumes no generator draws.
        Chained lanes prime at activation instead — after their
        predecessor's final draw, as the sequential code would.
        """
        probe_groups: dict[tuple, list[Testbed]] = {}
        data_groups: dict[tuple, list[Testbed]] = {}
        for wrapper in lanes:
            lane = wrapper.spec
            config = lane.config
            probe_groups.setdefault(
                (config.probe_rate_mbps, config.payload_bytes), []
            ).append(lane.testbed)
            data_groups.setdefault((lane.rate_mbps, config.payload_bytes), []).append(lane.testbed)
        for (probe_rate, payload), testbeds in probe_groups.items():
            prime_testbeds_lockstep(testbeds, probe_rate, payload)
        for wrapper in lanes:
            lane = wrapper.spec
            etx_graph(
                lane.testbed,
                probe_rate_mbps=lane.config.probe_rate_mbps,
                probe_bytes=lane.config.payload_bytes,
            )
        for (rate_mbps, payload), testbeds in data_groups.items():
            prime_testbeds_lockstep(testbeds, rate_mbps, payload)
        # Link-state trajectories: root lanes draw now, in their
        # post-priming stream position; chained lanes draw at activation.
        for wrapper in lanes:
            lane = wrapper.spec
            if lane.config.dynamics is not None:
                wrapper._trajectory = materialise_trajectory(
                    lane.config.dynamics, lane.testbed.node_ids, lane.rate_mbps, lane.rng
                )

    def prime(self) -> None:
        """Chained activation: cache priming plus the trajectory draw.

        Both land right after the predecessor's final draw — the shared
        generator's sequential order.
        """
        lane = self.spec
        _prime_lane_caches(lane)
        if lane.config.dynamics is not None:
            self._trajectory = materialise_trajectory(
                lane.config.dynamics, lane.testbed.node_ids, lane.rate_mbps, lane.rng
            )

    def setup(self) -> None:
        """Build the lane's state and run its source-broadcast phase."""
        self._state = _lane_state(self.spec, self._trajectory)
        _broadcast_wave(self._state)

    def advance(self) -> None:
        """One forwarding round: every forwarder takes a turn."""
        state = self._state
        state.rounds += 1
        state.progress = False
        state.elapsed_us += state.lane.config.batch_map_overhead_us
        # Running OR of the higher-priority holders' packets: rows the
        # earlier turns of this round updated are all downstream of the
        # later forwarders, so the union of newly-delivered bits keeps
        # the pending computation current.
        higher_or = state.holds[0]
        for index_fwd in range(len(state.priority)):
            higher_or |= _forwarding_turn(state, index_fwd, higher_or)
            higher_or |= state.holds[index_fwd + 1]

    @property
    def finished(self) -> bool:
        """Whether the transfer has no forwarding rounds left."""
        return not self._state.active

    def result(self) -> ExorResult:
        """Run the (drawing) last-hop cleanup and build the lane's result."""
        state = self._state
        _cleanup(state)
        config = state.lane.config
        delivered = state.delivered
        bits = delivered * config.payload_bytes * 8
        throughput = bits / state.elapsed_us if state.elapsed_us > 0 else 0.0
        return ExorResult(
            throughput_mbps=throughput,
            delivered_packets=delivered,
            total_packets=config.batch_size,
            transmissions=state.transmissions,
            rounds=state.rounds,
            forwarders=tuple(state.priority),
            joint_transmissions=state.joint_count,
            elapsed_us=state.elapsed_us,
        )


def simulate_exor_ensemble(lanes: list[ExorLane]) -> list[ExorResult]:
    """Advance many ExOR batch transfers in lockstep.

    Bit-identical to calling :func:`repro.routing.exor.simulate_exor` once
    per lane with the same arguments — every lane's generator is consumed
    in its sequential order — while the probability priming is batched
    across lanes and each phase runs as stacked array operations.  Lanes
    may be fully heterogeneous (mixed batch sizes, topologies, rates and
    retry depths); chained lanes (``after=...``) start the moment their
    predecessor finishes, so dependent phases sharing one generator advance
    inside the same schedule.  Scheduling is the shared engine's
    (:class:`repro.engine.LockstepScheduler`).

    Example::

        lanes = [ExorLane(tb, 0, 1, 12.0, relays, config, rng)
                 for tb, relays, rng in zip(testbeds, relay_sets, rngs)]
        results = simulate_exor_ensemble(lanes)  # one ExorResult per lane
    """
    if not lanes:
        return []
    return LockstepScheduler().run(_wrap_lanes(lanes, _ExorEngineLane))


# ----------------------------------------------------------------------
# Single-path and link-local transfers
# ----------------------------------------------------------------------
def simulate_single_path_ensemble(
    lanes: list[ExorLane],
    retry_limit: int = 8,
) -> list[SinglePathResult]:
    """Single-path bulk transfers for an ensemble of lanes.

    One :func:`repro.routing.single_path.simulate_single_path` call per
    lane, in input order, with ``n_packets = config.batch_size`` and the
    lane config's payload, probe rate and dynamics.  Each retry loop stops
    at the first acknowledged attempt, so its uniforms cannot merge into a
    stacked draw; lanes sharing a generator are naturally sequential here
    (list them in their dependency order; ``after`` is accepted but not
    needed).
    """
    return [
        simulate_single_path(
            lane.testbed, lane.src, lane.dst, lane.rate_mbps,
            n_packets=lane.config.batch_size,
            payload_bytes=lane.config.payload_bytes,
            retry_limit=retry_limit,
            rng=lane.rng,
            timing=lane.timing,
            probe_rate_mbps=lane.config.probe_rate_mbps,
            dynamics=lane.config.dynamics,
        )
        for lane in lanes
    ]


@dataclass(frozen=True)
class LinkLocalLane:
    """One link-local-recovery bulk transfer for the ensemble entry point.

    Lanes run to completion in input order (the retry structure is
    feedback-bound, like the single-path baseline), so lanes sharing a
    generator are naturally sequential here; ``after`` is accepted — and
    validated by the chaining rules — but carries no scheduling meaning.
    """

    testbed: Testbed
    src: int
    dst: int
    rate_mbps: float
    n_packets: int
    config: LinkLocalConfig
    rng: np.random.Generator
    timing: MacTiming | None = None
    after: "LinkLocalLane | None" = None


def simulate_link_local_ensemble(lanes: list[LinkLocalLane]) -> list[LinkLocalResult]:
    """Link-local-recovery transfers for an ensemble of lanes.

    One :func:`repro.routing.link_local.simulate_link_local` call per lane,
    in input order, after the chaining rules
    (:func:`repro.engine.resolve_chains`) have validated the lanes'
    ``after`` references and generator sharing.
    """
    resolve_chains(lanes)
    return [
        simulate_link_local(
            lane.testbed, lane.src, lane.dst, lane.rate_mbps,
            n_packets=lane.n_packets, config=lane.config, rng=lane.rng, timing=lane.timing,
        )
        for lane in lanes
    ]


# ----------------------------------------------------------------------
# Last-hop downlink placements in lockstep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DownlinkLane:
    """One client placement's downlink stream for the lockstep last hop.

    Lanes may differ freely in ``n_packets`` and ``retry_limit``; a lane
    that runs out of packets stops participating in the stacked waves while
    the rest continue.  ``after`` chains this lane behind another lane of
    the same ensemble call (it starts only when that lane has delivered its
    whole stream), which is the only way two lanes may share one generator
    — e.g. the best-AP and SourceSync schemes of one Fig. 17 placement.
    """

    testbed: Testbed
    controller: SourceSyncController
    client: int
    scheme: str
    rng: np.random.Generator
    n_packets: int = 200
    payload_bytes: int = 1460
    retry_limit: int = 7
    timing: MacTiming | None = None
    after: "DownlinkLane | None" = None


def _lane_senders(lane: DownlinkLane) -> list[int]:
    """Resolve the transmitting APs exactly as :func:`simulate_downlink` does."""
    if lane.scheme == "sourcesync":
        return lane.controller.downlink_senders(lane.client)
    if lane.scheme == "best_ap":
        return [lane.controller.best_single_ap(lane.client)]
    if lane.scheme.startswith("single_ap:"):
        return [int(lane.scheme.split(":", 1)[1])]
    raise ValueError(f"unknown scheme {lane.scheme!r}")


def simulate_downlink_ensemble(lanes: list[DownlinkLane]) -> list[LastHopResult]:
    """Advance many last-hop downlink streams in lockstep.

    Bit-identical to per-lane :func:`repro.lasthop.simulation.simulate_downlink`
    calls: each lane's generator sees the identical draw sequence (the
    SampleRate sampling draw, then one uniform per transmission attempt).
    The SampleRate decision state of every lane is held in stacked arrays,
    per-(sender set, rate) delivery probabilities are precomputed with one
    batched EESM pass per lane, and each retry sub-wave is one stacked
    probability/airtime gather over every lane still attempting — which is
    where the sequential loop spends its time.

    Lanes may be heterogeneous: mixed ``n_packets`` and ``retry_limit``
    values advance in one schedule (a finished lane drops out of the
    waves), and chained lanes (``after=...``) activate — including their
    sender resolution, which may draw — the moment their predecessor's
    stream completes, so dependent schemes sharing one generator run in a
    single ensemble call.

    Example::

        best  = DownlinkLane(testbed, controller, client, "best_ap", rng)
        joint = DownlinkLane(testbed, controller, client, "sourcesync",
                             rng, after=best)
        best_result, joint_result = simulate_downlink_ensemble([best, joint])
    """
    if not lanes:
        return []
    ens = _DownlinkEnsemble(lanes)
    row_of = {id(spec): row for row, spec in enumerate(lanes)}
    wrappers = _wrap_lanes(
        lanes, lambda spec: _DownlinkEngineLane(spec, ens, row_of[id(spec)])
    )
    return LockstepScheduler().run(wrappers)


_WAITING, _ACTIVE, _DONE = -1, 0, 1


class _DownlinkEnsemble:
    """Stacked SampleRate/attempt state shared by one downlink ensemble call.

    One instance holds every lane's decision statistics and progress
    counters as stacked arrays, rows filled at lane activation; `lossless`
    rows start at 1.0 so untouched rows cannot divide by zero (see
    :mod:`repro.lasthop.rate_adaptation` for the sequential counterpart).
    """

    def __init__(self, lanes: list[DownlinkLane]) -> None:
        self.lanes = lanes
        self.rates = rates_sorted()
        self.n_rates = len(self.rates)
        self.sample_every = SampleRate.sample_every
        self.max_failures = SampleRate.max_successive_failures
        n_lanes = len(lanes)
        self.n_packets = np.array([lane.n_packets for lane in lanes], dtype=np.int64)
        self.retry_limits = np.array([lane.retry_limit for lane in lanes], dtype=np.int64)
        self.senders_per_lane: list[list[int] | None] = [None] * n_lanes
        self.prob_table = np.zeros((n_lanes, self.n_rates))
        self.airtime_table = np.zeros((n_lanes, self.n_rates))
        self.lossless = np.ones((n_lanes, self.n_rates))
        self.successes = np.zeros((n_lanes, self.n_rates), dtype=np.int64)
        self.totals = np.zeros((n_lanes, self.n_rates))
        self.streak_failures = np.zeros((n_lanes, self.n_rates), dtype=np.int64)
        self.elapsed = np.zeros(n_lanes)
        self.transmissions = np.zeros(n_lanes, dtype=np.int64)
        self.delivered = np.zeros(n_lanes, dtype=np.int64)
        self.packets_done = np.zeros(n_lanes, dtype=np.int64)
        self.chosen = np.zeros(n_lanes, dtype=np.int64)
        self.status = np.full(n_lanes, _WAITING, dtype=np.int64)

    def resolve(self, row: int) -> np.ndarray:
        """Sender resolution in the lane's sequential stream position.

        May lazily materialise link profiles (generator draws), exactly as
        the sequential loop's controller calls would before its packet loop
        — so a chained lane must not resolve until its predecessor has
        finished.  Returns the lane's (combined) per-subcarrier SNR profile.
        """
        lane = self.lanes[row]
        senders = _lane_senders(lane)
        self.senders_per_lane[row] = senders
        if len(senders) == 1:
            return lane.testbed.link_profile(senders[0], lane.client)
        from repro.analysis.error_models import combined_subcarrier_snr

        return combined_subcarrier_snr(
            [lane.testbed.link_profile(s, lane.client) for s in senders]
        )

    def fill_tables(self, row: int, prob_row: np.ndarray) -> None:
        """Install a resolved lane's probability/airtime rows and activate it."""
        lane = self.lanes[row]
        timing = lane.timing if lane.timing is not None else MacTiming(params=lane.testbed.params)
        self.prob_table[row] = prob_row
        n_cosenders = len(self.senders_per_lane[row]) - 1
        for col, rate in enumerate(self.rates):
            if n_cosenders > 0:
                self.airtime_table[row, col] = timing.joint_transaction_us(
                    lane.payload_bytes, rate, n_cosenders
                )
            else:
                self.airtime_table[row, col] = timing.single_transaction_us(
                    lane.payload_bytes, rate
                )
            self.lossless[row, col] = timing.single_transaction_us(lane.payload_bytes, rate)
        status = _DONE if lane.n_packets <= 0 else _ACTIVE  # degenerate: done at once
        self.status[row] = status

    def current_best(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised SampleRate._current_best over the given lane rows."""
        with np.errstate(divide="ignore", invalid="ignore"):
            average = np.where(
                self.successes[rows] > 0, self.totals[rows] / self.successes[rows], np.inf
            )
        effective = np.where(self.successes[rows] > 0, average, self.lossless[rows] * 1.2)
        effective = np.where(self.streak_failures[rows] >= self.max_failures, np.inf, effective)
        minima = effective.min(axis=1)
        # Ties break towards the higher rate (the sequential sort key is
        # (average, -mbps)); all-excluded lanes fall back to the lowest rate.
        is_min = effective == minima[:, None]
        best = self.n_rates - 1 - np.argmax(is_min[:, ::-1], axis=1)
        return np.where(np.isinf(minima), 0, best)

    def wave(self) -> None:
        """One packet wave: rate choice, retry sub-waves, stats report."""
        lanes, chosen = self.lanes, self.chosen
        active = np.nonzero(self.status == _ACTIVE)[0]
        if active.size == 0:
            return
        chosen[active] = self.current_best(active)
        if self.sample_every > 0:
            due = active[(self.packets_done[active] + 1) % self.sample_every == 0]
            if due.size:
                with np.errstate(divide="ignore", invalid="ignore"):
                    average = np.where(
                        self.successes[due] > 0, self.totals[due] / self.successes[due], np.inf
                    )
                best_average = average[np.arange(due.size), chosen[due]]
                viable = self.lossless[due] < best_average[:, None]
                viable[np.arange(due.size), chosen[due]] = False
                for position, row in enumerate(due.tolist()):
                    options = np.nonzero(viable[position])[0]
                    if options.size == 0:
                        options = np.array(
                            [c for c in range(self.n_rates) if c != chosen[row]]
                        )
                    chosen[row] = options[int(lanes[row].rng.integers(0, options.size))]

        # Hoist the per-wave (lane, rate) gathers once; the retry sub-waves
        # below index these 1-D views by position instead of re-gathering
        # 2-D tables per attempt.
        act_chosen = chosen[active]
        act_prob = self.prob_table[active, act_chosen]
        act_airtime = self.airtime_table[active, act_chosen]
        act_lossless = self.lossless[active, act_chosen]
        act_retry = self.retry_limits[active]

        # Retry sub-waves: every lane still attempting this packet draws one
        # scalar uniform (its sequential order), the probability and airtime
        # gathers run stacked; lanes drop out at success or their own limit.
        success_act = np.zeros(active.size, dtype=bool)
        attempts_act = np.zeros(active.size, dtype=np.int64)
        remaining = np.arange(active.size)
        for attempt in range(int(act_retry.max())):
            if remaining.size == 0:
                break
            rows = active[remaining]
            draws = np.array([lanes[row].rng.random() for row in rows.tolist()])
            succeeded = draws < act_prob[remaining]
            self.elapsed[rows] += act_airtime[remaining]
            self.transmissions[rows] += 1
            attempts_act[remaining] += 1
            success_act[remaining[succeeded]] = True
            remaining = remaining[~succeeded]
            remaining = remaining[act_retry[remaining] > attempt + 1]

        # adapter.report(rate, success, attempts) for every active lane at once
        self.totals[active, act_chosen] += act_lossless * attempts_act
        self.successes[active, act_chosen] += success_act
        self.streak_failures[active, act_chosen] = np.where(
            success_act, 0, self.streak_failures[active, act_chosen] + 1
        )
        self.delivered[active] += success_act
        self.packets_done[active] += 1
        done = active[self.packets_done[active] >= self.n_packets[active]]
        self.status[done] = _DONE


class _DownlinkEngineLane(Lane):
    """Engine lane wrapping one :class:`DownlinkLane` row of the stacked state."""

    stacked = True

    def __init__(self, spec: DownlinkLane, ens: _DownlinkEnsemble, row: int) -> None:
        self.spec = spec
        self.rng = spec.rng
        self.after: "_DownlinkEngineLane | None" = None
        self.ens = ens
        self.row = row
        self._prob_row: np.ndarray | None = None

    @classmethod
    def prime_lanes(cls, lanes: list["_DownlinkEngineLane"]) -> None:
        """Prime root lanes: per-lane sender resolution, stacked EESM pass.

        Sender resolution draws stay per lane in input order, but the EESM
        pass runs stacked across every root sharing a payload size and
        profile width (row-wise bit-identical to the per-lane calls).
        """
        ens = lanes[0].ens
        profiles = {wrapper.row: ens.resolve(wrapper.row) for wrapper in lanes}
        eesm_groups: dict[tuple[int, int], list["_DownlinkEngineLane"]] = {}
        for wrapper in lanes:
            key = (wrapper.spec.payload_bytes, profiles[wrapper.row].size)
            eesm_groups.setdefault(key, []).append(wrapper)
        for (payload_bytes, _), members in eesm_groups.items():
            probs = delivery_probabilities_rates(
                np.vstack([profiles[w.row] for w in members]), ens.rates, payload_bytes
            )
            for wrapper, prob_row in zip(members, probs):
                wrapper._prob_row = prob_row

    def prime(self) -> None:
        """Chained activation: resolve senders (may draw), single-row EESM."""
        profile = self.ens.resolve(self.row)
        self._prob_row = delivery_probabilities_rates(
            profile[None, :], self.ens.rates, self.spec.payload_bytes
        )[0]

    def setup(self) -> None:
        """Install this lane's probability/airtime rows and mark it active."""
        self.ens.fill_tables(self.row, self._prob_row)

    @classmethod
    def advance_lanes(cls, lanes: list["_DownlinkEngineLane"]) -> None:
        """One stacked packet wave over every active row of the shared state."""
        lanes[0].ens.wave()

    @property
    def finished(self) -> bool:
        """Whether this row's stream has delivered (or skipped) every packet."""
        return bool(self.ens.status[self.row] == _DONE)

    def result(self) -> LastHopResult:
        """Assemble this row's :class:`LastHopResult` from the stacked totals."""
        ens, row, lane = self.ens, self.row, self.spec
        bits = int(ens.delivered[row]) * lane.payload_bytes * 8
        throughput = bits / ens.elapsed[row] if ens.elapsed[row] > 0 else 0.0
        return LastHopResult(
            throughput_mbps=float(throughput),
            delivered_packets=int(ens.delivered[row]),
            total_packets=lane.n_packets,
            transmissions=int(ens.transmissions[row]),
            scheme=lane.scheme,
            senders=tuple(ens.senders_per_lane[row]),
        )
