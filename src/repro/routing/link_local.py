"""Link-local retransmission with graceful end-to-end fallback.

A LinkGuardian-style protection scheme, the fourth routing scheme beside
single path, ExOR and ExOR+SourceSync: packets follow the minimum-ETX
route, but every hop keeps the packet in a *sender-side buffer* and
retransmits it **locally and immediately** on loss — up to a bounded
local retry budget, with a deterministic timeout/backoff charged in
airtime units before each local retransmission.  When a hop exhausts its
local budget the scheme *degrades gracefully to end-to-end recovery*: the
source restarts the whole packet (up to ``e2e_retry_limit`` times) before
declaring it lost.

Local recovery pays a small per-retry timeout instead of re-traversing
the route, so under short loss bursts it beats plain per-hop retry; under
long bursts the local budget exhausts into the (expensive) end-to-end
path — exactly the ARQ-vs-diversity tradeoff the ``fig20_link_dynamics``
experiment quantifies against ExOR+SourceSync.

Single-path routing (:mod:`repro.routing.single_path`) is the special
case with no backoff wait and no end-to-end restart, so both schemes run
the one :func:`_transfer` loop.  The best route is memoised on the
testbed, so both schemes over one topology route once.

Determinism: one scalar uniform per transmission attempt, in packet →
end-to-end attempt → hop → local-retry order; the backoff is a pure
function of the attempt index (no RNG).  With dynamics, the link-state
trajectory is one draw after routing and before the first attempt.  The
ensemble entry point
(:func:`repro.routing.ensemble.simulate_link_local_ensemble`) calls
:func:`simulate_link_local` once per lane in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.channel.dynamics import LinkDynamics, LinkStateTrajectory, materialise_trajectory
from repro.net.etx import best_route, etx_graph
from repro.net.mac import CsmaState, MacTiming
from repro.net.topology import Testbed
from repro.phy.rates import Rate, rate_for_mbps
from repro.rng import require_rng

__all__ = ["LinkLocalConfig", "LinkLocalResult", "simulate_link_local"]


@dataclass(frozen=True)
class LinkLocalConfig:
    """Parameters of a link-local-recovery bulk transfer.

    ``local_retry_limit`` counts the *extra* local retransmissions after a
    hop's first attempt (0 = no local protection); before local
    retransmission ``k`` (1-based) the sender waits a deterministic
    timeout of ``timeout_fraction × airtime × backoff_factor^(k-1)`` —
    charged as elapsed medium time, never drawn from the RNG.
    ``e2e_retry_limit`` bounds how often the source restarts a packet
    whose protection budget was exhausted mid-route.
    """

    payload_bytes: int = 1460
    local_retry_limit: int = 4
    e2e_retry_limit: int = 2
    timeout_fraction: float = 0.25
    backoff_factor: float = 2.0
    probe_rate_mbps: float = 6.0
    dynamics: LinkDynamics | None = None

    def __post_init__(self) -> None:
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.local_retry_limit < 0 or self.e2e_retry_limit < 0:
            raise ValueError("retry limits must be non-negative")
        if self.timeout_fraction < 0:
            raise ValueError("timeout_fraction must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1 (backoff never shrinks)")

    @property
    def attempts_per_hop(self) -> int:
        """Transmission attempts one hop makes per end-to-end pass."""
        return 1 + self.local_retry_limit

    @property
    def e2e_passes(self) -> int:
        """End-to-end passes one packet may take (first pass + retries)."""
        return 1 + self.e2e_retry_limit


@dataclass(frozen=True)
class LinkLocalResult:
    """Outcome of one link-local-recovery bulk transfer."""

    throughput_mbps: float
    delivered_packets: int
    total_packets: int
    transmissions: int
    #: Local (hop-level) retransmissions — attempts beyond each hop's first.
    local_retransmissions: int
    #: End-to-end restarts taken after a hop exhausted its local budget.
    e2e_retries: int
    route: tuple[int, ...]
    #: Total medium time consumed, including the deterministic backoff
    #: waits (the traffic layer's per-flow service time).
    elapsed_us: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        """Fraction of packets that reached the destination."""
        if self.total_packets == 0:
            return 0.0
        return self.delivered_packets / self.total_packets


def _transfer(
    hops: Sequence[tuple[int, int, float]],
    n_packets: int,
    config: LinkLocalConfig,
    trajectory: LinkStateTrajectory | None,
    per_attempt_us: float,
    rng: np.random.Generator,
) -> tuple[CsmaState, int, int, int]:
    """Run the transfer loop: one scalar uniform from ``rng`` per attempt.

    The one transfer loop of both :func:`simulate_link_local` and
    :func:`repro.routing.single_path.simulate_single_path`; ``hops`` lists
    ``(sender, receiver, delivery probability)`` along the route.  The MAC
    counters accumulate in locals in per-attempt order (backoff wait, then
    airtime), so the floats equal a :meth:`CsmaState.account` per attempt.
    Returns ``(mac, delivered, local_retransmissions, e2e_retries)``.
    """
    if per_attempt_us < 0:
        raise ValueError("airtime must be non-negative")
    draw = rng.random
    e2e_retry_limit = config.e2e_retry_limit
    # One entry per attempt of a hop: the first waits for nothing, local
    # retransmission k (1-based) first waits a deterministic timeout,
    # charged in airtime units.
    timeout_us = config.timeout_fraction * per_attempt_us
    schedule = [None] + [
        timeout_us * config.backoff_factor ** k for k in range(config.local_retry_limit)
    ]
    elapsed_us = 0.0
    transmissions = hop_successes = 0
    delivered = local_retransmissions = e2e_retries = 0
    for _ in range(n_packets):
        for e2e_pass in range(config.e2e_passes):
            for hop_src, hop_dst, prob in hops:
                for wait in schedule:
                    if wait is not None:
                        elapsed_us += wait
                        local_retransmissions += 1
                    if trajectory is None:
                        effective = prob
                    else:
                        effective = prob * trajectory.pair_multiplier(
                            transmissions, hop_src, hop_dst
                        )
                    got_through = draw() < effective
                    elapsed_us += per_attempt_us
                    transmissions += 1
                    if got_through:
                        hop_successes += 1
                        break
                else:
                    break  # the hop spent its local budget: this pass fails
            else:
                delivered += 1  # every hop got through
                break
            if e2e_pass < e2e_retry_limit:
                # Graceful degradation: the local budget is spent, so the
                # source recovers end to end by restarting the packet.
                e2e_retries += 1
    mac = CsmaState(
        elapsed_us=elapsed_us,
        transmissions=transmissions,
        failures=transmissions - hop_successes,
    )
    return mac, delivered, local_retransmissions, e2e_retries


def simulate_link_local(
    testbed: Testbed,
    src: int,
    dst: int,
    rate_mbps: float,
    n_packets: int = 100,
    config: LinkLocalConfig | None = None,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
) -> LinkLocalResult:
    """Simulate a bulk transfer with link-local recovery over the best route.

    Every hop protects the packet with up to ``config.local_retry_limit``
    immediate local retransmissions (deterministic timeout/backoff per
    retry); a hop that exhausts its budget hands recovery back to the
    source, which restarts the packet end to end up to
    ``config.e2e_retry_limit`` times.  With ``config.dynamics`` set, the
    link-state trajectory is drawn from ``rng`` in one stream position
    (after routing, before the first attempt) and every hop probability is
    modulated by the current slot's multiplier.
    """
    config = config if config is not None else LinkLocalConfig()
    rng = require_rng(rng, "simulate_link_local")
    timing = timing if timing is not None else MacTiming(params=testbed.params)
    rate: Rate = rate_for_mbps(rate_mbps)

    def build_route() -> tuple[int, ...]:
        graph = etx_graph(
            testbed, probe_rate_mbps=config.probe_rate_mbps, probe_bytes=config.payload_bytes
        )
        return tuple(best_route(graph, src, dst) or ())

    route = testbed.memo(
        ("best_route", config.probe_rate_mbps, config.payload_bytes, src, dst), build_route
    )
    if len(route) < 2:
        return LinkLocalResult(0.0, 0, n_packets, 0, 0, 0, route)
    # The one trajectory draw sits after the route check and before the
    # first attempt.
    trajectory = None
    if config.dynamics is not None:
        trajectory = materialise_trajectory(
            config.dynamics, testbed.node_ids, rate_mbps, rng
        )

    hops = [
        (a, b, testbed.delivery_probability(a, b, rate, config.payload_bytes))
        for a, b in zip(route[:-1], route[1:])
    ]
    per_attempt_us = timing.single_transaction_us(config.payload_bytes, rate)
    mac, delivered, local_retransmissions, e2e_retries = _transfer(
        hops, n_packets, config, trajectory, per_attempt_us, rng
    )
    return LinkLocalResult(
        throughput_mbps=mac.throughput_mbps(delivered * config.payload_bytes * 8),
        delivered_packets=delivered,
        total_packets=n_packets,
        transmissions=mac.transmissions,
        local_retransmissions=local_retransmissions,
        e2e_retries=e2e_retries,
        route=route,
        elapsed_us=mac.elapsed_us,
    )
