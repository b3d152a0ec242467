"""Traditional single-path routing baseline (§8.4 scheme (a)).

Packets follow the minimum-ETX route from source to destination; every hop
retransmits until the packet is acknowledged (up to a retry limit), exactly
like 802.11 unicast forwarding.  Throughput is the delivered payload over
the total medium time consumed by all transmissions on all hops.

This is link-local recovery (:mod:`repro.routing.link_local`) with
``retry_limit`` attempts per hop, no backoff wait and no end-to-end
restart, so :func:`simulate_single_path` runs
:func:`repro.routing.link_local.simulate_link_local`: one route lookup,
one trajectory draw when dynamics are set, then one scalar uniform per
transmission attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.dynamics import LinkDynamics
from repro.net.mac import MacTiming
from repro.net.topology import Testbed
from repro.routing.link_local import LinkLocalConfig, simulate_link_local
from repro.rng import require_rng

__all__ = ["SinglePathResult", "simulate_single_path"]


@dataclass(frozen=True)
class SinglePathResult:
    """Outcome of a single-path bulk transfer."""

    throughput_mbps: float
    delivered_packets: int
    total_packets: int
    transmissions: int
    route: tuple[int, ...]
    #: Total medium time consumed by the transfer (the traffic layer's
    #: per-flow service time).
    elapsed_us: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        """Fraction of packets that reached the destination."""
        if self.total_packets == 0:
            return 0.0
        return self.delivered_packets / self.total_packets


def simulate_single_path(
    testbed: Testbed,
    src: int,
    dst: int,
    rate_mbps: float,
    n_packets: int = 100,
    payload_bytes: int = 1460,
    retry_limit: int = 8,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
    probe_rate_mbps: float = 6.0,
    dynamics: LinkDynamics | None = None,
) -> SinglePathResult:
    """Simulate a bulk transfer over the best ETX route.

    Parameters
    ----------
    testbed:
        The link model.
    src, dst:
        Traffic endpoints.
    rate_mbps:
        Data transmission rate (the §8.4 experiments fix the whole network
        to 6 or 12 Mbps).
    n_packets:
        Number of packets in the transfer.
    retry_limit:
        Per-hop transmission attempts (at least 1); packets exceeding it
        are dropped.
    dynamics:
        Optional bursty link dynamics: the state trajectory is drawn from
        the transfer's generator in one stream position (after routing,
        before the first attempt) and every hop probability is scaled by
        the current slot's link multiplier — attempt draw counts are
        unchanged.
    """
    if retry_limit < 1:
        raise ValueError("retry_limit must be >= 1")
    rng = require_rng(rng, "simulate_single_path")
    config = LinkLocalConfig(
        payload_bytes=payload_bytes,
        local_retry_limit=retry_limit - 1,
        e2e_retry_limit=0,
        timeout_fraction=0.0,
        probe_rate_mbps=probe_rate_mbps,
        dynamics=dynamics,
    )
    result = simulate_link_local(
        testbed, src, dst, rate_mbps, n_packets=n_packets, config=config, rng=rng, timing=timing
    )
    return SinglePathResult(
        throughput_mbps=result.throughput_mbps,
        delivered_packets=result.delivered_packets,
        total_packets=result.total_packets,
        transmissions=result.transmissions,
        route=result.route,
        elapsed_us=result.elapsed_us,
    )
