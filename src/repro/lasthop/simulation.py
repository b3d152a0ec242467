"""Last-hop downlink simulation: single best AP vs SourceSync multi-AP (§8.3).

For each client placement the experiment of Fig. 17 compares:

* **selective diversity** — the client is served by its single best AP,
  which runs SampleRate and retransmits until the packet is acknowledged;
* **SourceSync** — all associated APs transmit jointly; the lead AP runs
  SampleRate (the combined channel often sustains a higher rate than either
  AP alone, which is where most of the gain comes from), and every joint
  transmission is charged the §4.4 synchronization overhead.

Both modes deliver a stream of packets and report goodput over consumed
medium time.  :class:`repro.routing.ensemble.DownlinkLane` runs the
stream, every placement of an ensemble in lockstep; this module holds its
result.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LastHopResult"]


@dataclass(frozen=True)
class LastHopResult:
    """Downlink goodput for one client placement under one scheme."""

    throughput_mbps: float
    delivered_packets: int
    total_packets: int
    transmissions: int
    scheme: str
    senders: tuple[int, ...]

    @property
    def delivery_ratio(self) -> float:
        """Fraction of offered packets eventually delivered."""
        if self.total_packets == 0:
            return 0.0
        return self.delivered_packets / self.total_packets
