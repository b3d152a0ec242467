"""ExOR extended with SourceSync sender diversity (§7.2, scheme (c) of §8.4).

The protocol keeps ExOR's MAC and scheduler but lets every candidate
forwarder that overheard a packet join the lead forwarder's transmission.
Concretely, relative to plain ExOR:

* co-forwarders synchronize to the lead forwarder's synchronization header
  using the Symbol Level Synchronizer, so their signals combine at the
  receivers;
* the delivery probability of a joint transmission uses the combined
  per-subcarrier SNR of all participating senders (power + diversity gain);
* every joint transmission is charged only the §4.4 synchronization
  overhead (SIFS plus two channel-estimation symbols per co-sender,
  :meth:`repro.net.mac.MacTiming.joint_transaction_us`).

The §4.6 cyclic-prefix increase that a forwarder set needs to stay aligned
at all its receivers is *not* charged: no mesh path calls
:func:`cp_increase_for_forwarders`, so the mesh gains are computed as if
that cost were zero (ROADMAP, "Reach §4.6 from the mesh, or delete it").

The scheme is an :class:`repro.routing.ensemble.ExorLane` whose
:class:`~repro.routing.exor.ExorConfig` sets ``sender_diversity=True``.
This module adds the helper that computes the CP increase for a forwarder
set from the testbed's propagation delays.
"""

from __future__ import annotations

import numpy as np

from repro.core.sync.multi_receiver import optimize_wait_times
from repro.net.topology import Testbed

__all__ = ["cp_increase_for_forwarders"]


def cp_increase_for_forwarders(
    testbed: Testbed,
    lead: int,
    cosenders: list[int],
    receivers: list[int],
) -> int:
    """Cyclic-prefix increase needed for a forwarder set (§4.6).

    The lead forwarder solves the wait-time linear program over the
    potential receivers and announces the residual maximum misalignment
    (rounded up to samples) as the CP increase in its synchronization
    header.
    """
    if not cosenders or not receivers:
        return 0
    t = np.array(
        [[testbed.link_delay_samples(c, r) for r in receivers] for c in cosenders],
        dtype=np.float64,
    )
    lead_delays = np.array(
        [testbed.link_delay_samples(lead, r) for r in receivers], dtype=np.float64
    )
    solution = optimize_wait_times(t, lead_delays)
    return solution.cp_increase_samples()
