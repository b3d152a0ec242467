"""Probe/response propagation-delay measurement (§4.2c): shared pieces.

A node estimates its one-way propagation delay to a peer by timing a
probe/response round trip with its local sample clock and subtracting every
component that is not propagation (Eq. 2 of the paper): the responder's
packet-detection delay and hardware turnaround (reported back inside the
response) and its own packet-detection delay for the response.  Packet
detection delays are themselves estimated with the channel-phase-slope
method (:mod:`repro.core.sync.detection_delay`), which is what makes the
round-trip measurement accurate despite the large random detection latency.

The measurement runs at the waveform level in :mod:`repro.core.ensemble`
(``_probe_legs_lockstep``, driven by ``measure_delays_batch``): real probe
waveforms are sent through :class:`repro.channel.Link` objects, detected
with the standard detector, and the phase-slope estimator is applied to the
resulting channel estimates, so every error source of a real exchange is
present.  This module holds what that probe leg shares with its callers:
the probe waveform, the FFT-window backoff and the per-leg result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import preamble

__all__ = ["ProbeLegResult"]


def _acquisition_backoff(params: OFDMParams) -> int:
    """FFT-window backoff used when estimating the channel of a just-detected packet.

    The detector fires up to a few tens of samples after the true packet
    start.  Backing the LTF FFT windows off by the full double-length guard
    (``2 * cp``) keeps both windows inside the long-training field for any
    detection delay up to ``2 * cp`` samples; because the LTF is periodic,
    every such window is a cyclic rotation of the training symbol and the
    rotation is absorbed by the phase-slope estimate.
    """
    return 2 * params.cp_samples


@dataclass(frozen=True)
class ProbeLegResult:
    """Outcome of receiving one probe waveform at one node.

    Attributes
    ----------
    detected:
        Whether the probe was detected at all.
    true_detection_delay:
        True offset (samples) between the arrival of the probe's first
        sample and the node's detection instant (includes front-end latency).
    estimated_detection_delay:
        The node's own phase-slope estimate of that offset.
    snr_db:
        Average SNR of the probe as received.
    """

    detected: bool
    true_detection_delay: float
    estimated_detection_delay: float
    snr_db: float

    @property
    def estimation_error(self) -> float:
        """Residual error of the detection-delay estimate, in samples."""
        return self.true_detection_delay - self.estimated_detection_delay


def probe_waveform(params: OFDMParams = DEFAULT_PARAMS) -> np.ndarray:
    """The probe waveform: a bare 802.11 preamble (STF + LTF)."""
    return preamble(params)

