"""Per-sender carrier-frequency-offset estimation and pre-correction (§5).

Each sender's oscillator differs from the receiver's, so the composite
channel ``H_i(t) = H_{i,1} e^{j 2 pi df_1 t} + H_{i,2} e^{j 2 pi df_2 t}``
keeps rotating within a packet.  SourceSync measures each sender's offset
once (it is stable over long periods), communicates it back, and the sender
pre-corrects by multiplying its transmitted samples by
``e^{-j 2 pi df t}``.  Residual error is handled by per-sender phase
tracking (:mod:`repro.core.channel_est.phase_tracking`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn
from repro.channel.composite import Link
from repro.phy.detection import detect_packet_autocorrelation, estimate_coarse_cfo
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import preamble

__all__ = ["CfoEstimate", "measure_cfo", "precorrect_cfo"]


@dataclass(frozen=True)
class CfoEstimate:
    """A measured carrier-frequency offset between two nodes."""

    valid: bool
    cfo_hz: float
    true_cfo_hz: float

    @property
    def error_hz(self) -> float:
        """Estimation error in Hz."""
        return self.cfo_hz - self.true_cfo_hz


def measure_cfo(
    link: Link,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    params: OFDMParams = DEFAULT_PARAMS,
    n_probes: int = 4,
) -> CfoEstimate:
    """Measure the CFO of a sender relative to a receiver from probe preambles.

    The measurement averages the standard short-training-field
    autocorrelation estimate over ``n_probes`` probes, mirroring how
    SourceSync computes the offset "at the same time as the initial
    pair-wise propagation delay estimation" (§5).
    """
    if n_probes < 1:
        raise ValueError("n_probes must be at least 1")
    estimates = []
    waveform = preamble(params)
    for _ in range(n_probes):
        contribution, start = link.propagate(waveform, start_sample=0.0)
        lead_in = 60
        total = lead_in + int(start) + contribution.size + 20
        received = np.zeros(total, dtype=np.complex128)
        offset = lead_in + int(start)
        received[offset : offset + contribution.size] += contribution
        received += awgn(total, noise_power, rng)
        detection = detect_packet_autocorrelation(received, params)
        if not detection.detected:
            continue
        try:
            estimates.append(estimate_coarse_cfo(received, detection.start_index, params))
        except ValueError:
            continue
    if not estimates:
        return CfoEstimate(False, 0.0, link.cfo_hz)
    return CfoEstimate(True, float(np.mean(estimates)), link.cfo_hz)


def precorrect_cfo(
    samples: np.ndarray,
    cfo_hz: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Pre-rotate a waveform so a known CFO cancels at the receiver.

    The sender multiplies its transmitted symbol at time ``t`` by
    ``e^{-j 2 pi df t}`` (§5); time is measured from the first transmitted
    sample of this waveform.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    n = np.arange(samples.size)
    ramp = np.exp(-2j * np.pi * cfo_hz * n / sample_rate_hz)
    return np.multiply(samples, ramp, out=ramp)
