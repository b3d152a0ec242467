"""Per-sender carrier-frequency-offset pre-correction (§5).

Each sender's oscillator differs from the receiver's, so the composite
channel ``H_i(t) = H_{i,1} e^{j 2 pi df_1 t} + H_{i,2} e^{j 2 pi df_2 t}``
keeps rotating within a packet.  SourceSync measures each sender's offset
once (it is stable over long periods), communicates it back, and the sender
pre-corrects by multiplying its transmitted samples by
``e^{-j 2 pi df t}``.  The measurement runs with the propagation-delay
probes, as the lockstep CFO probe waves of :mod:`repro.core.ensemble`
(``_cfo_probes_lockstep``); this module holds the pre-correction.  Residual
error is handled by per-sender phase tracking
(:mod:`repro.core.channel_est.phase_tracking`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["precorrect_cfo"]


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
