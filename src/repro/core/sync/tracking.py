"""Delay tracking from data transmissions (§4.5).

Once senders are synchronized, node mobility slowly changes propagation
delays.  Rather than re-running probe exchanges, SourceSync measures the
residual misalignment of every received *joint frame*: the receiver
estimates the channel of the lead sender and of each co-sender, converts
each channel's phase slope into a symbol-timing offset, and reports the
difference (the misalignment) in its ACK.  The co-sender then nudges its
wait time by the reported amount for the next transmission.  The receiver
side is the joint receiver's header stage
(:meth:`repro.core.receiver.JointReceiver.measure_header_batch`), which
fits every sender's phase slope of a frame stack in one batched call and
returns a :class:`MisalignmentReport` per frame.

:class:`WaitTimeTracker` implements the co-sender side of that feedback
loop, with an exponentially weighted correction so that measurement noise
does not cause oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WaitTimeTracker", "MisalignmentReport"]


@dataclass(frozen=True)
class MisalignmentReport:
    """Receiver-side misalignment measurement for one joint frame.

    Attributes
    ----------
    lead_offset_samples:
        Timing offset of the lead sender's symbols relative to the
        receiver's FFT window.
    cosender_offsets_samples:
        Timing offset of each co-sender, same reference.
    misalignments_samples:
        Per-co-sender misalignment relative to the lead sender — the value
        fed back to co-senders in the ACK.
    """

    lead_offset_samples: float
    cosender_offsets_samples: tuple[float, ...]
    misalignments_samples: tuple[float, ...]

    def worst_misalignment(self) -> float:
        """Largest absolute misalignment among the co-senders."""
        if not self.misalignments_samples:
            return 0.0
        return float(np.max(np.abs(self.misalignments_samples)))


@dataclass
class WaitTimeTracker:
    """Co-sender wait-time tracking loop driven by ACK feedback.

    Attributes
    ----------
    wait_time_samples:
        The current wait time (samples) relative to the global time
        reference; initialised from the probe-based estimate and then
        updated from ACK feedback.
    gain:
        Fraction of each reported misalignment applied as a correction.
        1.0 applies the full correction immediately; smaller values smooth
        over measurement noise.
    history:
        All misalignment reports applied so far (for diagnostics).
    """

    wait_time_samples: float
    gain: float = 0.5
    history: list[float] = field(default_factory=list)

    def update(self, reported_misalignment_samples: float) -> float:
        """Apply one ACK's misalignment feedback and return the new wait time.

        A positive reported misalignment means this co-sender's symbols
        arrived *later* than the lead sender's at the receiver, so the
        co-sender reduces its wait time by (a fraction of) that amount; a
        negative value means it arrived early and must wait longer.
        """
        if not np.isfinite(reported_misalignment_samples):
            return self.wait_time_samples
        self.history.append(float(reported_misalignment_samples))
        self.wait_time_samples -= self.gain * float(reported_misalignment_samples)
        return self.wait_time_samples

    def converged(self, tolerance_samples: float = 0.25, window: int = 3) -> bool:
        """True when the last ``window`` corrections are all within tolerance."""
        if len(self.history) < window:
            return False
        recent = np.abs(np.asarray(self.history[-window:]))
        return bool(np.all(recent <= tolerance_samples))
