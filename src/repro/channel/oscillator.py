"""Oscillator imperfections: carrier-frequency and sampling-frequency offsets.

Every radio derives its carrier and sampling clock from its own crystal, and
crystals of different nodes never run at exactly the same frequency (§5 of
the paper, citing Meyr et al.).  The offset between a sender and a receiver
makes the per-sender channel rotate during a packet — the effect the Joint
Channel Estimator must track, and the reason the Smart Combiner is needed at
all.  This module models those oscillators; the rotation an offset causes
is applied per link by :func:`repro.channel.composite.propagate_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.rng import require_rng

__all__ = ["Oscillator", "cfo_from_ppm", "relative_cfo_hz"]


def cfo_from_ppm(ppm: float, carrier_hz: float = 5.24e9) -> float:
    """Carrier frequency offset in Hz for a crystal error in parts-per-million.

    802.11a operates near 5.2 GHz; a typical +-20 ppm crystal therefore
    produces offsets of up to ~100 kHz.
    """
    return ppm * 1e-6 * carrier_hz


@dataclass(frozen=True)
class Oscillator:
    """A node's oscillator, characterised by its error in ppm.

    Attributes
    ----------
    ppm:
        Frequency error of this node's crystal relative to nominal.
    carrier_hz:
        Nominal carrier frequency.
    """

    ppm: float
    carrier_hz: float = 5.24e9

    @classmethod
    def random(
        cls,
        rng: np.random.Generator | None = None,
        max_ppm: float = 20.0,
        carrier_hz: float = 5.24e9,
    ) -> "Oscillator":
        """Draw a random oscillator within +-``max_ppm``."""
        rng = require_rng(rng, "Oscillator.random")
        return cls(ppm=float(rng.uniform(-max_ppm, max_ppm)), carrier_hz=carrier_hz)

    @property
    def offset_hz(self) -> float:
        """Absolute carrier offset of this oscillator from nominal, in Hz."""
        return cfo_from_ppm(self.ppm, self.carrier_hz)

    def cfo_to(self, other: "Oscillator") -> float:
        """Carrier frequency offset of this node relative to another, in Hz."""
        return self.offset_hz - other.offset_hz

    def sampling_offset_ppm(self) -> float:
        """Sampling clock error; the same crystal drives both clocks."""
        return self.ppm


def relative_cfo_hz(sender: Oscillator, receiver: Oscillator) -> float:
    """CFO experienced by ``receiver`` for a transmission from ``sender``."""
    return sender.cfo_to(receiver)

