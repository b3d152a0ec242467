"""Propagation: path loss, shadowing and time-of-flight delays.

The testbed experiments of the paper depend on link SNRs and loss rates that
vary widely across node placements (Fig. 11 shows an office floor with
walls, metal cabinets, LOS and NLOS paths).  We model the large-scale
behaviour with the standard log-distance path-loss model plus log-normal
shadowing, and convert distances to propagation delays for the symbol-level
synchronizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.params import SPEED_OF_LIGHT
from repro.rng import require_rng

__all__ = ["PathLossModel", "propagation_delay_s", "propagation_delay_samples"]


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with log-normal shadowing.

    ``PL(d) = PL(d0) + 10 * n * log10(d / d0) + X_sigma``

    Attributes
    ----------
    exponent:
        Path-loss exponent ``n``; 3.0 is typical for an office with walls.
    reference_loss_db:
        Loss at the reference distance ``d0`` (1 m) in dB.
    shadowing_sigma_db:
        Standard deviation of the log-normal shadowing term.
    tx_power_dbm:
        Transmit power (FCC-limited, the paper notes a single sender cannot
        simply raise its power, which is why combining senders helps).
    noise_floor_dbm:
        Receiver noise floor for a 20 MHz channel.
    """

    exponent: float = 3.0
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 6.0
    tx_power_dbm: float = 15.0
    noise_floor_dbm: float = -90.0

    def path_loss_db(
        self,
        distance_m: float,
        rng: np.random.Generator | None = None,
        shadowing: bool = True,
    ) -> float:
        """Path loss in dB at the given distance, optionally with shadowing.

        ``rng`` is required whenever a shadowing draw is made (i.e. unless
        ``shadowing=False`` or ``shadowing_sigma_db == 0``).
        """
        distance_m = max(float(distance_m), 0.1)
        loss = self.reference_loss_db + 10.0 * self.exponent * np.log10(distance_m)
        if shadowing and self.shadowing_sigma_db > 0:
            rng = require_rng(rng, "PathLossModel.path_loss_db")
            loss += float(rng.normal(0.0, self.shadowing_sigma_db))
        return float(loss)

    def snr_db(
        self,
        distance_m: float,
        rng: np.random.Generator | None = None,
        shadowing: bool = True,
    ) -> float:
        """Average received SNR in dB at the given distance."""
        loss = self.path_loss_db(distance_m, rng=rng, shadowing=shadowing)
        return self.tx_power_dbm - loss - self.noise_floor_dbm

    def amplitude_gain(self, distance_m: float, rng: np.random.Generator | None = None) -> float:
        """Linear amplitude gain corresponding to the path loss."""
        loss_db = self.path_loss_db(distance_m, rng=rng)
        return float(10.0 ** (-loss_db / 20.0))


def propagation_delay_s(distance_m: float) -> float:
    """Time of flight in seconds for a distance in metres."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    return distance_m / SPEED_OF_LIGHT


def propagation_delay_samples(distance_m: float, sample_rate_hz: float) -> float:
    """Time of flight expressed in (fractional) baseband samples."""
    return propagation_delay_s(distance_m) * sample_rate_hz

