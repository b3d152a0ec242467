"""Multipath channel models.

The indoor channels of the paper's testbed are frequency selective: the
signal bounces off walls and cabinets and arrives as several delayed copies
(Fig. 3 / Fig. 14 of the paper).  We model this with a classic tapped delay
line whose tap powers follow an exponential power-delay profile and whose
tap gains are independent complex Gaussians (Rayleigh fading), which is the
standard indoor NLOS model; a Ricean K-factor adds a line-of-sight
component when needed.

Two stock profiles are provided:

* :data:`DEFAULT_PROFILE` — an indoor channel with ~60 ns RMS delay spread
  sampled at the 20 MHz baseband rate (a handful of significant taps), used
  by the link-level simulations;
* :data:`WIGLAN_PROFILE` — the same physical delay spread expressed at the
  128 MHz sampling rate of the paper's WiGLAN platform, where it spans
  roughly 15 significant taps, matching Fig. 14 of the paper.

Monte-Carlo ensembles should draw all realisations at once with
:func:`rayleigh_taps_batch` / :class:`MultipathEnsemble` — one generator
call for the whole batch, with the same draw order (and therefore the same
taps under a fixed seed) as a loop of per-realisation draws for Rayleigh
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.rng import require_rng

__all__ = [
    "MultipathProfile",
    "MultipathChannel",
    "MultipathEnsemble",
    "rayleigh_taps",
    "rayleigh_taps_batch",
    "DEFAULT_PROFILE",
    "WIGLAN_PROFILE",
]


@dataclass(frozen=True)
class MultipathProfile:
    """Statistical description of a tapped-delay-line channel.

    Attributes
    ----------
    n_taps:
        Number of sample-spaced taps.
    rms_delay_spread_samples:
        RMS delay spread of the exponential power-delay profile, in samples.
    k_factor_db:
        Ricean K factor of the first tap in dB; ``-inf`` means pure Rayleigh.
    """

    n_taps: int = 4
    rms_delay_spread_samples: float = 1.2
    k_factor_db: float = float("-inf")

    def tap_powers(self) -> np.ndarray:
        """Normalised (sum = 1) average power of each tap."""
        if self.n_taps < 1:
            raise ValueError("n_taps must be at least 1")
        if self.n_taps == 1:
            return np.array([1.0])
        decay = max(self.rms_delay_spread_samples, 1e-6)
        powers = np.exp(-np.arange(self.n_taps) / decay)
        return powers / powers.sum()


#: Default indoor profile at the 20 MHz baseband rate (~60 ns RMS spread).
DEFAULT_PROFILE = MultipathProfile()

#: The same physical channel expressed at the 128 MHz sampling rate of the
#: paper's WiGLAN radio, giving ~15 significant taps as in Fig. 14.
WIGLAN_PROFILE = MultipathProfile(n_taps=15, rms_delay_spread_samples=3.0)


def rayleigh_taps(
    profile: MultipathProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one realisation of complex tap gains for a profile.

    The first tap optionally has a Ricean (line-of-sight) component whose
    relative power is set by the profile's K factor.

    Thin wrapper over :func:`rayleigh_taps_batch` with one realisation (the
    batched draw consumes the RNG stream in exactly the same order).
    """
    return rayleigh_taps_batch(profile, 1, rng)[0]


def rayleigh_taps_batch(
    profile: MultipathProfile,
    n_realizations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw an ensemble of tap-gain realisations in one generator call.

    Returns a ``(n_realizations, n_taps)`` array.  The Gaussian draw uses
    shape ``(n_realizations, 2, n_taps)``, whose C order reproduces exactly
    the sequence of per-realisation draws (real taps then imaginary taps),
    so for Rayleigh profiles a batched ensemble is bit-identical to a loop
    of :func:`rayleigh_taps` calls under the same generator state.  Ricean
    profiles draw all line-of-sight phases *after* the Gaussians, which is
    statistically equivalent but consumes the stream in a different order
    than the per-realisation loop.
    """
    powers = profile.tap_powers()
    draws = rng.normal(size=(n_realizations, 2, profile.n_taps))
    scattered = (draws[:, 0, :] + 1j * draws[:, 1, :]) / np.sqrt(2.0)
    taps = scattered * np.sqrt(powers)
    if np.isfinite(profile.k_factor_db):
        k = 10.0 ** (profile.k_factor_db / 10.0)
        p0 = powers[0]
        phases = rng.uniform(0, 2 * np.pi, size=n_realizations)
        rotation = np.exp(1j * phases)
        los = np.sqrt(p0 * k / (k + 1.0)) * rotation
        taps[:, 0] = los + taps[:, 0] * np.sqrt(1.0 / (k + 1.0))
    return taps


class MultipathChannel:
    """A static (block-fading) multipath channel realisation.

    The channel is constant over a packet — the same assumption the paper
    makes for a single sender-receiver pair ("single sender-receiver
    channels ... have a constant attenuation throughout a packet", §1).

    Parameters
    ----------
    taps:
        Complex tap gains; tap ``k`` delays the signal by ``k`` samples.
    gain:
        Extra scalar amplitude gain applied on top of the taps (used to
        impose a target average SNR or path loss).
    """

    def __init__(self, taps: np.ndarray, gain: float = 1.0):
        taps = np.asarray(taps, dtype=np.complex128)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        self.taps = taps * gain

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        profile: MultipathProfile = DEFAULT_PROFILE,
        rng: np.random.Generator | None = None,
        gain: float = 1.0,
    ) -> "MultipathChannel":
        """Draw a random channel realisation from a profile."""
        rng = require_rng(rng, "MultipathChannel.random")
        return cls(rayleigh_taps(profile, rng), gain=gain)

    @classmethod
    def flat(cls, gain: complex = 1.0) -> "MultipathChannel":
        """A single-tap (frequency-flat) channel."""
        return cls(np.array([gain], dtype=np.complex128))

    # ------------------------------------------------------------------
    @property
    def n_taps(self) -> int:
        """Number of taps."""
        return int(self.taps.size)

    def average_power(self) -> float:
        """Total average power gain of the channel."""
        return float(np.sum(np.abs(self.taps) ** 2))

    def normalized(self) -> "MultipathChannel":
        """Return a copy scaled to unit average power."""
        power = self.average_power()
        if power <= 0:
            raise ValueError("cannot normalise a zero channel")
        return MultipathChannel(self.taps / np.sqrt(power))

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Convolve a sample stream with the channel impulse response.

        The output has the same length as the input plus ``n_taps - 1``
        trailing samples (full convolution), so inter-symbol interference
        into whatever follows the packet is preserved.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        return np.convolve(samples, self.taps)

    def frequency_response(self, n_fft: int) -> np.ndarray:
        """Channel frequency response on an ``n_fft``-point grid."""
        return np.fft.fft(self.taps, n_fft)

    def rms_delay_spread_samples(self) -> float:
        """RMS delay spread of this realisation in samples."""
        power = np.abs(self.taps) ** 2
        total = power.sum()
        if total <= 0:
            return 0.0
        delays = np.arange(self.n_taps)
        mean = (delays * power).sum() / total
        second = ((delays - mean) ** 2 * power).sum() / total
        return float(np.sqrt(second))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultipathChannel(n_taps={self.n_taps}, power={self.average_power():.3f})"


class MultipathEnsemble:
    """A batch of static multipath realisations, one per packet.

    Holds a ``(n_channels, n_taps)`` tap matrix so a whole Monte-Carlo
    ensemble is drawn with one generator call
    (:func:`rayleigh_taps_batch`) and its frequency responses / delay
    statistics are computed with batched numpy operations.  Per-packet
    convolution (:meth:`apply`) intentionally loops ``np.convolve`` over
    rows: each convolution is a single C call, and reusing the scalar
    kernel keeps the ensemble output bit-identical to per-packet
    :meth:`MultipathChannel.apply` calls.
    """

    def __init__(self, taps: np.ndarray, gain: float | np.ndarray = 1.0):
        taps = np.asarray(taps, dtype=np.complex128)
        if taps.ndim != 2 or taps.shape[1] == 0:
            raise ValueError("taps must be a non-empty (n_channels, n_taps) array")
        gain = np.asarray(gain, dtype=np.float64)
        self.taps = taps * (gain[:, None] if gain.ndim else gain)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        profile: MultipathProfile = DEFAULT_PROFILE,
        n_channels: int = 1,
        rng: np.random.Generator | None = None,
        gain: float | np.ndarray = 1.0,
    ) -> "MultipathEnsemble":
        """Draw an ensemble of random channel realisations from a profile."""
        rng = require_rng(rng, "MultipathEnsemble.random")
        return cls(rayleigh_taps_batch(profile, n_channels, rng), gain=gain)

    # ------------------------------------------------------------------
    @property
    def n_channels(self) -> int:
        """Number of channel realisations in the ensemble."""
        return int(self.taps.shape[0])

    @property
    def n_taps(self) -> int:
        """Number of taps per realisation."""
        return int(self.taps.shape[1])

    def average_power(self) -> np.ndarray:
        """Total average power gain per realisation, shape ``(n_channels,)``."""
        return np.sum(np.abs(self.taps) ** 2, axis=1)

    def normalized(self) -> "MultipathEnsemble":
        """Return a copy with every realisation scaled to unit average power."""
        power = self.average_power()
        if np.any(power <= 0):
            raise ValueError("cannot normalise a zero channel")
        return MultipathEnsemble(self.taps / np.sqrt(power)[:, None])

    def channel(self, index: int) -> MultipathChannel:
        """Single-packet view of one realisation."""
        return MultipathChannel(self.taps[index])

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Convolve each row of ``samples`` with its own impulse response.

        ``samples`` has shape ``(n_channels, n_samples)``; the output has
        ``n_taps - 1`` extra trailing samples per row (full convolution),
        matching :meth:`MultipathChannel.apply` bit-for-bit per row.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 2 or samples.shape[0] != self.n_channels:
            raise ValueError("samples must have shape (n_channels, n_samples)")
        out = np.empty(
            (self.n_channels, samples.shape[1] + self.n_taps - 1), dtype=np.complex128
        )
        for i in range(self.n_channels):
            out[i] = np.convolve(samples[i], self.taps[i])
        return out

    def frequency_response(self, n_fft: int) -> np.ndarray:
        """Per-realisation frequency response, shape ``(n_channels, n_fft)``."""
        return np.fft.fft(self.taps, n_fft, axis=-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultipathEnsemble(n_channels={self.n_channels}, n_taps={self.n_taps})"
