"""Joint Channel Estimator: per-sender channels from a joint frame (§5).

The joint frame gives the receiver a clean look at every sender's channel:
the lead sender's long training field arrives during a period when the
co-senders are still silent, and each co-sender then transmits its own pair
of channel-estimation symbols in a reserved slot while everyone else is
silent (§4.4, Fig. 7).  The receiver estimates each individual channel from
its slot, and models the composite channel as the phase-rotated sum of the
individual channels, tracking each sender's residual rotation from the
time-shared pilots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.equalizer import ChannelEstimate, estimate_channel_ltf, estimate_noise_from_ltf
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["JointChannelEstimate", "estimate_sender_channel", "composite_channel", "sender_active"]


def estimate_sender_channel(
    training_samples: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    window_backoff: int = 0,
) -> ChannelEstimate:
    """Estimate one sender's channel from its channel-estimation slot.

    Parameters
    ----------
    training_samples:
        The 2-CP + two-repetition training waveform received in this
        sender's slot (same format as the 802.11 LTF).
    window_backoff:
        How many samples before the nominal FFT position to place the
        window (kept inside the guard so late arrivals do not spill).
    """
    training_samples = np.asarray(training_samples, dtype=np.complex128)
    needed = 2 * params.cp_samples + 2 * params.n_fft
    if training_samples.size < needed:
        raise ValueError(
            f"training slot must contain at least {needed} samples, got {training_samples.size}"
        )
    start = 2 * params.cp_samples - window_backoff
    if start < 0:
        raise ValueError("window_backoff larger than the training guard interval")
    reps = np.empty((2, params.n_fft), dtype=np.complex128)
    for rep in range(2):
        chunk = training_samples[start + rep * params.n_fft : start + (rep + 1) * params.n_fft]
        reps[rep] = np.fft.fft(chunk) / np.sqrt(params.n_fft)
    estimate = estimate_channel_ltf(reps, params)
    estimate.noise_var = estimate_noise_from_ltf(reps, params)
    return estimate


def sender_active(
    training_samples: np.ndarray,
    noise_power: float,
    threshold_db: float = 3.0,
) -> bool:
    """Decide whether a co-sender actually joined the transmission.

    "A receiver can determine whether an intended co-sender participates in
    a transmission based on the presence of energy in the time slots
    corresponding to the channel estimation symbols of that co-sender" (§6).
    """
    training_samples = np.asarray(training_samples, dtype=np.complex128)
    if training_samples.size == 0:
        return False
    energy = float(np.mean(np.abs(training_samples) ** 2))
    return energy > noise_power * (10.0 ** (threshold_db / 10.0))


@dataclass
class JointChannelEstimate:
    """Per-sender channel estimates for one joint frame.

    Attributes
    ----------
    lead:
        Channel of the lead sender (from its preamble LTF).
    cosenders:
        Channels of the co-senders, in codeword order; entries for
        co-senders that did not join are ``None``.
    noise_var:
        Receiver noise variance estimate.
    """

    lead: ChannelEstimate
    cosenders: list[ChannelEstimate | None]
    noise_var: float
    params: OFDMParams = DEFAULT_PARAMS

    @property
    def n_active_senders(self) -> int:
        """Number of senders whose energy is present in the joint frame."""
        return 1 + sum(1 for ch in self.cosenders if ch is not None)

    def active_channels(self) -> list[ChannelEstimate]:
        """Channels of the senders that actually transmitted (lead first)."""
        channels = [self.lead]
        channels.extend(ch for ch in self.cosenders if ch is not None)
        return channels

    def active_codewords(self) -> list[int]:
        """Codeword indices corresponding to :meth:`active_channels`."""
        codewords = [0]
        codewords.extend(i + 1 for i, ch in enumerate(self.cosenders) if ch is not None)
        return codewords

    def composite(self, phases: np.ndarray | None = None) -> np.ndarray:
        """Composite channel: the phase-rotated sum of individual channels.

        ``phases`` holds one residual phase per active sender (lead first),
        typically from :class:`~repro.core.channel_est.phase_tracking.PerSenderPhaseTracker`.
        """
        channels = self.active_channels()
        if phases is None:
            phases = np.zeros(len(channels))
        phases = np.asarray(phases, dtype=np.float64)
        if phases.size != len(channels):
            raise ValueError("phases must have one entry per active sender")
        total = np.zeros(self.params.n_fft, dtype=np.complex128)
        for phase, channel in zip(phases, channels):
            rotation = np.exp(1j * phase)
            total += channel.response * rotation
        return total

    def per_subcarrier_snr_db(self, bins: np.ndarray | None = None) -> np.ndarray:
        """Post-combining per-subcarrier SNR (|sum of channels|-based).

        Uses the Alamouti-style power combination ``sum_i |H_i|^2`` which is
        what the Smart Combiner delivers, so this is the per-subcarrier SNR
        profile plotted in Fig. 16.
        """
        bins = self.params.occupied_bins() if bins is None else np.asarray(bins, dtype=int)
        power = np.zeros(bins.size, dtype=np.float64)
        for channel in self.active_channels():
            power += np.abs(channel.on_bins(bins)) ** 2
        return 10.0 * np.log10(np.maximum(power / max(self.noise_var, 1e-15), 1e-15))


def composite_channel(
    sender_channels: list[ChannelEstimate],
    phases: np.ndarray | None = None,
) -> np.ndarray:
    """Sum per-sender channels after applying per-sender residual phases."""
    if not sender_channels:
        raise ValueError("at least one sender channel is required")
    if phases is None:
        phases = np.zeros(len(sender_channels))
    phases = np.asarray(phases, dtype=np.float64)
    if phases.size != len(sender_channels):
        raise ValueError("phases must have one entry per sender")
    total = np.zeros_like(sender_channels[0].response)
    for phase, channel in zip(phases, sender_channels):
        rotation = np.exp(1j * phase)
        total += channel.response * rotation
    return total
