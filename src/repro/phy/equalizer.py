"""Channel estimation, equalisation and residual phase tracking.

These are the standard single-sender OFDM receiver blocks that SourceSync's
joint receiver (:mod:`repro.core.receiver`) extends to multiple concurrent
senders.  The phase-tracking algorithm follows the pilot-based scheme of
Heiskala & Terry (reference [15] of the paper): every data symbol carries
four known pilots; the common phase rotation of those pilots relative to the
channel estimate is removed before demapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.ofdm import PILOT_VALUES, pilot_polarities, pilot_polarity
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import long_training_sequence_freq

__all__ = [
    "ChannelEstimate",
    "estimate_channel_ltf",
    "equalize_symbol",
    "equalize_symbols_batch",
    "track_pilot_phase",
    "track_pilot_phases",
    "estimate_noise_from_ltf",
]


@dataclass
class ChannelEstimate:
    """Per-subcarrier channel estimate with optional noise variance.

    Attributes
    ----------
    response:
        Complex channel gain per FFT bin (length ``n_fft``); bins that carry
        no energy hold 0.
    noise_var:
        Estimated noise variance (per-sample, complex), if available.
    """

    response: np.ndarray
    noise_var: float = 0.0

    def on_bins(self, bins: np.ndarray) -> np.ndarray:
        """Channel response restricted to the given FFT bins."""
        return self.response[np.asarray(bins, dtype=int)]

    def magnitude_db(self, bins: np.ndarray | None = None) -> np.ndarray:
        """Channel magnitude in dB on the given bins (default: all)."""
        resp = self.response if bins is None else self.on_bins(bins)
        return 20.0 * np.log10(np.maximum(np.abs(resp), 1e-12))

    def snr_per_subcarrier_db(self, bins: np.ndarray) -> np.ndarray:
        """Per-subcarrier SNR in dB given the stored noise variance."""
        noise = max(self.noise_var, 1e-15)
        power = np.abs(self.on_bins(bins)) ** 2
        return 10.0 * np.log10(np.maximum(power / noise, 1e-15))


def estimate_channel_ltf(
    received_ltf_freq: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
) -> ChannelEstimate:
    """Least-squares channel estimate from received LTF symbols.

    Parameters
    ----------
    received_ltf_freq:
        Frequency-domain received LTF symbols with shape
        ``(..., n_rep, n_fft)`` or ``(n_fft,)``; repetitions are averaged.
        Leading axes, if any, index packets of an ensemble, in which case
        the returned estimate's ``response`` is ``(..., n_fft)``.
    """
    received = np.atleast_2d(np.asarray(received_ltf_freq, dtype=np.complex128))
    if received.shape[-1] != params.n_fft:
        raise ValueError("received LTF symbols must have n_fft bins")
    reference = long_training_sequence_freq(params)
    mean_rx = received.mean(axis=-2)
    response = np.zeros(mean_rx.shape, dtype=np.complex128)
    occupied = params.occupied_bins()
    ref_occ = reference[occupied]
    response[..., occupied] = mean_rx[..., occupied] / ref_occ
    return ChannelEstimate(response=response)


def estimate_noise_from_ltf(
    received_ltf_freq: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
) -> float | np.ndarray:
    """Estimate noise variance from the difference of repeated LTF symbols.

    Requires at least two LTF repetitions; the difference between repetitions
    cancels the (static) channel and leaves only noise.  Input shape is
    ``(..., n_rep, n_fft)``; with leading batch axes the result is one
    noise variance per packet (``(...,)`` array) instead of a float.
    """
    received = np.atleast_2d(np.asarray(received_ltf_freq, dtype=np.complex128))
    if received.shape[-2] < 2:
        raise ValueError("noise estimation requires at least two LTF repetitions")
    occupied = params.occupied_bins()
    diff = received[..., 1:, occupied] - received[..., :-1, occupied]
    # Var(a-b) = 2 * noise_var per complex dimension.  The fancy-indexed
    # ``diff`` keeps the stack axis innermost in memory, so a mean over it
    # would sum in a stack-size dependent order; a C-contiguous copy reduced
    # along one flattened axis sums each packet alike however many there are.
    power = np.ascontiguousarray(np.abs(diff) ** 2)
    noise = np.mean(power.reshape(*power.shape[:-2], -1), axis=-1) / 2.0
    return float(noise) if noise.ndim == 0 else noise


def track_pilot_phases(
    received_symbols_freq: np.ndarray,
    channel_response: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    start_symbol_index: int = 0,
) -> np.ndarray:
    """Common phase error per OFDM symbol for a block (or batch) of symbols.

    Parameters
    ----------
    received_symbols_freq:
        ``(..., n_symbols, n_fft)`` frequency-domain symbols; leading axes
        index packets of an ensemble.
    channel_response:
        ``(..., n_fft)`` channel estimate(s), broadcast against the batch
        axes of ``received_symbols_freq``.
    start_symbol_index:
        Index of the first symbol in the frame (pilot polarity phase).

    Returns
    -------
    numpy.ndarray
        ``(..., n_symbols)`` phases (radians).
    """
    received_symbols_freq = np.asarray(received_symbols_freq, dtype=np.complex128)
    channel_response = np.asarray(channel_response, dtype=np.complex128)
    pilot_bins = params.pilot_bins()
    n_symbols = received_symbols_freq.shape[-2]
    polarity = pilot_polarities(n_symbols, start_symbol_index)
    expected = (
        channel_response[..., None, :][..., pilot_bins] * PILOT_VALUES * polarity[:, None]
    )
    observed = received_symbols_freq[..., pilot_bins]
    reference = np.conj(expected)
    correlation = np.sum(observed * reference, axis=-1)
    return np.where(np.abs(correlation) < 1e-15, 0.0, np.angle(correlation))


def track_pilot_phase(
    received_symbol_freq: np.ndarray,
    channel: ChannelEstimate,
    symbol_index: int,
    params: OFDMParams = DEFAULT_PARAMS,
) -> float:
    """Common phase error of one OFDM symbol estimated from its pilots.

    Thin wrapper over :func:`track_pilot_phases` with a block of one.
    Returns the phase (radians) by which the received pilots are rotated
    relative to the channel estimate; the caller removes it by multiplying
    the data subcarriers by ``exp(-1j * phase)``.
    """
    received_symbol_freq = np.asarray(received_symbol_freq, dtype=np.complex128)
    phases = track_pilot_phases(
        received_symbol_freq[None, :], channel.response, params, start_symbol_index=symbol_index
    )
    return float(phases[0])


def equalize_symbols_batch(
    received_symbols_freq: np.ndarray,
    channel_response: np.ndarray,
    noise_var: float | np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    start_symbol_index: int = 0,
    track_phase: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Equalise a block (or batch) of OFDM symbols in one shot.

    Parameters
    ----------
    received_symbols_freq:
        ``(..., n_symbols, n_fft)`` frequency-domain symbols.
    channel_response:
        ``(..., n_fft)`` channel estimate(s), one per packet.
    noise_var:
        Scalar or ``(...,)`` per-packet noise variance.

    Returns
    -------
    (symbols, noise_per_sc)
        ``symbols`` are the equalised data-subcarrier values with shape
        ``(..., n_symbols, n_data_subcarriers)``; ``noise_per_sc`` is the
        post-equalisation noise variance per data subcarrier with shape
        ``(..., n_data_subcarriers)`` (it does not depend on the symbol),
        suitable for soft demapping.
    """
    received_symbols_freq = np.asarray(received_symbols_freq, dtype=np.complex128)
    channel_response = np.asarray(channel_response, dtype=np.complex128)
    if track_phase:
        phases = track_pilot_phases(
            received_symbols_freq, channel_response, params, start_symbol_index
        )
    else:
        phases = np.zeros(received_symbols_freq.shape[:-1], dtype=np.float64)
    derotation = np.exp(-1j * phases)[..., None]
    corrected = received_symbols_freq * derotation
    data_bins = params.data_bins()
    h = channel_response[..., data_bins]
    h_safe = np.where(np.abs(h) < 1e-9, 1e-9, h)
    symbols = corrected[..., data_bins] / h_safe[..., None, :]
    noise = np.maximum(np.asarray(noise_var, dtype=np.float64), 1e-15)
    noise_per_sc = noise[..., None] / np.maximum(np.abs(h_safe) ** 2, 1e-15)
    return symbols, noise_per_sc


def equalize_symbol(
    received_symbol_freq: np.ndarray,
    channel: ChannelEstimate,
    symbol_index: int,
    params: OFDMParams = DEFAULT_PARAMS,
    track_phase: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Equalise one OFDM symbol and return per-subcarrier symbols and noise.

    Thin wrapper over :func:`equalize_symbols_batch` with a block of one.

    Returns
    -------
    (symbols, noise_var)
        ``symbols`` are the equalised data-subcarrier values (length
        ``n_data_subcarriers``); ``noise_var`` is the post-equalisation noise
        variance per data subcarrier, suitable for soft demapping.
    """
    received_symbol_freq = np.asarray(received_symbol_freq, dtype=np.complex128)
    symbols, noise_per_sc = equalize_symbols_batch(
        received_symbol_freq[None, :],
        channel.response,
        channel.noise_var,
        params,
        start_symbol_index=symbol_index,
        track_phase=track_phase,
    )
    return symbols[0], noise_per_sc
