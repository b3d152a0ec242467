"""Alamouti space-time block code, applied per OFDM subcarrier (§6).

SourceSync's Smart Combiner prevents signals from concurrent senders from
combining destructively by coding data *across pairs of OFDM symbols*
(time) within each subcarrier, using the Alamouti code for two senders.
The two "antennas" of the classical formulation are here two physically
separate senders, which is possible only because the Symbol Level
Synchronizer aligns their transmissions and the Joint Channel Estimator
tracks their individual (rotating) channels.

Branch convention (per subcarrier, over two consecutive OFDM symbols):

==========  =================  =================
branch      symbol slot ``2t``  symbol slot ``2t+1``
==========  =================  =================
A (lead)    ``x1``              ``x2``
B (co)      ``-conj(x2)``       ``conj(x1)``
==========  =================  =================

With per-branch channels ``hA`` and ``hB`` the receiver observes
``y1 = hA*x1 - hB*conj(x2)`` and ``y2 = hA*x2 + hB*conj(x1)`` and recovers
both symbols with maximum-ratio combining gain ``|hA|^2 + |hB|^2`` — never a
destructive fade unless *both* channels fade simultaneously.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "alamouti_encode_branch",
    "alamouti_decode",
    "alamouti_effective_gain",
    "pad_to_even_symbols",
]


def pad_to_even_symbols(data_symbols: np.ndarray) -> np.ndarray:
    """Pad a ``(n_symbols, n_subcarriers)`` block to an even symbol count.

    The Alamouti code operates on pairs of OFDM symbols; a frame with an odd
    number of data symbols gets one zero symbol appended (the receiver knows
    the true count from the frame configuration and discards the pad).
    """
    data_symbols = np.atleast_2d(np.asarray(data_symbols, dtype=np.complex128))
    if data_symbols.shape[0] % 2 == 0:
        return data_symbols
    pad = np.zeros((1, data_symbols.shape[1]), dtype=np.complex128)
    return np.concatenate([data_symbols, pad], axis=0)


def alamouti_encode_branch(data_symbols: np.ndarray, branch: int) -> np.ndarray:
    """Encode a data-symbol block onto one Alamouti branch.

    Parameters
    ----------
    data_symbols:
        Array of shape ``(n_symbols, n_subcarriers)`` with ``n_symbols``
        even; these are the information-bearing constellation points shared
        by all senders.
    branch:
        0 for the lead-sender branch (transmit the symbols unchanged),
        1 for the co-sender branch (transmit the space-time conjugate pair).

    Returns
    -------
    numpy.ndarray
        The symbols this branch actually transmits, same shape as the input.
    """
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if data_symbols.ndim != 2:
        raise ValueError("data_symbols must be 2-D (symbols x subcarriers)")
    if data_symbols.shape[0] % 2 != 0:
        raise ValueError("Alamouti encoding requires an even number of OFDM symbols")
    if branch == 0:
        return data_symbols.copy()
    if branch != 1:
        raise ValueError("branch must be 0 or 1")
    out = np.empty_like(data_symbols)
    x1 = data_symbols[0::2]
    x2 = data_symbols[1::2]
    out[0::2] = -np.conj(x2)
    out[1::2] = np.conj(x1)
    return out


def alamouti_decode(
    received: np.ndarray,
    channel_a: np.ndarray,
    channel_b: np.ndarray,
    return_gain: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Decode Alamouti-coded symbols with per-symbol channel knowledge.

    Parameters
    ----------
    received:
        Received (already FFT'd, non-equalised) data-subcarrier values,
        shape ``(..., n_symbols, n_subcarriers)`` with ``n_symbols`` even;
        leading axes, if any, index independent frames of a stack.
    channel_a, channel_b:
        Channels of branch A and branch B.  Either shape
        ``(n_subcarriers,)`` for a static channel or the received shape
        when the Joint Channel Estimator tracks per-symbol rotation (§5).
        A missing sender is represented by an all-zero channel.
    return_gain:
        When True, also return the per-pair combining gain
        ``|hA|^2 + |hB|^2`` (used to scale noise for soft demapping).

    Returns
    -------
    numpy.ndarray
        Estimated data symbols, same shape as ``received``.
    """
    received = np.asarray(received, dtype=np.complex128)
    if received.ndim < 2 or received.shape[-2] % 2 != 0:
        raise ValueError("received must be (..., n_symbols, n_sc) with an even symbol count")

    def expand(channel: np.ndarray) -> np.ndarray:
        channel = np.asarray(channel, dtype=np.complex128)
        if channel.ndim == 1:
            return np.broadcast_to(channel, received.shape)
        if channel.shape != received.shape:
            raise ValueError("per-symbol channel must match the received shape")
        return channel

    ha = expand(channel_a)
    hb = expand(channel_b)

    y1 = received[..., 0::2, :]
    y2 = received[..., 1::2, :]
    # Use the channel of the first slot of each pair; the estimator keeps the
    # per-symbol values, and averaging over the pair is equivalent to first
    # order.
    ha_pair = 0.5 * (ha[..., 0::2, :] + ha[..., 1::2, :])
    hb_pair = 0.5 * (hb[..., 0::2, :] + hb[..., 1::2, :])

    gain = np.abs(ha_pair) ** 2 + np.abs(hb_pair) ** 2
    gain_safe = np.maximum(gain, 1e-15)
    # Named operands keep every complex product in (left, right) order: numpy
    # reuses a large temporary right operand of a commutative ufunc as the
    # output and swaps the operands, which rounds complex products
    # differently, so a stacked call would drift from per-frame calls.
    ha_conj = np.conj(ha_pair)
    y1_conj = np.conj(y1)
    y2_conj = np.conj(y2)
    x1 = (ha_conj * y1 + hb_pair * y2_conj) / gain_safe
    x2 = (ha_conj * y2 - hb_pair * y1_conj) / gain_safe

    decoded = np.empty_like(received)
    decoded[..., 0::2, :] = x1
    decoded[..., 1::2, :] = x2
    if return_gain:
        return decoded, np.repeat(gain, 2, axis=-2)
    return decoded


def alamouti_effective_gain(channel_a: np.ndarray, channel_b: np.ndarray) -> np.ndarray:
    """Post-combining channel power gain ``|hA|^2 + |hB|^2`` per subcarrier.

    This is the quantity behind both SourceSync gains: the *power gain*
    (two unit-power channels give gain 2, i.e. +3 dB) and the *diversity
    gain* (the sum is far less likely to fade than either term), cf. §8.2.
    """
    channel_a = np.asarray(channel_a, dtype=np.complex128)
    channel_b = np.asarray(channel_b, dtype=np.complex128)
    return np.abs(channel_a) ** 2 + np.abs(channel_b) ** 2
