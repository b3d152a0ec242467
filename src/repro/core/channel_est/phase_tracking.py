"""Per-sender residual phase tracking with time-shared pilots (§5).

Even after CFO pre-correction, each sender retains a small residual
frequency error that accumulates into large phase errors over a packet.  A
standard OFDM receiver tracks the *single* transmitter's residual offset
from the pilot subcarriers of every data symbol; that algorithm cannot be
applied directly to a joint frame because each sender has its own residual
offset.

SourceSync therefore time-shares the pilots: the lead sender transmits the
pilot subcarriers only in the data symbols it "owns" (and is silent on the
pilots otherwise), co-sender ``i`` owns a different set of symbols, and the
receiver maintains one residual-phase estimate per sender, updating it
whenever that sender owns the pilots.

:class:`PerSenderPhaseTracker` follows one frame symbol by symbol;
:func:`track_phases_batch` runs the same recursion for a stack of frames
that share a data-section geometry.  Everything except the phase unwrap is
independent of the running estimate, so the batched tracker correlates
every symbol's pilots with its owner's expected pilots in one pass, and
only the unwrap loops over symbols, updating every frame's owner phase at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.equalizer import ChannelEstimate
from repro.phy.ofdm import PILOT_VALUES, pilot_polarities, pilot_polarity
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["pilot_owner", "pilot_scale_pattern", "PerSenderPhaseTracker", "track_phases_batch"]


def pilot_owner(symbol_index: int, n_senders: int) -> int:
    """Which sender (0 = lead) owns the pilots of a given data symbol.

    The paper's example gives odd symbols to the lead and even symbols to the
    co-sender for two senders; the general rule used here is round-robin
    over the sender index.
    """
    if n_senders < 1:
        raise ValueError("n_senders must be at least 1")
    return symbol_index % n_senders


def pilot_scale_pattern(n_symbols: int, sender_index: int, n_senders: int) -> np.ndarray:
    """Per-symbol pilot amplitude for one sender (1 where it owns the pilots)."""
    indices = np.arange(n_symbols)
    return (indices % n_senders == sender_index % n_senders).astype(np.float64)


@dataclass
class PerSenderPhaseTracker:
    """Tracks one residual phase trajectory per sender across data symbols.

    This is the one-frame form; :func:`track_phases_batch` runs the same
    recursion for a stack of frames, bit for bit.

    Attributes
    ----------
    n_senders:
        Number of senders in the joint frame (lead + co-senders).
    params:
        OFDM numerology (pilot positions).
    smoothing:
        Exponential smoothing factor applied to phase *increments*; 1.0
        trusts each new pilot observation fully.
    """

    n_senders: int
    params: OFDMParams = DEFAULT_PARAMS
    smoothing: float = 1.0
    _phases: np.ndarray = field(init=False, repr=False)
    _history: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_senders < 1:
            raise ValueError("n_senders must be at least 1")
        self._phases = np.zeros(self.n_senders, dtype=np.float64)
        self._history = []

    # ------------------------------------------------------------------
    def update(
        self,
        received_symbol_freq: np.ndarray,
        sender_channels: list[ChannelEstimate],
        symbol_index: int,
    ) -> np.ndarray:
        """Consume one data symbol and return the current per-sender phases.

        Only the sender owning this symbol's pilots gets its phase updated;
        the others keep their previous estimate (they will be updated on
        their own symbols).
        """
        if len(sender_channels) != self.n_senders:
            raise ValueError("sender_channels must have one entry per sender")
        owner = pilot_owner(symbol_index, self.n_senders)
        received_symbol_freq = np.asarray(received_symbol_freq, dtype=np.complex128)
        pilot_bins = self.params.pilot_bins()
        expected = (
            sender_channels[owner].on_bins(pilot_bins)
            * PILOT_VALUES
            * pilot_polarity(symbol_index)
        )
        observed = received_symbol_freq[pilot_bins]
        reference = np.conj(expected)
        correlation = np.sum(observed * reference)
        if np.abs(correlation) > 1e-15:
            measured = float(np.angle(correlation))
            previous = self._phases[owner]
            # Unwrap the measurement relative to the running estimate so a
            # steadily growing phase does not alias at +-pi.
            delta = np.angle(np.exp(1j * (measured - previous)))
            self._phases[owner] = previous + self.smoothing * delta
        self._history.append(self._phases.copy())
        return self._phases.copy()

    # ------------------------------------------------------------------
    @property
    def phases(self) -> np.ndarray:
        """Current per-sender residual phases (radians)."""
        return self._phases.copy()

    def rotated_channels(
        self, sender_channels: list[ChannelEstimate]
    ) -> list[np.ndarray]:
        """Apply the current per-sender phases to the per-sender channels.

        The receiver applies each sender's residual phase to that sender's
        channel estimate *before* summing them into the composite channel
        (§5), which is exactly what this helper returns (full FFT-bin
        vectors).
        """
        if len(sender_channels) != self.n_senders:
            raise ValueError("sender_channels must have one entry per sender")
        rotated = []
        for phase, ch in zip(self._phases, sender_channels):
            rotation = np.exp(1j * phase)
            rotated.append(ch.response * rotation)
        return rotated

    def history(self) -> np.ndarray:
        """Phase trajectory, shape ``(n_updates, n_senders)``."""
        if not self._history:
            return np.zeros((0, self.n_senders))
        return np.asarray(self._history)


def track_phases_batch(
    freq: np.ndarray,
    responses: np.ndarray,
    gate: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    smoothing: float = 1.0,
) -> np.ndarray:
    """Per-sender residual phases of a stack of frames, after every symbol.

    Parameters
    ----------
    freq:
        ``(n_frames, n_symbols, n_fft)`` received data symbols (FFT bins).
    responses:
        ``(n_frames, n_senders, n_fft)`` per-sender channel responses.
    gate:
        ``(n_frames, n_senders)``; a symbol owned by a sender whose gate is
        False leaves that frame's phases untouched, as if
        :meth:`PerSenderPhaseTracker.update` had not been called for it.
    params, smoothing:
        As in :class:`PerSenderPhaseTracker`.

    Returns
    -------
    numpy.ndarray
        ``(n_frames, n_symbols, n_senders)`` phases, row ``t`` being what
        the scalar tracker's :attr:`~PerSenderPhaseTracker.phases` reads
        after symbol ``t``.  Every float follows the scalar tracker's
        operations, so the two agree bit for bit.
    """
    n_frames, n_symbols, _ = freq.shape
    n_senders = responses.shape[1]
    pilot_bins = params.pilot_bins()
    owners = np.arange(n_symbols) % n_senders
    expected = (responses[:, :, pilot_bins] * PILOT_VALUES)[:, owners] * pilot_polarities(
        n_symbols
    )[None, :, None]
    # Summed along a C-contiguous last axis, each frame's four products take
    # the same pairwise order as the scalar tracker's 1-D sum; the layout
    # numpy picks for the fancy-indexed product may reorder the additions.
    reference = np.conj(expected)
    products = np.ascontiguousarray(freq[:, :, pilot_bins] * reference)
    correlation = np.sum(products, axis=-1)
    update = gate[:, owners] & (np.abs(correlation) > 1e-15)
    measured = np.angle(correlation)
    phases = np.zeros((n_frames, n_senders), dtype=np.float64)
    track = np.empty((n_frames, n_symbols, n_senders), dtype=np.float64)
    for t in range(n_symbols):
        rows = update[:, t]
        if rows.any():
            owner = owners[t]
            previous = phases[rows, owner]
            # Unwrap relative to the running estimate, as the scalar update does.
            delta = np.angle(np.exp(1j * (measured[rows, t] - previous)))
            phases[rows, owner] = previous + smoothing * delta
        track[:, t] = phases
    return track
