"""Smart Combiner: distributed space-time coding across senders (§6).

The Smart Combiner assigns every participating sender a *codeword* from a
replicated Alamouti codebook: the lead sender uses codeword 1, co-sender
``i`` uses codeword ``i+1`` (§6).  Codewords alternate between the two
Alamouti branches, so with any number of senders the receiver sees an
ordinary Alamouti code whose two branch channels are the *sums* of the
individual channels of the senders on each branch.  This gives three
properties the paper relies on:

* signals never cancel across a whole frame — a destructive combination in
  one symbol of a pair becomes constructive in the other;
* encoding/decoding stays as simple as Alamouti regardless of sender count;
* the receiver can decode even if only a subset of the intended senders
  actually joins the transmission (a missing sender just removes its term
  from the branch-channel sum).

The genuine 4-branch quasi-orthogonal code is also available
(``scheme="qostbc"``) for the ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.combining.alamouti import (
    alamouti_decode,
    alamouti_encode_branch,
    pad_to_even_symbols,
)
from repro.core.combining.quasi_orthogonal import (
    N_BRANCHES as QOSTBC_BRANCHES,
    qostbc_decode,
    qostbc_encode_branch,
)

__all__ = ["SmartCombiner", "CombinerScheme"]


#: Supported space-time coding schemes.
CombinerScheme = str
_SCHEMES = ("alamouti", "replicated_alamouti", "qostbc", "naive")


def _codewords(sender_channels: list[np.ndarray], codeword_indices: list[int] | None) -> list[int]:
    """Validated codeword of every sender channel (codeword order by default)."""
    if not sender_channels:
        raise ValueError("at least one sender channel is required")
    if codeword_indices is None:
        return list(range(len(sender_channels)))
    if len(codeword_indices) != len(sender_channels):
        raise ValueError("codeword_indices must match sender_channels")
    return list(codeword_indices)


@dataclass(frozen=True)
class SmartCombiner:
    """Distributed space-time encoder/decoder shared by all senders.

    Parameters
    ----------
    scheme:
        ``"replicated_alamouti"`` (default, the paper's scheme),
        ``"alamouti"`` (strictly two senders), ``"qostbc"`` (up to four
        senders, genuine quasi-orthogonal code) or ``"naive"`` (every sender
        transmits the same symbols — the strawman of §6 used for the
        ablation benchmark).
    """

    scheme: CombinerScheme = "replicated_alamouti"

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {_SCHEMES}")

    # ------------------------------------------------------------------
    # Codeword assignment
    # ------------------------------------------------------------------
    def branch_for_codeword(self, codeword_index: int) -> int:
        """Physical code branch used by a given codeword index.

        Codeword 0 belongs to the lead sender; co-sender ``i`` uses codeword
        ``i + 1`` (§6, §7.2).
        """
        if codeword_index < 0:
            raise ValueError("codeword_index must be non-negative")
        if self.scheme in ("alamouti", "replicated_alamouti"):
            return codeword_index % 2
        if self.scheme == "qostbc":
            return codeword_index % QOSTBC_BRANCHES
        return 0  # naive: everyone sends the same thing

    @property
    def block_symbols(self) -> int:
        """Number of OFDM symbols per space-time block."""
        return 4 if self.scheme == "qostbc" else 2

    def pad_symbols(self, data_symbols: np.ndarray) -> np.ndarray:
        """Pad a data-symbol block to a multiple of the space-time block size."""
        data_symbols = np.atleast_2d(np.asarray(data_symbols, dtype=np.complex128))
        block = self.block_symbols
        remainder = data_symbols.shape[0] % block
        if remainder == 0:
            return data_symbols
        pad = np.zeros((block - remainder, data_symbols.shape[1]), dtype=np.complex128)
        return np.concatenate([data_symbols, pad], axis=0)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, data_symbols: np.ndarray, codeword_index: int) -> np.ndarray:
        """Symbols a sender with the given codeword actually transmits.

        ``data_symbols`` is the common payload mapping shared by every sender
        (all senders must transmit the same data at the same rate, §7.1);
        the returned array has the same shape.
        """
        data_symbols = self.pad_symbols(data_symbols)
        branch = self.branch_for_codeword(codeword_index)
        if self.scheme == "naive":
            return data_symbols.copy()
        if self.scheme in ("alamouti", "replicated_alamouti"):
            padded = pad_to_even_symbols(data_symbols)
            return alamouti_encode_branch(padded, branch)
        return qostbc_encode_branch(data_symbols, branch)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def combine_branch_channels(
        self, sender_channels: list[np.ndarray], codeword_indices: list[int] | None = None
    ) -> np.ndarray:
        """Per-branch effective channels given each sender's channel.

        ``sender_channels`` holds one array per *participating* sender, in
        codeword order unless ``codeword_indices`` says otherwise; each array
        is ``(n_subcarriers,)`` or ``(n_symbols, n_subcarriers)``.  The
        result has shape ``(n_branches, ...)``.
        """
        codeword_indices = _codewords(sender_channels, codeword_indices)
        n_branches = 1 if self.scheme == "naive" else (
            QOSTBC_BRANCHES if self.scheme == "qostbc" else 2
        )
        reference = np.asarray(sender_channels[0], dtype=np.complex128)
        branches = np.zeros((n_branches,) + reference.shape, dtype=np.complex128)
        for channel, codeword in zip(sender_channels, codeword_indices):
            branch = self.branch_for_codeword(codeword)
            branches[branch] = branches[branch] + np.asarray(channel, dtype=np.complex128)
        return branches

    def decode(
        self,
        received: np.ndarray,
        sender_channels: list[np.ndarray],
        codeword_indices: list[int] | None = None,
        constellation: np.ndarray | None = None,
        return_gain: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Recover the common data symbols from the joint reception.

        Parameters
        ----------
        received:
            Raw (non-equalised) data-subcarrier values,
            shape ``(n_symbols, n_subcarriers)``.
        sender_channels:
            Per-sender channel estimates (possibly per-symbol, reflecting the
            Joint Channel Estimator's residual-offset tracking).
        codeword_indices:
            Codeword assigned to each entry of ``sender_channels``.
        constellation:
            Only used by the ``qostbc`` scheme for pairwise ML detection.
        return_gain:
            Also return the per-symbol effective channel gain, used by the
            joint receiver to scale noise for soft demapping.
        """
        received = np.atleast_2d(np.asarray(received, dtype=np.complex128))
        if self.scheme != "qostbc":
            # Naive and Alamouti decoding is decode_batch on a stack of one.
            codeword_indices = _codewords(sender_channels, codeword_indices)
            n_slots = max(codeword_indices) + 1
            stack = np.zeros((1, n_slots) + received.shape, dtype=np.complex128)
            active = np.zeros((1, n_slots), dtype=bool)
            for channel, codeword in zip(sender_channels, codeword_indices):
                stack[0, codeword] += np.asarray(channel, dtype=np.complex128)
                active[0, codeword] = True
            decoded, gain = self.decode_batch(received[None], stack, active)
            return (decoded[0], gain[0]) if return_gain else decoded[0]
        branches = self.combine_branch_channels(sender_channels, codeword_indices)
        static_branches = branches if branches.ndim == 2 else branches.mean(axis=1)
        decoded = qostbc_decode(received, static_branches, constellation)
        if not return_gain:
            return decoded
        gain = np.sum(np.abs(static_branches) ** 2, axis=0)
        gain_full = np.broadcast_to(gain, received.shape)
        return decoded, gain_full

    def decode_batch(
        self,
        received: np.ndarray,
        sender_channels: np.ndarray,
        active: np.ndarray,
        constellation: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`decode` with ``return_gain`` for a stack of frames.

        Parameters
        ----------
        received:
            ``(n_frames, n_symbols, n_subcarriers)`` raw data-subcarrier
            values.
        sender_channels:
            ``(n_frames, n_senders, n_symbols, n_subcarriers)`` per-symbol
            channels of every *intended* sender; sender ``k`` uses codeword
            ``k``.
        active:
            ``(n_frames, n_senders)``; inactive senders contribute nothing,
            exactly as if they were left out of :meth:`decode`'s list.
        constellation:
            As in :meth:`decode`.

        The branch sums add the active senders in codeword order, and the
        Alamouti and naive decoders are elementwise over the frame axis, so
        each frame gets the same floats as a stack of one; :meth:`decode`
        is that stack of one.  The ``qostbc`` decoder loops over blocks and
        subcarriers and stays per frame.
        """
        received = np.asarray(received, dtype=np.complex128)
        sender_channels = np.asarray(sender_channels, dtype=np.complex128)
        active = np.asarray(active, dtype=bool)
        if self.scheme == "qostbc":
            decoded = np.empty_like(received)
            gain = np.empty(received.shape, dtype=np.float64)
            for frame in range(received.shape[0]):
                senders = np.nonzero(active[frame])[0].tolist()
                decoded[frame], gain[frame] = self.decode(
                    received[frame],
                    list(sender_channels[frame, senders]),
                    codeword_indices=senders,
                    constellation=constellation,
                    return_gain=True,
                )
            return decoded, gain
        n_branches = 1 if self.scheme == "naive" else 2
        branches = np.zeros((n_branches,) + received.shape, dtype=np.complex128)
        for codeword in range(sender_channels.shape[1]):
            branch = self.branch_for_codeword(codeword)
            branches[branch] = np.where(
                active[:, codeword, None, None],
                branches[branch] + sender_channels[:, codeword],
                branches[branch],
            )
        if self.scheme == "naive":
            combined = branches[0]
            safe = np.where(np.abs(combined) < 1e-12, 1e-12, combined)
            return received / safe, np.abs(combined) ** 2
        return alamouti_decode(received, branches[0], branches[1], return_gain=True)

    def effective_gain(self, sender_channels: list[np.ndarray], codeword_indices: list[int] | None = None) -> np.ndarray:
        """Post-combining channel power per subcarrier.

        For the Alamouti-family schemes this is ``|hA|^2 + |hB|^2`` where the
        branch channels are sums of the individual sender channels; it is the
        quantity plotted per subcarrier in Fig. 16 of the paper.
        """
        branches = self.combine_branch_channels(sender_channels, codeword_indices)
        return np.sum(np.abs(branches) ** 2, axis=0)
