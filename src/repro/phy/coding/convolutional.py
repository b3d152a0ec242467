"""Rate-1/2, constraint-length-7 convolutional code with a soft Viterbi decoder.

This is the mandatory 802.11a/g code (generator polynomials 133/171 octal).
Higher code rates (2/3, 3/4) are obtained by puncturing the rate-1/2 output
(see :mod:`repro.phy.coding.puncturing`).

Both halves of the codec are batch-friendly:

* :meth:`ConvolutionalCode.encode` accepts ``(..., n_bits)`` arrays and is
  fully vectorised — each output stream is an XOR of shifted copies of the
  (zero-padded) input, so an ensemble of packets encodes in a handful of
  numpy calls with no per-bit Python loop.
* :meth:`ConvolutionalCode.decode_batch` runs a block-parallel radix-2
  Viterbi pass over a ``(n_packets, n_llrs)`` batch.  The path metrics are
  held as ``(n_states, n_packets)``; state ``s``'s two predecessors are
  ``2s mod S`` and ``2s+1 mod S``, so each add-compare-select step adds
  the even and odd metric halves (each tiled twice) to branch metrics
  gathered from a table of the ``2**n_outputs`` distinct values per step,
  precomputed for a block of steps at a time.  The single remaining Python
  loop over trellis steps advances every packet of the ensemble, the
  survivor decisions are bit-packed eight packets to a byte, and the
  traceback is vectorised over packets as well.
  :meth:`ConvolutionalCode.decode` is a thin single-packet wrapper, which
  guarantees the batched and per-packet paths are bit-identical.

Experiments should obtain codes through :func:`get_code` so identical
trellis tables are built once per process instead of once per packet.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["ConvolutionalCode", "get_code"]

#: Cap on survivor decisions (steps x packets x states) held live per
#: Viterbi pass; ConvolutionalCode.chunk_rows turns the cap into a packet
#: count.  Decisions are bit-packed along the packet axis, so a full chunk
#: holds 0.5 MiB of them (4 MiB at a byte each), plus one unpacked block of
#: _TABLE_STEPS steps at a byte per decision.  decode_batch splits larger batches into chunks of
#: that many packets, which changes nothing numerically (every packet's
#: recursion is independent) but bounds memory the same way the receiver
#: chunks its soft demapper.  The joint receiver's streaming decoder
#: decodes its LLR rows a chunk at a time as they arrive: Fig. 13's 320
#: frames of 528 trellis steps fill two chunks of 124 mid-run and leave a
#: remainder of 72.
_DECODE_CHUNK_ELEMS = 1 << 22

#: Trellis steps whose branch-metric table decode_batch builds at a time.
_TABLE_STEPS = 64


class ConvolutionalCode:
    """The 802.11 (133, 171) rate-1/2 convolutional code.

    Parameters
    ----------
    constraint_length:
        Number of bits in the encoder register including the current input.
    polynomials:
        Generator polynomials in octal-equivalent integer form.
    """

    def __init__(self, constraint_length: int = 7, polynomials: tuple[int, int] = (0o133, 0o171)):
        if constraint_length < 2:
            raise ValueError("constraint_length must be at least 2")
        self.constraint_length = constraint_length
        self.polynomials = tuple(polynomials)
        self.n_outputs = len(self.polynomials)
        self.n_states = 1 << (constraint_length - 1)
        self._build_trellis()

    # ------------------------------------------------------------------
    # Trellis construction
    # ------------------------------------------------------------------
    def _build_trellis(self) -> None:
        n_states = self.n_states
        memory = self.constraint_length - 1
        # next_state[input, state] and output bits per branch
        self._next_state = np.zeros((2, n_states), dtype=np.int64)
        self._output = np.zeros((2, n_states, self.n_outputs), dtype=np.int8)
        for state in range(n_states):
            for bit in (0, 1):
                register = (bit << memory) | state
                outputs = []
                for poly in self.polynomials:
                    taps = register & poly
                    outputs.append(bin(taps).count("1") & 1)
                self._next_state[bit, state] = register >> 1
                self._output[bit, state] = outputs
        # Predecessor tables for the add-compare-select / traceback passes.
        # Every state has exactly two predecessors; which one was taken is
        # what the decoder stores per step.  The information bit consumed on
        # entry to a state is fully determined by that state (its newest
        # register bit), so it does not need to be stored.
        mask = n_states - 1
        states = np.arange(n_states)
        self._entry_bit = (states >> (memory - 1)).astype(np.uint8)
        self._prev_states = np.empty((2, n_states), dtype=np.int64)
        self._prev_states[0] = (states << 1) & mask
        self._prev_states[1] = ((states << 1) & mask) | 1
        self._prev_outputs = np.empty((2, n_states, self.n_outputs), dtype=np.int8)
        for choice in (0, 1):
            prev = self._prev_states[choice]
            bits = self._entry_bit
            self._prev_outputs[choice] = self._output[bits, prev]
        # The soft decoder indexes branch metrics by output pattern: pattern
        # p carries output bit o in bit o of p, with correlation sign 1-2*bit.
        weights = 1 << np.arange(self.n_outputs)
        self._prev_pattern = (self._prev_outputs.astype(np.int64) * weights).sum(axis=-1)
        pattern_bits = (np.arange(1 << self.n_outputs)[:, None] >> np.arange(self.n_outputs)) & 1
        self._pattern_signs = 1.0 - 2.0 * pattern_bits.astype(np.float64)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, bits: np.ndarray, terminate: bool = True) -> np.ndarray:
        """Encode information bits at rate 1/2.

        Parameters
        ----------
        bits:
            Information bits (0/1), shape ``(..., n_bits)``; leading axes
            are treated as independent packets of a batch.
        terminate:
            When True (default) the encoder appends ``constraint_length - 1``
            zero tail bits so the trellis ends in the all-zero state, which
            is what 802.11 does and what the decoder assumes.

        Notes
        -----
        Because the encoder starts in the all-zero state, output stream
        ``j`` is simply the XOR of delayed copies of the zero-padded input
        selected by polynomial ``j``'s taps, which vectorises over both the
        bit axis and any batch axes.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        memory = self.constraint_length - 1
        if terminate:
            tail_shape = bits.shape[:-1] + (memory,)
            bits = np.concatenate([bits, np.zeros(tail_shape, dtype=np.uint8)], axis=-1)
        n_bits = bits.shape[-1]
        padded = np.concatenate(
            [np.zeros(bits.shape[:-1] + (memory,), dtype=np.uint8), bits], axis=-1
        )
        coded = np.empty(bits.shape[:-1] + (n_bits * self.n_outputs,), dtype=np.uint8)
        for j, poly in enumerate(self.polynomials):
            stream = np.zeros_like(bits)
            # Register bit position p holds the input delayed by (memory - p)
            # samples, i.e. padded[..., p : p + n_bits].
            for p in range(self.constraint_length):
                if (poly >> p) & 1:
                    stream ^= padded[..., p : p + n_bits]
            coded[..., j :: self.n_outputs] = stream
        return coded

    @property
    def tail_bits(self) -> int:
        """Number of zero tail bits appended by a terminated encode."""
        return self.constraint_length - 1

    def coded_length(self, n_info_bits: int, terminate: bool = True) -> int:
        """Number of coded bits produced for ``n_info_bits`` information bits."""
        total = n_info_bits + (self.tail_bits if terminate else 0)
        return total * self.n_outputs

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _branch_table(self, llr_steps: np.ndarray) -> np.ndarray:
        """Distinct branch metrics of a block of trellis steps.

        ``llr_steps`` is ``(n_steps, n_outputs, n_packets)``.  Every branch
        sign is +-1, so a step has only ``2**n_outputs`` distinct branch
        metrics: ``table[t, p, b] = sum_o sign(p, o) * llr[t, o, b]``,
        accumulated in output order exactly as a per-branch sum would be.
        """
        signs = self._pattern_signs  # (n_patterns, n_out)
        table = llr_steps[:, None, 0, :] * signs[None, :, 0, None]
        for o in range(1, self.n_outputs):
            table += llr_steps[:, None, o, :] * signs[None, :, o, None]
        return table

    def chunk_rows(self, n_llrs: int) -> int:
        """Packets one Viterbi pass decodes at a time for rows of ``n_llrs`` LLRs.

        :meth:`decode_batch` splits larger batches into chunks of this
        many packets, so a caller that hands it exactly this many rows at a
        time makes one pass per call.
        """
        n_steps = n_llrs // self.n_outputs
        return max(_DECODE_CHUNK_ELEMS // max(n_steps * self.n_states, 1), 1)

    def decode(
        self,
        llrs: np.ndarray,
        terminated: bool = True,
        strip_tail: bool = True,
    ) -> np.ndarray:
        """Soft-decision Viterbi decode of a single packet.

        Parameters
        ----------
        llrs:
            Log-likelihood ratios of the coded bits, positive values meaning
            bit 0 is more likely.  Hard decisions can be passed as
            ``1 - 2*bit`` values.  Erased (punctured) positions should be 0.
        terminated:
            Whether the encoder appended zero tail bits.  When True the
            survivor path is forced to end in state 0.
        strip_tail:
            Whether to strip the decoded tail bits from the output.

        Returns
        -------
        numpy.ndarray
            The decoded information bits.

        Notes
        -----
        This is a thin wrapper over :meth:`decode_batch` with a batch of
        one, so single-packet and ensemble decoding are bit-identical by
        construction.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 1:
            raise ValueError("decode expects a 1-D LLR array; use decode_batch for batches")
        return self.decode_batch(llrs[None, :], terminated=terminated, strip_tail=strip_tail)[0]

    def decode_batch(
        self,
        llrs: np.ndarray,
        terminated: bool = True,
        strip_tail: bool = True,
    ) -> np.ndarray:
        """Block-parallel soft Viterbi decode of a packet ensemble.

        Parameters
        ----------
        llrs:
            ``(n_packets, n_llrs)`` log-likelihood ratios; every packet must
            have the same length (pad or group by length upstream).
        terminated, strip_tail:
            As in :meth:`decode`.

        Returns
        -------
        numpy.ndarray
            ``(n_packets, n_info_bits)`` decoded bits.

        Notes
        -----
        The add-compare-select recursion carries a ``(n_states, n_packets)``
        path-metric array: the only Python loop is over trellis steps, and
        each iteration advances *all* packets at once.  Branch signs are
        +-1, so the branch metrics of every step are the ``2**n_outputs``
        signed LLR sums, built for a block of steps at a time with the same
        left-to-right products and sums a per-branch evaluation would use.
        The compare keeps the first candidate on ties and lets NaN win as
        ``argmax`` over the two candidates would.  The decisions of each
        block of steps are bit-packed along the packet axis as the block
        finishes, and the traceback unpacks one block at a time, so a pass
        holds one bit per decision and one block of bytes.  Every operation
        is elementwise per packet, so each batch row follows exactly the
        float path a batch of one would, independent of the batch size.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2:
            raise ValueError("decode_batch expects a (n_packets, n_llrs) array")
        n_packets = llrs.shape[0]
        if llrs.shape[1] % self.n_outputs != 0:
            raise ValueError(
                f"LLR length {llrs.shape[1]} is not a multiple of {self.n_outputs}"
            )
        n_steps = llrs.shape[1] // self.n_outputs
        if n_packets == 0 or n_steps == 0:
            n_info = n_steps
            if terminated and strip_tail:
                n_info = max(n_steps - self.tail_bits, 0)
            return np.zeros((n_packets, n_info), dtype=np.uint8)
        chunk = self.chunk_rows(llrs.shape[1])
        if n_packets > chunk:
            return np.concatenate(
                [
                    self.decode_batch(llrs[lo : lo + chunk], terminated, strip_tail)
                    for lo in range(0, n_packets, chunk)
                ]
            )
        llr_steps = llrs.reshape(n_packets, n_steps, self.n_outputs).transpose(1, 2, 0)

        n_states = self.n_states
        half = n_states // 2
        pattern = self._prev_pattern  # (2, n_states)
        metrics = np.full((n_states, n_packets), -1e18, dtype=np.float64)
        metrics[0] = 0.0
        cand0 = np.empty_like(metrics)
        cand1 = np.empty_like(metrics)
        branch0 = np.empty_like(metrics)
        branch1 = np.empty_like(metrics)
        first_nan = np.empty(metrics.shape, dtype=bool)
        # block[t, s, b] is True where state s kept its first predecessor
        # (2s mod S) at step t of the current block, as argmax over the two
        # candidates would.  Each finished block is bit-packed along the
        # contiguous packet axis, eight packets per byte.
        block = np.empty((min(_TABLE_STEPS, n_steps), n_states, n_packets), dtype=bool)
        packed = np.empty((n_steps, n_states, -(-n_packets // 8)), dtype=np.uint8)
        for step in range(n_steps):
            if step % _TABLE_STEPS == 0:
                table = None  # free the last block's table before building the next
                table = self._branch_table(llr_steps[step : step + _TABLE_STEPS])
            np.take(table[step % _TABLE_STEPS], pattern[0], axis=0, out=branch0)
            np.take(table[step % _TABLE_STEPS], pattern[1], axis=0, out=branch1)
            # Radix-2 butterfly: state s's predecessors are 2s mod S and
            # 2s+1 mod S, i.e. the even and odd metric halves, each tiled twice.
            np.add(metrics[0::2][None], branch0.reshape(2, half, n_packets),
                   out=cand0.reshape(2, half, n_packets))
            np.add(metrics[1::2][None], branch1.reshape(2, half, n_packets),
                   out=cand1.reshape(2, half, n_packets))
            # argmax's rule: the first candidate wins ties and when it is
            # NaN; otherwise a NaN second candidate wins.  The kept value is
            # the maximum: NaN when either candidate is, and on a tie of
            # 0.0 and -0.0 the zero's sign is invisible to later compares.
            keep = block[step % _TABLE_STEPS]
            np.greater_equal(cand0, cand1, out=keep)
            np.logical_or(keep, np.isnan(cand0, out=first_nan), out=keep)
            np.maximum(cand0, cand1, out=metrics)
            if step % _TABLE_STEPS == _TABLE_STEPS - 1 or step == n_steps - 1:
                lo = step - step % _TABLE_STEPS
                packed[lo : step + 1] = np.packbits(block[: step + 1 - lo], axis=-1)
        del block, table

        # Vectorised traceback: one state per packet, walked backwards with
        # fancy indexing instead of a per-packet Python loop, unpacking one
        # block of decisions at a time.
        if terminated:
            state = np.zeros(n_packets, dtype=np.int64)
        else:
            state = np.argmax(metrics, axis=0)
        rows = np.arange(n_packets)
        mask = n_states - 1
        bits = np.empty((n_packets, n_steps), dtype=np.uint8)
        for lo in reversed(range(0, n_steps, _TABLE_STEPS)):
            hi = min(lo + _TABLE_STEPS, n_steps)
            decisions = np.unpackbits(packed[lo:hi], axis=-1, count=n_packets).view(bool)
            for step in range(hi - 1, lo - 1, -1):
                bits[:, step] = self._entry_bit[state]
                state = ((state << 1) & mask) | ~decisions[step - lo, state, rows]
            del decisions

        if terminated and strip_tail:
            bits = bits[:, : max(n_steps - self.tail_bits, 0)]
        return bits

    def decode_hard(self, coded_bits: np.ndarray, terminated: bool = True) -> np.ndarray:
        """Hard-decision decode convenience wrapper."""
        coded_bits = np.asarray(coded_bits, dtype=np.float64)
        llrs = 1.0 - 2.0 * coded_bits
        return self.decode(llrs, terminated=terminated)


def get_code(
    constraint_length: int = 7, polynomials: Sequence[int] = (0o133, 0o171)
) -> ConvolutionalCode:
    """Shared :class:`ConvolutionalCode` instance for a given configuration.

    Trellis construction walks every (state, input) pair in Python; caching
    the built code lets experiments stop rebuilding identical tables per
    packet or per module import.  Arguments are normalised before the cache
    lookup, so any sequence of polynomials works and positional and keyword
    spellings of one configuration share one instance.
    """
    return _cached_code(int(constraint_length), tuple(int(p) for p in polynomials))


@functools.lru_cache(maxsize=None)
def _cached_code(constraint_length: int, polynomials: tuple[int, ...]) -> ConvolutionalCode:
    return ConvolutionalCode(constraint_length, polynomials)
