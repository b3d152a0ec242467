"""Standard single-sender 802.11-style OFDM receive chain.

The chain mirrors :mod:`repro.phy.transmitter`: packet detection, coarse CFO
estimation and correction, LTF channel and noise estimation, per-symbol FFT,
pilot phase tracking, equalisation, soft demapping, deinterleaving,
depuncturing, Viterbi decoding, descrambling and CRC check.

Batch API
---------
:meth:`Receiver.receive_batch` decodes a ``(n_packets, n_samples)`` ensemble
of frames with a batch axis on every stage after detection: one gather for
frame alignment, one vectorised CFO estimate + correction, one batched LTF
FFT and channel/noise estimate, one batched data-symbol FFT, vectorised
pilot tracking and equalisation, one flattened soft demap, one batched
deinterleave/depuncture and a single block-parallel Viterbi call
(:meth:`repro.phy.coding.convolutional.ConvolutionalCode.decode_batch`).
Packet detection itself remains per-packet (it is data-dependent), and the
final CRC check is a cheap per-packet loop.

:meth:`Receiver.receive` is a thin wrapper over :meth:`receive_batch` with a
batch of one; every batched stage is elementwise or a per-row reduction, so
batched and per-packet processing produce bit-identical decoded bits,
payloads and CRC outcomes under the same inputs (tested in
``tests/phy/test_batch_pipeline.py``).  Floating-point *intermediates*
(LLRs, equalised symbols) agree to within a few ulp rather than exactly:
numpy's complex-multiply kernels select SIMD/FMA code paths based on heap
alignment, which can round the last bit differently between separately
allocated arrays.  This never affects the decoded bit stream in practice
and is asserted to ``rtol=1e-10`` in the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy import bits as bitutils
from repro.phy.coding.convolutional import get_code
from repro.phy.coding.interleaver import interleaver_permutation
from repro.phy.coding.puncturing import depuncture
from repro.phy.detection import (
    DetectionResult,
    detect_packet_autocorrelation,
    detect_packet_autocorrelation_batch,
    detect_packet_crosscorrelation,
    estimate_coarse_cfo,
    fine_timing_ltf,
)
from repro.phy.equalizer import (
    ChannelEstimate,
    equalize_symbols_batch,
    estimate_channel_ltf,
    estimate_noise_from_ltf,
)
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import extract_symbols
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import (
    long_training_field,
    short_training_field,
)
from repro.phy.transmitter import FrameConfig

__all__ = ["ReceiveResult", "Receiver"]

_CODE = get_code()

#: Cap on the number of (symbol, subcarrier) points soft-demapped per numpy
#: call; keeps the distance matrix of large 64-QAM ensembles in cache-sized
#: chunks without changing results (the demapper is purely elementwise).
_DEMAP_CHUNK_SYMBOLS = 1 << 20


@dataclass
class ReceiveResult:
    """Outcome of attempting to decode one frame."""

    detected: bool
    crc_ok: bool
    payload: bytes
    detection: DetectionResult | None = None
    channel: ChannelEstimate | None = None
    cfo_hz: float = 0.0
    snr_db: float = float("nan")
    equalized_symbols: np.ndarray | None = field(default=None, repr=False)

    @property
    def success(self) -> bool:
        """True when the frame was detected and passed its CRC."""
        return self.detected and self.crc_ok


class Receiver:
    """Standard OFDM receiver for single-sender frames."""

    def __init__(
        self,
        params: OFDMParams = DEFAULT_PARAMS,
        use_matched_filter_detection: bool = False,
        correct_cfo: bool = True,
    ):
        self.params = params
        self.use_matched_filter_detection = use_matched_filter_detection
        self.correct_cfo = correct_cfo

    # ------------------------------------------------------------------
    def detect(self, samples: np.ndarray) -> DetectionResult:
        """Run packet detection over a sample stream."""
        if self.use_matched_filter_detection:
            return detect_packet_crosscorrelation(samples, self.params)
        return detect_packet_autocorrelation(samples, self.params)

    # ------------------------------------------------------------------
    def receive(
        self, samples: np.ndarray, config: FrameConfig, start_index: int | None = None
    ) -> ReceiveResult:
        """Attempt to decode a frame from the received samples.

        Thin wrapper over :meth:`receive_batch` with a batch of one.

        Parameters
        ----------
        samples:
            Received baseband samples (channel output plus noise).
        config:
            Frame configuration (rate, payload length), normally known from
            the PLCP SIGNAL field; carried out-of-band in the simulation.
        start_index:
            Optional externally supplied frame start (e.g. from a genie or a
            MAC-level scheduler); when omitted the receiver detects it.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        starts = None if start_index is None else [int(start_index)]
        return self.receive_batch(samples[None, :], config, start_indices=starts)[0]

    # ------------------------------------------------------------------
    def receive_batch(
        self,
        samples: np.ndarray,
        config: FrameConfig,
        start_indices: np.ndarray | list[int] | int | None = None,
    ) -> list[ReceiveResult]:
        """Attempt to decode an ensemble of frames in one batched pass.

        Parameters
        ----------
        samples:
            ``(n_packets, n_samples)`` received baseband sample streams, one
            per frame of the ensemble.
        config:
            Frame configuration shared by every frame of the ensemble.
        start_indices:
            Optional frame starts: a scalar (broadcast), one index per
            packet, or ``None`` to run per-packet detection + fine timing.
            Supplied starts must be non-negative (negative indices would
            silently wrap around the sample buffer).

        Returns
        -------
        list[ReceiveResult]
            One result per packet, in input order; undetected/truncated
            frames yield ``detected=False`` entries exactly as the
            single-packet path does.
        """
        params = self.params
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ValueError("receive_batch expects a (n_packets, n_samples) array")
        n_packets = samples.shape[0]
        if n_packets == 0:
            return []

        results: list[ReceiveResult | None] = [None] * n_packets
        starts = np.zeros(n_packets, dtype=np.int64)
        detections: list[DetectionResult | None] = [None] * n_packets
        if start_indices is None:
            if self.use_matched_filter_detection:
                batch_detections = [
                    detect_packet_crosscorrelation(samples[i], params) for i in range(n_packets)
                ]
            else:
                # One vectorised detection pass for the whole ensemble; only
                # the LTF fine-timing refinement (already one matrix product
                # per packet) stays per row.
                batch_detections = detect_packet_autocorrelation_batch(samples, params)
            for i, detection in enumerate(batch_detections):
                detections[i] = detection
                if not detection.detected:
                    results[i] = ReceiveResult(False, False, b"", detection=detection)
                    continue
                starts[i] = max(fine_timing_ltf(samples[i], detection.start_index, params), 0)
        else:
            starts[:] = np.broadcast_to(np.asarray(start_indices, dtype=np.int64), (n_packets,))
            if np.any(starts < 0):
                raise ValueError("start_indices must be non-negative")
            detections = [
                DetectionResult(True, int(s), int(s), 1.0) for s in starts
            ]

        stf_len = short_training_field(params).size
        ltf_len = long_training_field(params).size
        n_data_samples = config.n_data_symbols * params.symbol_samples
        frame_len = stf_len + ltf_len + n_data_samples

        fits = starts + frame_len <= samples.shape[1]
        active = [i for i in range(n_packets) if results[i] is None and fits[i]]
        for i in range(n_packets):
            if results[i] is None and not fits[i]:
                results[i] = ReceiveResult(False, False, b"", detection=detections[i])
        if not active:
            return [res for res in results]  # type: ignore[misc]
        rows = np.asarray(active, dtype=np.int64)
        n_active = rows.size

        # --- align all frames with one gather
        gather = starts[rows, None] + np.arange(frame_len)[None, :]
        frames = samples[rows[:, None], gather]

        # --- coarse CFO from STF periodicity, vectorised over packets (the
        # frames are aligned, so the canonical estimator runs from offset 0)
        cfo_hz = np.zeros(n_active, dtype=np.float64)
        if self.correct_cfo:
            try:
                cfo_hz = np.asarray(estimate_coarse_cfo(frames, 0, params), dtype=np.float64)
            except ValueError:
                cfo_hz = np.zeros(n_active, dtype=np.float64)
            n = np.arange(frame_len)
            ramp = np.exp(-2j * np.pi * cfo_hz[:, None] * n[None, :] * params.sample_period_s)
            frames = np.multiply(frames, ramp, out=ramp)

        # --- channel + noise estimation from the two LTF repetitions
        ltf_start = stf_len + 2 * params.cp_samples
        reps = frames[:, ltf_start : ltf_start + 2 * params.n_fft].reshape(
            n_active, 2, params.n_fft
        )
        ltf_syms = np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft)
        response = estimate_channel_ltf(ltf_syms, params).response
        noise_var = np.asarray(estimate_noise_from_ltf(ltf_syms, params), dtype=np.float64)

        # --- data symbols: one batched FFT + vectorised equalisation
        data_start = stf_len + ltf_len
        data = frames[:, data_start : data_start + n_data_samples]
        freq_symbols = extract_symbols(data, config.n_data_symbols, params)
        eq_symbols, noise_per_sc = equalize_symbols_batch(
            freq_symbols, response, noise_var, params
        )

        # --- soft demap + deinterleave, batched over every symbol
        modulation = get_modulation(config.rate.modulation)
        n_cbps = config.coded_bits_per_symbol
        n_sc = params.n_data_subcarriers
        flat_symbols = eq_symbols.reshape(-1)
        flat_noise = np.broadcast_to(
            noise_per_sc[:, None, :], eq_symbols.shape
        ).reshape(-1)
        soft = np.empty(flat_symbols.size * config.rate.bits_per_symbol, dtype=np.float64)
        bps = config.rate.bits_per_symbol
        for lo in range(0, flat_symbols.size, _DEMAP_CHUNK_SYMBOLS):
            hi = min(lo + _DEMAP_CHUNK_SYMBOLS, flat_symbols.size)
            soft[lo * bps : hi * bps] = modulation.demodulate_soft(
                flat_symbols[lo:hi], flat_noise[lo:hi]
            )
        soft = soft.reshape(n_active, config.n_data_symbols, n_cbps)
        perm = interleaver_permutation(n_cbps, bps)
        llrs = soft[..., perm].reshape(n_active, config.n_data_symbols * n_cbps)

        # --- depuncture + block-parallel Viterbi + descramble
        original_len = _CODE.coded_length(config.n_info_bits + config.n_pad_bits)
        soft_full = depuncture(llrs, config.rate.code_rate, original_len)
        decoded = _CODE.decode_batch(soft_full, terminated=True)
        descrambled = bitutils.descramble(decoded, config.scrambler_seed)
        info_bits = descrambled[:, : config.n_info_bits]

        # --- per-packet wrap-up (CRC, SNR, result objects)
        for k, i in enumerate(active):
            frame_bytes = bitutils.bits_to_bytes(info_bits[k])
            payload, crc_ok = bitutils.check_crc(frame_bytes)
            # Copy the per-packet slices so a caller holding one result does
            # not pin the whole ensemble's batch arrays in memory.
            channel = ChannelEstimate(
                response=response[k].copy(), noise_var=float(noise_var[k])
            )
            results[i] = ReceiveResult(
                detected=True,
                crc_ok=crc_ok,
                payload=payload if crc_ok else frame_bytes[:-4],
                detection=detections[i],
                channel=channel,
                cfo_hz=float(cfo_hz[k]),
                snr_db=self._estimate_snr_db(channel),
                equalized_symbols=eq_symbols[k].copy(),
            )
        return [res for res in results]  # type: ignore[misc]

    # ------------------------------------------------------------------
    def _estimate_snr_db(self, channel: ChannelEstimate) -> float:
        occupied = self.params.occupied_bins()
        signal = float(np.mean(np.abs(channel.on_bins(occupied)) ** 2))
        noise = max(channel.noise_var, 1e-15)
        return 10.0 * np.log10(max(signal / noise, 1e-15))
