"""Joint receiver: decodes a joint frame from multiple synchronized senders (§5, §6).

The receive path mirrors a standard OFDM receiver but differs in the three
places the paper calls out:

* it estimates one channel per sender — the lead sender's from the
  preamble LTF and each co-sender's from its channel-estimation slot
  (:mod:`repro.core.channel_est.joint_estimator`);
* it tracks one residual phase per sender using the time-shared pilots
  (:mod:`repro.core.channel_est.phase_tracking`) and applies the rotations
  to the individual channels before combining them;
* it decodes the space-time-coded data symbols with the Smart Combiner
  (:mod:`repro.core.combining`), obtaining the ``sum_i |H_i|^2`` combining
  gain per subcarrier.

It also produces the misalignment report (§4.5) that the receiver piggybacks
on its ACK so co-senders can track delay changes without new probes.

Every stage runs on a stack of frames: :meth:`JointReceiver.measure_header_batch`
and :meth:`JointReceiver.receive_many` share one start, acquisition and CFO
prologue and one header stage, and the per-frame
:meth:`JointReceiver.measure_header` and :meth:`JointReceiver.receive` are
stacks of one.  ``receive_many`` is the degenerate case of the streaming
:class:`JointFrameDecoder`, which splits the receive path at the LLRs: a
front end that runs on each added stack at once, keeps no received
samples and returns the stack's equalized symbols to the caller, and a
Viterbi that decodes the queued LLR rows one chunk at a time as they
fill it, so a lockstep caller never holds more than a chunk and a wave
of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.channel_est.joint_estimator import JointChannelEstimate
from repro.core.channel_est.phase_tracking import track_phases_batch
from repro.core.combining.stbc import SmartCombiner
from repro.core.config import SourceSyncConfig
from repro.core.frame import JointFrameLayout
from repro.core.sync.detection_delay import phase_slope_windowed_batch
from repro.core.sync.tracking import MisalignmentReport
from repro.phy import bits as bitutils
from repro.phy.coding.convolutional import get_code
from repro.phy.coding.interleaver import interleaver_permutation
from repro.phy.coding.puncturing import depuncture
from repro.phy.detection import detect_packet_autocorrelation_batch, estimate_coarse_cfo_rows
from repro.phy.equalizer import ChannelEstimate, estimate_channel_ltf, estimate_noise_from_ltf
from repro.phy.modulation import get_modulation
from repro.phy.transmitter import FrameConfig

__all__ = ["JointFrameDecoder", "JointReceiveResult", "JointReceiver"]

_CODE = get_code()

#: Cap on (symbol, constellation point) distances the batched soft demapper
#: holds at once; chunking changes nothing (the demapper is elementwise).
_DEMAP_CHUNK_POINTS = 1 << 20


@dataclass
class JointReceiveResult:
    """Outcome of attempting to decode one joint frame."""

    detected: bool
    crc_ok: bool
    payload: bytes
    start_index: int = -1
    channels: JointChannelEstimate | None = None
    misalignment: MisalignmentReport | None = None
    snr_db: float = float("nan")
    per_subcarrier_snr_db: np.ndarray | None = field(default=None, repr=False)
    cfo_hz: float = 0.0

    @property
    def success(self) -> bool:
        """True when the frame was detected and passed its CRC."""
        return self.detected and self.crc_ok


@dataclass
class _FrontRecord:
    """What :meth:`JointReceiver._receive_front` keeps of a job stack: no samples.

    ``detected``, ``starts`` and ``cfo`` have one entry per job; ``fits``
    lists the jobs whose whole frame fits their row.  For those jobs,
    ``estimates`` and ``reports`` follow ``fits`` order, and ``frame_bytes``
    maps a job to its decoded frame bytes once :class:`JointFrameDecoder`
    has decoded it.  The equalized data symbols are not kept: the front end
    hands them to the caller of :meth:`JointFrameDecoder.add`.
    """

    detected: np.ndarray
    starts: np.ndarray
    cfo: np.ndarray
    fits: np.ndarray
    estimates: list[JointChannelEstimate] = field(default_factory=list)
    reports: list[MisalignmentReport] = field(default_factory=list)
    frame_bytes: dict[int, bytes] = field(default_factory=dict)


#: A front-end LLR block: ``(members, llrs, frame_config)``, whose ``llrs``
#: rows are the depunctured LLRs of jobs ``members`` of one record.
_LlrBlock = tuple[np.ndarray, np.ndarray, FrameConfig]
#: An LLR block queued for the Viterbi with its record.
_QueuedBlock = tuple[_FrontRecord, np.ndarray, np.ndarray, FrameConfig]


def _frame_samples(
    rows: np.ndarray,
    starts: np.ndarray,
    cfo: np.ndarray,
    members: np.ndarray,
    offsets: np.ndarray,
    sample_period: float | None,
) -> np.ndarray:
    """Samples at frame ``offsets`` of ``rows[members]``, CFO-corrected.

    ``starts`` and ``cfo`` are indexed like ``rows``.  Each sample is
    multiplied by the same per-frame index ramp entry,
    ``exp(-2j*pi*cfo*offset*sample_period)``, that correcting the whole
    frame would apply, so gathering only the header span or the data
    windows gives bit-identical values.  ``sample_period=None`` skips the
    correction.  Returns ``(members.size, *offsets.shape)``.
    """
    lead = (-1,) + (1,) * offsets.ndim
    samples = rows[members.reshape(lead), starts[members].reshape(lead) + offsets]
    if sample_period is None:
        return samples
    # A named ramp keeps numpy from reusing it as the output of a swapped
    # (ramp * samples) product, which rounds complex products differently;
    # writing the product back into it keeps the order and saves a buffer.
    ramp = np.exp(-2j * np.pi * cfo[members].reshape(lead) * offsets * sample_period)
    return np.multiply(samples, ramp, out=ramp)


class JointReceiver:
    """Decodes joint frames built by :class:`repro.core.sender.LeadSender` and co-senders."""

    def __init__(self, config: SourceSyncConfig = SourceSyncConfig()):
        self.config = config
        self.combiner = SmartCombiner(config.combiner_scheme)

    # ------------------------------------------------------------------
    # Per-frame entry points: stacks of one
    # ------------------------------------------------------------------
    def measure_header(
        self,
        samples: np.ndarray,
        layout: JointFrameLayout,
        start_index: int | None = None,
        correct_cfo: bool = True,
    ) -> tuple[JointChannelEstimate | None, MisalignmentReport | None, int]:
        """Estimate per-sender channels and misalignment from the frame header.

        This is the processing a receiver performs on every joint frame to
        produce the misalignment feedback of §4.5; it needs only the
        synchronization header and the co-sender training slots, not the
        data section, and is therefore also the building block of the
        high-accuracy repeated-header estimator of §8.1.1.

        Returns ``(channels, misalignment, start_index)``; the first two are
        ``None`` when the frame is not detected.  A stack of one through
        :meth:`measure_header_batch`.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        return self.measure_header_batch(
            samples[None], [samples.size], layout, [start_index], correct_cfo
        )[0]

    def receive(
        self,
        samples: np.ndarray,
        layout: JointFrameLayout,
        frame_config: FrameConfig,
        start_index: int | None = None,
        correct_cfo: bool = True,
    ) -> JointReceiveResult:
        """Decode one joint frame: a stack of one through :meth:`receive_many`.

        Parameters
        ----------
        samples:
            Received baseband samples containing the joint frame.
        layout:
            The joint frame layout announced in the synchronization header.
        frame_config:
            Rate / payload-length configuration shared by all senders.
        start_index:
            Optional externally supplied frame start (genie timing); when
            omitted the receiver acquires timing itself.
        correct_cfo:
            Whether to apply the standard receiver-side CFO correction
            referenced to the lead sender's preamble.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        return self.receive_many(
            [(samples, samples.size, layout, frame_config, start_index)], correct_cfo
        )[0]

    # ------------------------------------------------------------------
    # Batched stages
    # ------------------------------------------------------------------
    def _acquire_batch(
        self, rows: np.ndarray, lengths: np.ndarray, layout: JointFrameLayout
    ) -> tuple[np.ndarray, np.ndarray]:
        """Detect each zero-padded row's joint frame and estimate its start.

        Coarse detection uses the standard STF autocorrelator; the coarse
        index is then corrected with the channel-phase-slope estimate of the
        detection delay (§4.2a) measured on the lead sender's LTF — the same
        estimator co-senders use — rather than a matched filter.  Returns
        ``(detected, starts)`` arrays; ``starts`` is -1 where nothing usable
        was detected.
        """
        params = layout.params
        detections = detect_packet_autocorrelation_batch(rows, params)
        n_rows = rows.shape[0]
        detected = np.array([d.detected for d in detections])
        # Anchor on the detection *instant* (which lags the true start by
        # the metric run plus the correlation lag) rather than the coarse
        # start estimate: backing the double guard off from the late instant
        # centres the LTF windows inside the periodic training field with
        # maximal margin to the phase-slope ambiguity limit (+-n_fft/4
        # samples of window offset).
        coarse = np.array([d.detect_index for d in detections], dtype=np.int64)
        starts = np.full(n_rows, -1, dtype=np.int64)
        backoff = 2 * params.cp_samples
        ltf_starts = coarse + layout.stf_samples + 2 * params.cp_samples - backoff
        fits = detected & (ltf_starts >= 0) & (ltf_starts + 2 * params.n_fft <= lengths)
        idx = np.nonzero(fits)[0]
        if idx.size:
            gather = ltf_starts[idx, None] + np.arange(2 * params.n_fft)[None, :]
            reps = rows[idx[:, None], gather].reshape(idx.size, 2, params.n_fft)
            ltf_syms = np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft)
            responses = estimate_channel_ltf(ltf_syms, params).response
            slopes, _ = phase_slope_windowed_batch(responses, params)
            offsets = slopes * params.n_fft / (2.0 * np.pi) + backoff
            starts[idx] = np.maximum(np.round(coarse[idx] - offsets).astype(np.int64), 0)
        return fits, starts

    def _locate_frames(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        layout: JointFrameLayout,
        start_hints: list[int | None],
        spans: np.ndarray | int,
        correct_cfo: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Start, fit and coarse CFO of every row: the batched methods' prologue.

        A row with a start hint uses it (genie timing); the others are
        acquired together by :meth:`_acquire_batch`.  Returns
        ``(detected, starts, fits, cfo)``: ``detected`` is False only where
        acquisition failed, ``fits`` also needs ``spans`` samples after the
        start, and ``cfo`` is 0.0 outside ``fits`` or without
        ``correct_cfo``.
        """
        n = rows.shape[0]
        if len(start_hints) != n or lengths.shape != (n,):
            raise ValueError("need one start hint and one length per row")
        starts = np.zeros(n, dtype=np.int64)
        detected = np.ones(n, dtype=bool)
        need_acquire = [i for i, hint in enumerate(start_hints) if hint is None]
        for i, hint in enumerate(start_hints):
            if hint is not None:
                starts[i] = int(hint)
        if need_acquire:
            sub = np.asarray(need_acquire)
            found, acquired = self._acquire_batch(rows[sub], lengths[sub], layout)
            detected[sub] = found
            starts[sub] = np.maximum(acquired, 0)
        fits = detected & (starts + spans <= lengths)
        cfo = np.zeros(n)
        if correct_cfo:
            cfo = estimate_coarse_cfo_rows(rows, starts, lengths, fits, layout.params)
        return detected, starts, fits, cfo

    def _header_channels_batch(
        self, frames: np.ndarray, layout: JointFrameLayout
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Lead + co-sender channel estimation for aligned header frames.

        ``frames`` is ``(n, >= layout.data_offset)`` of CFO-corrected,
        frame-aligned samples.  Returns ``(lead_responses, noise_vars,
        slots)`` where ``slots[k] = (active_mask, responses)`` for co-sender
        ``k``, whose ``active_mask`` is the §6 energy test: the slot's mean
        power exceeds the noise variance by 3 dB.
        """
        params = layout.params
        backoff = self.config.window_backoff_samples
        n = frames.shape[0]
        ltf_start = layout.stf_samples + 2 * params.cp_samples - backoff
        reps = frames[:, ltf_start : ltf_start + 2 * params.n_fft].reshape(n, 2, params.n_fft)
        ltf_syms = np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft)
        lead_responses = estimate_channel_ltf(ltf_syms, params).response
        noise_vars = np.asarray(estimate_noise_from_ltf(ltf_syms, params), dtype=np.float64)

        threshold = 10.0 ** (3.0 / 10.0)
        slots: list[tuple[np.ndarray, np.ndarray]] = []
        slot_window_start = 2 * params.cp_samples - backoff
        for k in range(layout.n_cosenders):
            slot_start = layout.cosender_training_offset(k)
            slot = frames[:, slot_start : slot_start + layout.ltf_samples]
            energy = np.mean(np.abs(slot) ** 2, axis=1)
            active = energy > noise_vars * threshold
            slot_reps = slot[
                :, slot_window_start : slot_window_start + 2 * params.n_fft
            ].reshape(n, 2, params.n_fft)
            slot_syms = np.fft.fft(slot_reps, axis=-1) / np.sqrt(params.n_fft)
            responses = estimate_channel_ltf(slot_syms, params).response
            slots.append((active, responses))
        return lead_responses, noise_vars, slots

    def _joint_estimates_batch(
        self,
        lead_responses: np.ndarray,
        noise_vars: np.ndarray,
        slots: list[tuple[np.ndarray, np.ndarray]],
        layout: JointFrameLayout,
    ) -> tuple[list[JointChannelEstimate], list[MisalignmentReport]]:
        """Assemble per-row estimates and misalignment reports from batch arrays.

        All phase-slope fits (lead and every active co-sender of every row)
        run as one stacked call — this is the §4.5 measurement that
        dominates the Fig. 12 loop.
        """
        params = layout.params
        n = lead_responses.shape[0]
        stacked = [lead_responses]
        stacked.extend(responses for _, responses in slots)
        all_responses = np.concatenate(stacked, axis=0)
        slopes, _ = phase_slope_windowed_batch(all_responses, params)
        delays = slopes * params.n_fft / (2.0 * np.pi)
        lead_offsets = delays[:n]

        estimates: list[JointChannelEstimate] = []
        reports: list[MisalignmentReport] = []
        for row in range(n):
            cosenders: list[ChannelEstimate | None] = []
            co_offsets: list[float] = []
            for k, (active, responses) in enumerate(slots):
                if not active[row]:
                    cosenders.append(None)
                    continue
                channel = ChannelEstimate(
                    response=responses[row].copy(), noise_var=float(noise_vars[row])
                )
                cosenders.append(channel)
                co_offsets.append(float(delays[(k + 1) * n + row]))
            lead_channel = ChannelEstimate(
                response=lead_responses[row].copy(), noise_var=float(noise_vars[row])
            )
            estimates.append(
                JointChannelEstimate(
                    lead=lead_channel,
                    cosenders=cosenders,
                    noise_var=float(noise_vars[row]),
                    params=params,
                )
            )
            lead_offset = float(lead_offsets[row])
            reports.append(
                MisalignmentReport(
                    lead_offset_samples=lead_offset,
                    cosender_offsets_samples=tuple(co_offsets),
                    misalignments_samples=tuple(lead_offset - off for off in co_offsets),
                )
            )
        return estimates, reports

    def _data_llrs_batch(
        self,
        rows: np.ndarray,
        members: np.ndarray,
        starts: np.ndarray,
        cfo: np.ndarray,
        sample_period: float | None,
        lead_responses: np.ndarray,
        noise_vars: np.ndarray,
        slots: list[tuple[np.ndarray, np.ndarray]],
        layout: JointFrameLayout,
        frame_config: FrameConfig,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data sections of a job stack sharing ``(layout, frame_config)``.

        The stack is ``rows[members]``, whose frames start at ``starts`` with
        coarse offsets ``cfo`` (both indexed like ``rows``; corrected unless
        ``sample_period`` is None, see :func:`_frame_samples`); the channel
        arguments are the header stage's arrays for the stack.  Gathers
        only the data windows, then runs the data-window FFT, the
        per-sender pilot tracker, the per-sender channel rotation, the
        combiner, the soft demapper, the de-interleaver and depuncturing
        once for the stack.  Returns
        ``(decoded_symbols, llrs)``: the ``(n, n_data_symbols, n_data)``
        combiner output and the ``(n, coded_length)`` depunctured LLRs.
        """
        params = layout.params
        data_params = layout.data_params
        backoff = self.config.window_backoff_samples
        n = members.size
        n_senders = 1 + layout.n_cosenders
        # Intended senders in codeword order; an inactive co-sender slot has
        # an all-zero channel and is masked out of tracking and combining.
        responses = np.zeros((n, n_senders, params.n_fft), dtype=np.complex128)
        active = np.ones((n, n_senders), dtype=bool)
        responses[:, 0] = lead_responses
        for k, (slot_active, slot_responses) in enumerate(slots):
            active[:, k + 1] = slot_active
            responses[slot_active, k + 1] = slot_responses[slot_active]

        n_symbols_tx = self.combiner.pad_symbols(
            np.zeros((frame_config.n_data_symbols, params.n_data_subcarriers))
        ).shape[0]
        windows = (
            layout.data_offset
            + np.arange(n_symbols_tx)[:, None] * layout.data_symbol_samples
            + data_params.cp_samples
            - backoff
            + np.arange(params.n_fft)[None, :]
        )
        samples = _frame_samples(rows, starts, cfo, members, windows, sample_period)
        freq = np.fft.fft(samples, axis=-1) / np.sqrt(params.n_fft)
        gate = active if self.config.pilot_sharing else np.ones_like(active)
        phases = track_phases_batch(freq, responses, gate, params)
        data_bins = params.data_bins()
        rotation = np.exp(1j * phases).transpose(0, 2, 1)
        per_symbol_channels = responses[:, :, None, data_bins] * rotation[..., None]
        modulation = get_modulation(frame_config.rate.modulation)
        decoded_symbols, gain = self.combiner.decode_batch(
            freq[..., data_bins], per_symbol_channels, active, constellation=modulation.points
        )

        # Soft demap (in bounded chunks), de-interleave and depuncture.
        n_sym = frame_config.n_data_symbols
        n_cbps = frame_config.coded_bits_per_symbol
        decoded_symbols = decoded_symbols[:, :n_sym]
        noise_eff = noise_vars[:, None, None] / np.maximum(gain[:, :n_sym], 1e-12)
        flat_symbols = decoded_symbols.reshape(-1)
        flat_noise = noise_eff.reshape(-1)
        soft = np.empty(flat_symbols.size * modulation.bits_per_symbol, dtype=np.float64)
        chunk = max(_DEMAP_CHUNK_POINTS // modulation.points.size, 1)
        for lo in range(0, flat_symbols.size, chunk):
            hi = min(lo + chunk, flat_symbols.size)
            soft[lo * modulation.bits_per_symbol : hi * modulation.bits_per_symbol] = (
                modulation.demodulate_soft(flat_symbols[lo:hi], flat_noise[lo:hi])
            )
        perm = interleaver_permutation(n_cbps, frame_config.rate.bits_per_symbol)
        llrs = soft.reshape(n, n_sym, n_cbps)[..., perm].reshape(n, n_sym * n_cbps)
        original_len = _CODE.coded_length(frame_config.n_info_bits + frame_config.n_pad_bits)
        return decoded_symbols, depuncture(llrs, frame_config.rate.code_rate, original_len)

    def measure_header_batch(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        layout: JointFrameLayout,
        start_indices: list[int | None],
        correct_cfo: bool = True,
    ) -> list[tuple[JointChannelEstimate | None, MisalignmentReport | None, int]]:
        """Header measurement (:meth:`measure_header`) of a zero-padded row stack.

        ``rows`` is ``(n, max_len)`` with per-row true lengths in
        ``lengths``; ``start_indices[i]`` is a genie frame start or ``None``
        to acquire.  Returns ``(channels, misalignment, start)`` per row,
        computed with every stage batched; ``channels`` and
        ``misalignment`` are ``None`` where no header was detected or it
        does not fit in the row.  Raises ``ValueError`` unless
        ``start_indices`` and ``lengths`` have one entry per row.
        """
        rows = np.asarray(rows, dtype=np.complex128)
        lengths = np.asarray(lengths, dtype=np.int64)
        detected, starts, fits, cfo = self._locate_frames(
            rows, lengths, layout, start_indices, layout.data_offset, correct_cfo
        )
        results: list[tuple[JointChannelEstimate | None, MisalignmentReport | None, int]] = [
            (None, None, int(start) if found else -1) for found, start in zip(detected, starts)
        ]
        idx = np.nonzero(fits)[0]
        if idx.size == 0:
            return results
        sample_period = layout.params.sample_period_s if correct_cfo else None
        frames = _frame_samples(
            rows, starts, cfo, idx, np.arange(layout.data_offset), sample_period
        )
        estimates, reports = self._joint_estimates_batch(
            *self._header_channels_batch(frames, layout), layout
        )
        for pos, i in enumerate(idx):
            results[i] = (estimates[pos], reports[pos], int(starts[i]))
        return results

    def receive_many(
        self,
        jobs: list[tuple[np.ndarray, int, JointFrameLayout, FrameConfig, int | None]],
        correct_cfo: bool = True,
    ) -> list[JointReceiveResult]:
        """Decode an ensemble of joint frames with batched receive stages.

        Each job is ``(samples, length, layout, frame_config, start_index)``.
        Layouts must share the header geometry (same numerology and
        co-sender count); the data sections may differ per job (e.g. a
        cyclic-prefix sweep).  This is one :meth:`JointFrameDecoder.add`
        of the whole stack, then :meth:`JointFrameDecoder.finish`: the front
        end runs timing acquisition, CFO, channel estimation and
        misalignment batched across jobs, as :meth:`measure_header_batch`
        does, then the data stage once per stack of jobs sharing
        ``(layout, frame_config)``, up to depunctured LLRs; the Viterbi,
        descrambling and bit packing run per coded length in chunks of
        :meth:`~repro.phy.coding.convolutional.ConvolutionalCode.chunk_rows`
        rows, and the CRC check and result assembly per job.  A lockstep
        caller adds each batch of frames to one decoder as it arrives;
        :meth:`receive` is a stack of one.  A caller that needs the
        equalized data symbols reads them from
        :meth:`JointFrameDecoder.add`.

        Grouping invariance: every stage computes a job's floats with
        per-row operations only (named complex-product operands, reductions
        along C-contiguous per-row axes, a row-independent Viterbi), so a
        job decodes to the same bytes whichever jobs share its stack.
        """
        decoder = JointFrameDecoder(self)
        decoder.add(jobs, correct_cfo)
        return decoder.finish()

    def _receive_front(
        self,
        jobs: list[tuple[np.ndarray, int, JointFrameLayout, FrameConfig, int | None]],
        correct_cfo: bool = True,
    ) -> tuple[_FrontRecord, list[_LlrBlock], list[np.ndarray | None]]:
        """Everything of :meth:`receive_many` up to the LLRs, for a non-empty job stack.

        Locates each frame, estimates its channels and misalignment, and
        runs the data stage (:meth:`_data_llrs_batch`) once per stack of
        jobs sharing ``(layout, frame_config)``.  Returns the record, one
        LLR block per such stack and each job's equalized data symbols
        (``None`` where the frame was not equalized); none of them holds
        received samples, so the caller may drop them before the Viterbi.
        """
        layout0 = jobs[0][2]
        params = layout0.params
        n = len(jobs)
        max_len = max(job[0].size for job in jobs)
        rows = np.zeros((n, max_len), dtype=np.complex128)
        lengths = np.zeros(n, dtype=np.int64)
        for i, (samples, length, layout, _, _) in enumerate(jobs):
            if (
                layout.params is not params and layout.params != params
            ) or layout.n_cosenders != layout0.n_cosenders:
                raise ValueError("receive_many requires a common header geometry")
            rows[i, : samples.size] = samples
            lengths[i] = length

        total = np.array([job[2].total_samples for job in jobs], dtype=np.int64)
        detected, starts, fits, cfo = self._locate_frames(
            rows, lengths, layout0, [job[4] for job in jobs], total, correct_cfo
        )
        record = _FrontRecord(detected, starts, cfo, np.nonzero(fits)[0])
        blocks: list[_LlrBlock] = []
        symbols: list[np.ndarray | None] = [None] * n
        idx = record.fits
        if idx.size == 0:
            return record, blocks, symbols

        sample_period = params.sample_period_s if correct_cfo else None
        header_frames = _frame_samples(
            rows, starts, cfo, idx, np.arange(layout0.data_offset), sample_period
        )
        lead_responses, noise_vars, slots = self._header_channels_batch(header_frames, layout0)
        record.estimates, record.reports = self._joint_estimates_batch(
            lead_responses, noise_vars, slots, layout0
        )

        # Jobs sharing (layout, frame_config) share every data-section
        # geometry: each such group runs the data stage as one stack up to
        # the LLR block.
        members_of: dict[tuple[JointFrameLayout, FrameConfig], list[int]] = {}
        for pos, i in enumerate(idx):
            members_of.setdefault((jobs[i][2], jobs[i][3]), []).append(pos)
        for (layout, frame_config), positions in members_of.items():
            stack = np.asarray(positions)
            members = idx[stack]
            decoded_symbols, llrs = self._data_llrs_batch(
                rows, members, starts, cfo, sample_period,
                lead_responses[stack], noise_vars[stack],
                [(active[stack], responses[stack]) for active, responses in slots],
                layout, frame_config,
            )
            for i, frame_symbols in zip(members, decoded_symbols):
                symbols[i] = frame_symbols
            blocks.append((members, llrs, frame_config))
        return record, blocks, symbols


class JointFrameDecoder:
    """Streaming form of :meth:`JointReceiver.receive_many`: add job stacks, then finish.

    :meth:`add` runs ``receiver``'s front end on a job stack at once and
    queues its LLR rows by coded length.  As soon as one Viterbi chunk of
    rows (:meth:`~repro.phy.coding.convolutional.ConvolutionalCode.chunk_rows`)
    is pending for a coded length, exactly that many rows are decoded,
    descrambled and packed into their jobs' frame bytes, and dropped; a
    chunk may take part of a stack's block.  :meth:`finish` decodes what
    is left, one call per coded length, and returns the results of every
    added job in order.  The pending rows of a coded length never exceed
    one chunk plus one added stack, and a coded length with ``N`` rows
    costs ``ceil(N / chunk)`` Viterbi calls, as one ``decode_batch`` over
    all of them would.  The Viterbi, descrambling and packing are
    row-independent, so the results do not depend on how the jobs are
    split into stacks.
    """

    def __init__(self, receiver: JointReceiver) -> None:
        self.receiver = receiver
        self._records: list[_FrontRecord] = []
        # Per coded length, the queued (record, members, llrs, frame_config)
        # blocks whose rows are still to be decoded, oldest first.
        self._pending: dict[int, list[_QueuedBlock]] = {}

    def add(
        self,
        jobs: list[tuple[np.ndarray, int, JointFrameLayout, FrameConfig, int | None]],
        correct_cfo: bool = True,
    ) -> list[np.ndarray | None]:
        """Run the front end on ``jobs``, queue their LLR rows and return their symbols.

        ``jobs`` and ``correct_cfo`` are as in
        :meth:`JointReceiver.receive_many`.  Decodes every full chunk of
        rows that is then pending.  Returns one array per job: its
        combiner's equalized data symbols, ``(n_data_symbols,
        n_data_subcarriers)``, or ``None`` where the frame was not
        equalized.  The decoder keeps neither received samples nor
        symbols, so the caller may drop ``jobs`` and the symbols on return.
        """
        if not jobs:
            return []
        record, blocks, symbols = self.receiver._receive_front(jobs, correct_cfo)
        self._records.append(record)
        for members, llrs, frame_config in blocks:
            self._pending.setdefault(llrs.shape[1], []).append(
                (record, members, llrs, frame_config)
            )
        for coded_length, queue in self._pending.items():
            chunk = _CODE.chunk_rows(coded_length)
            while sum(entry[1].size for entry in queue) >= chunk:
                self._decode(queue, chunk)
        return symbols

    def finish(self) -> list[JointReceiveResult]:
        """Decode the pending rows and return every added job's result, in order.

        The CRC check, per-subcarrier SNR and result assembly run per job.
        """
        for queue in self._pending.values():
            self._decode(queue, sum(entry[1].size for entry in queue))
        results: list[JointReceiveResult] = []
        for record in self._records:
            stack = [
                JointReceiveResult(False, False, b"", start_index=int(start) if found else -1)
                for found, start in zip(record.detected, record.starts)
            ]
            for pos, i in enumerate(record.fits):
                joint_estimate = record.estimates[pos]
                frame_bytes = record.frame_bytes[i]
                payload, crc_ok = bitutils.check_crc(frame_bytes)
                per_sc_snr = joint_estimate.per_subcarrier_snr_db()
                snr_db = float(
                    10.0 * np.log10(max(np.mean(10.0 ** (per_sc_snr / 10.0)), 1e-15))
                )
                stack[i] = JointReceiveResult(
                    detected=True,
                    crc_ok=crc_ok,
                    payload=payload if crc_ok else frame_bytes[:-4],
                    start_index=int(record.starts[i]),
                    channels=joint_estimate,
                    misalignment=record.reports[pos],
                    snr_db=snr_db,
                    per_subcarrier_snr_db=per_sc_snr,
                    cfo_hz=float(record.cfo[i]),
                )
            results.extend(stack)
        return results

    @staticmethod
    def _decode(queue: list[_QueuedBlock], n_rows: int) -> None:
        """Decode the first ``n_rows`` rows of ``queue`` in one Viterbi call and drop them.

        Each taken block (or head of a block) is then descrambled and
        packed as one stack into its record's ``frame_bytes``.
        """
        if n_rows == 0:
            return
        taken = []
        rows = []
        while n_rows:
            record, members, llrs, frame_config = queue[0]
            take = min(n_rows, members.size)
            taken.append((record, members[:take], frame_config))
            rows.append(llrs[:take])
            if take == members.size:
                del queue[0]
            else:
                queue[0] = (record, members[take:], llrs[take:], frame_config)
            n_rows -= take
        llrs = np.concatenate(rows)
        # The queued rows of fully taken blocks die here, before the
        # Viterbi allocates its decisions.
        del rows
        decoded = _CODE.decode_batch(llrs)
        lo = 0
        for record, members, frame_config in taken:
            descrambled = bitutils.descramble(
                decoded[lo : lo + members.size], frame_config.scrambler_seed
            )
            info = np.packbits(
                descrambled[:, : frame_config.n_info_bits], axis=-1, bitorder="little"
            )
            for i, frame_bytes in zip(members, info):
                record.frame_bytes[i] = frame_bytes.tobytes()
            lo += members.size
