"""Job-stacked receive stage, batched headers and data-section reuse.

``JointReceiver.receive_many`` runs its data stage once per stack of jobs
that share ``(layout, frame_config)``.  The first reference below is the
per-job data loop that stacking replaced (scalar pilot tracker, per-job
rotation, combiner, demap, de-interleave and depuncture); every result
field must agree exactly, floats included, however the jobs group.

The second, :func:`reference_measure_header`, is the per-frame header
stage (acquisition, CFO correction, lead and co-sender channels,
misalignment) built from the public scalar estimators.  The batched
header stage that ``measure_header_batch`` and ``receive_many`` share must
reproduce its decisions exactly and its floats to ``rtol=1e-9``.

``run_joint_frames_batch`` runs the receive front end once per wave and
the Viterbi one chunk of LLR rows at a time as the waves fill it; the
streaming tests hold it to one ``receive_many`` over the same jobs, byte
for byte, at any chunk size, and bound what it keeps alive.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.analysis.metrics import evm_to_snr_db
from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.core import ensemble as ens
from repro.core import sender as sender_module
from repro.core.channel_est.joint_estimator import (
    JointChannelEstimate,
    estimate_sender_channel,
    sender_active,
)
from repro.core.channel_est.phase_tracking import (
    PerSenderPhaseTracker,
    pilot_owner,
    track_phases_batch,
)
from repro.core.combining.alamouti import alamouti_decode
from repro.core.combining.stbc import SmartCombiner
from repro.core.frame import JointFrameLayout, make_joint_frame_config
from repro.core.receiver import JointFrameDecoder, JointReceiveResult, JointReceiver, _CODE
from repro.core.sender import LeadSender, build_data_section
from repro.experiments import registry
from repro.phy import bits as bitutils
from repro.phy.coding import convolutional
from repro.phy.coding.interleaver import interleaver_permutation
from repro.phy.coding.puncturing import depuncture
from repro.phy.detection import detect_packet_autocorrelation, estimate_coarse_cfo
from repro.phy.equalizer import ChannelEstimate, estimate_channel_ltf, estimate_noise_from_ltf
from repro.phy.modulation import get_modulation
from repro.phy.params import DEFAULT_PARAMS
from repro.phy.transmitter import encode_payload_to_symbols
from tests.core.reference_blocks import (
    apply_cfo_correction,
    estimate_detection_delay,
    measure_misalignment,
)


def reference_receive_many(receiver, jobs, correct_cfo=True):
    """``receive_many`` with the per-job data loop the stacked stage replaced.

    Returns the results and each job's equalized data symbols (``None``
    where the frame was not equalized), as ``JointFrameDecoder.add``
    returns them.
    """
    layout0 = jobs[0][2]
    params = layout0.params
    n = len(jobs)
    rows = np.zeros((n, max(job[0].size for job in jobs)), dtype=np.complex128)
    lengths = np.zeros(n, dtype=np.int64)
    for i, (samples, length, _, _, _) in enumerate(jobs):
        rows[i, : samples.size] = samples
        lengths[i] = length
    starts = np.zeros(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    need_acquire = [i for i, job in enumerate(jobs) if job[4] is None]
    for i, job in enumerate(jobs):
        if job[4] is not None:
            starts[i] = int(job[4])
    if need_acquire:
        sub = np.asarray(need_acquire)
        fits, acquired = receiver._acquire_batch(rows[sub], lengths[sub], layout0)
        ok[sub] = fits
        starts[sub] = np.maximum(acquired, 0)
    results = [None] * n
    symbols = [None] * n
    total = np.array([job[2].total_samples for job in jobs], dtype=np.int64)
    fits_frame = ok & (starts + total <= lengths)
    for i in range(n):
        if not ok[i]:
            results[i] = JointReceiveResult(False, False, b"")
        elif not fits_frame[i]:
            results[i] = JointReceiveResult(False, False, b"", start_index=int(starts[i]))
    idx = np.nonzero(fits_frame)[0]
    if idx.size == 0:
        return results, symbols
    # Scalar CFO per row: the batched estimator must not depend on its stack.
    cfo = np.zeros(n)
    if correct_cfo:
        for i in idx:
            cfo[i] = estimate_coarse_cfo(rows[i, : lengths[i]], int(starts[i]), params)
    frames = {}
    header_frames = np.empty((idx.size, layout0.data_offset), dtype=np.complex128)
    for pos, i in enumerate(idx):
        frame = rows[i, starts[i] : starts[i] + total[i]]
        if correct_cfo:
            span = np.arange(frame.size)
            frame = frame * np.exp(-2j * np.pi * cfo[i] * span * params.sample_period_s)
        frames[i] = frame
        header_frames[pos] = frame[: layout0.data_offset]
    lead_responses, noise_vars, slots = receiver._header_channels_batch(header_frames, layout0)
    estimates, reports = receiver._joint_estimates_batch(
        lead_responses, noise_vars, slots, layout0
    )
    llr_blocks = {}
    decoded_by_job = {}
    for pos, i in enumerate(idx):
        _, _, layout, frame_config, _ = jobs[i]
        frame = frames[i]
        estimate = estimates[pos]
        noise_var = float(noise_vars[pos])
        backoff = receiver.config.window_backoff_samples
        n_intended = 1 + layout.n_cosenders
        n_symbols_tx = receiver.combiner.pad_symbols(
            np.zeros((frame_config.n_data_symbols, params.n_data_subcarriers))
        ).shape[0]
        data_bins = params.data_bins()
        tracker = PerSenderPhaseTracker(n_senders=n_intended, params=params)
        active_mask = [True] + [ch is not None for ch in estimate.cosenders]
        silent = ChannelEstimate(np.zeros(params.n_fft, np.complex128), noise_var)
        intended = [estimate.lead] + [
            ch if ch is not None else silent for ch in estimate.cosenders
        ]
        windows = (
            layout.data_offset
            + np.arange(n_symbols_tx)[:, None] * layout.data_symbol_samples
            + layout.data_params.cp_samples
            - backoff
            + np.arange(params.n_fft)[None, :]
        )
        freq_all = np.fft.fft(frame[windows], axis=-1) / np.sqrt(params.n_fft)
        phase_track = np.empty((n_symbols_tx, n_intended))
        for t in range(n_symbols_tx):
            if not receiver.config.pilot_sharing or active_mask[pilot_owner(t, n_intended)]:
                tracker.update(freq_all[t], intended, t)
            phase_track[t] = tracker.phases
        per_symbol_channels = [
            channel.on_bins(data_bins)[None, :] * np.exp(1j * phase_track[:, sender])[:, None]
            for sender, channel in enumerate(intended)
            if active_mask[sender]
        ]
        modulation = get_modulation(frame_config.rate.modulation)
        decoded, gain = reference_combiner_decode(
            receiver.combiner,
            freq_all[:, data_bins],
            per_symbol_channels,
            estimate.active_codewords(),
            modulation.points,
        )
        decoded_by_job[i] = decoded
        n_sym = frame_config.n_data_symbols
        n_cbps = frame_config.coded_bits_per_symbol
        noise_eff = np.broadcast_to(
            noise_var / np.maximum(gain[:n_sym], 1e-12), decoded[:n_sym].shape
        )
        soft = modulation.demodulate_soft(
            decoded[:n_sym].reshape(-1), noise_eff.reshape(-1)
        ).reshape(n_sym, n_cbps)
        perm = interleaver_permutation(n_cbps, frame_config.rate.bits_per_symbol)
        original_len = _CODE.coded_length(frame_config.n_info_bits + frame_config.n_pad_bits)
        soft_full = depuncture(
            soft[:, perm].reshape(-1), frame_config.rate.code_rate, original_len
        )
        llr_blocks.setdefault(soft_full.size, []).append((i, soft_full, frame_config))
    bits_by_job = {}
    for block in llr_blocks.values():
        decoded_bits = _CODE.decode_batch(np.stack([llrs for _, llrs, _ in block]))
        for (i, _, frame_config), bits in zip(block, decoded_bits):
            bits_by_job[i] = bitutils.descramble(bits, frame_config.scrambler_seed)
    for pos, i in enumerate(idx):
        frame_config = jobs[i][3]
        frame_bytes = bitutils.bits_to_bytes(bits_by_job[i][: frame_config.n_info_bits])
        payload, crc_ok = bitutils.check_crc(frame_bytes)
        per_sc_snr = estimates[pos].per_subcarrier_snr_db()
        results[i] = JointReceiveResult(
            detected=True,
            crc_ok=crc_ok,
            payload=payload if crc_ok else frame_bytes[:-4],
            start_index=int(starts[i]),
            channels=estimates[pos],
            misalignment=reports[pos],
            snr_db=float(10.0 * np.log10(max(np.mean(10.0 ** (per_sc_snr / 10.0)), 1e-15))),
            per_subcarrier_snr_db=per_sc_snr,
            cfo_hz=float(cfo[i]),
        )
        symbols[i] = decoded_by_job[i][: frame_config.n_data_symbols]
    return results, symbols


def _ltf_symbols(window, params):
    """The two LTF repetitions of ``window`` in the frequency domain."""
    return np.fft.fft(window.reshape(2, params.n_fft), axis=-1) / np.sqrt(params.n_fft)


def reference_measure_header(receiver, samples, layout, start_index=None, correct_cfo=True):
    """The per-frame header stage ``measure_header`` ran before it became a stack of one."""
    params = layout.params
    samples = np.asarray(samples, dtype=np.complex128)
    backoff = receiver.config.window_backoff_samples
    if start_index is None:
        detection = detect_packet_autocorrelation(samples, params)
        if not detection.detected:
            return None, None, -1
        coarse = detection.detect_index
        guard = 2 * params.cp_samples
        ltf_start = coarse + layout.stf_samples + 2 * params.cp_samples - guard
        window = samples[ltf_start : ltf_start + 2 * params.n_fft]
        if window.size < 2 * params.n_fft:
            return None, None, -1
        channel = estimate_channel_ltf(_ltf_symbols(window, params), params)
        offset = estimate_detection_delay(channel, params).delay_samples + guard
        start = max(int(round(coarse - offset)), 0)
    else:
        start = int(start_index)
    if start + layout.data_offset > samples.size:
        return None, None, start
    frame = samples[start : start + layout.data_offset]
    if correct_cfo:
        try:
            cfo_hz = estimate_coarse_cfo(samples, start, params)
        except ValueError:
            cfo_hz = 0.0
        frame = apply_cfo_correction(frame, cfo_hz, params.sample_period_s)
    ltf_start = layout.stf_samples + 2 * params.cp_samples - backoff
    reps = _ltf_symbols(frame[ltf_start : ltf_start + 2 * params.n_fft], params)
    lead = estimate_channel_ltf(reps, params)
    noise_var = estimate_noise_from_ltf(reps, params)
    lead.noise_var = noise_var
    cosenders = []
    for k in range(layout.n_cosenders):
        slot_start = layout.cosender_training_offset(k)
        slot = frame[slot_start : slot_start + layout.ltf_samples]
        if not sender_active(slot, noise_var):
            cosenders.append(None)
            continue
        channel = estimate_sender_channel(slot, params, window_backoff=backoff)
        channel.noise_var = noise_var
        cosenders.append(channel)
    estimate = JointChannelEstimate(
        lead=lead, cosenders=cosenders, noise_var=noise_var, params=params
    )
    report = measure_misalignment(lead, [ch for ch in cosenders if ch is not None], params)
    return estimate, report, start


def reference_combiner_decode(combiner, received, sender_channels, codewords, points=None):
    """``SmartCombiner.decode(..., return_gain=True)`` as a per-frame routine."""
    branches = combiner.combine_branch_channels(sender_channels, codewords)
    if combiner.scheme == "naive":
        combined = np.broadcast_to(branches[0], received.shape)
        safe = np.where(np.abs(combined) < 1e-12, 1e-12, combined)
        return received / safe, np.abs(combined) ** 2
    if combiner.scheme == "qostbc":
        return combiner.decode(
            received, sender_channels, codewords, constellation=points, return_gain=True
        )
    return alamouti_decode(received, branches[0], branches[1], return_gain=True)


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.detected == b.detected
        assert a.start_index == b.start_index
        assert a.crc_ok == b.crc_ok
        assert a.payload == b.payload
        assert a.cfo_hz == b.cfo_hz
        assert a.snr_db == b.snr_db or (np.isnan(a.snr_db) and np.isnan(b.snr_db))
        if b.per_subcarrier_snr_db is None:
            assert a.per_subcarrier_snr_db is None
        else:
            assert np.array_equal(a.per_subcarrier_snr_db, b.per_subcarrier_snr_db)


def _assert_same_symbols(got, want):
    """Per-job equalized symbols agree exactly, ``None`` matching ``None``."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert np.array_equal(a, b)


def _receive_with_symbols(receiver, jobs, correct_cfo=True):
    """``receive_many`` through a decoder: the results and ``add``'s symbols."""
    decoder = JointFrameDecoder(receiver)
    symbols = decoder.add(jobs, correct_cfo)
    return decoder.finish(), symbols


def _assert_matches_per_job_loop(receiver, jobs, correct_cfo=True):
    """``receive_many`` against the per-job loop, and the symbols ``add`` returns.

    Returns the ``receive_many`` results.
    """
    want, want_symbols = reference_receive_many(receiver, jobs, correct_cfo)
    results = receiver.receive_many(jobs, correct_cfo)
    _assert_same_results(results, want)
    streamed, symbols = _receive_with_symbols(receiver, jobs, correct_cfo)
    _assert_same_results(streamed, want)
    _assert_same_symbols(symbols, want_symbols)
    return results


def _sessions(seeds, config, n_cosenders=1, snr_db=16.0):
    sessions = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=snr_db,
            cosender_rx_snr_db=[snr_db] * n_cosenders,
            lead_cosender_snr_db=[22.0] * n_cosenders,
        )
        sessions.append(SourceSyncSession(topo, config, rng=rng))
    ens.measure_delays_batch(sessions)
    return sessions


def _captured_waves(monkeypatch, sessions, jobs_per_session):
    """``run_joint_frames_batch``'s results and the job stack of each wave's front stage."""
    waves = []
    original = JointReceiver._receive_front

    def spy(self, jobs, correct_cfo=True):
        waves.append(list(jobs))
        return original(self, jobs, correct_cfo)

    monkeypatch.setattr(JointReceiver, "_receive_front", spy)
    outcomes = ens.run_joint_frames_batch(sessions, jobs_per_session)
    monkeypatch.undo()
    return outcomes, waves


def _captured_jobs(monkeypatch, sessions, jobs_per_session):
    """Every receive job ``run_joint_frames_batch`` decodes, in wave order."""
    _, waves = _captured_waves(monkeypatch, sessions, jobs_per_session)
    return [job for wave in waves for job in wave]


def _cp_sweep_jobs(monkeypatch, config, n_cosenders=1, active=None, genie=True):
    sessions = _sessions([501, 502, 503], config, n_cosenders)
    payload = bitutils.random_payload(36, np.random.default_rng(4))
    per_session = [
        ens.JointFrameJob(
            payload, data_cp_samples=cp, genie_timing=genie, active_cosenders=active
        )
        for cp in (0, 8, 32, 8)
    ]
    return sessions[0].receiver, _captured_jobs(
        monkeypatch, sessions, [per_session] * len(sessions)
    )


class TestJointBatchReceiveOracle:
    def test_joint_batch_receive_mixed_cps_match_per_job_loop(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig())
        assert len({(job[2], job[3]) for job in jobs}) == 3
        results = _assert_matches_per_job_loop(receiver, jobs)
        assert any(r.crc_ok for r in results)

    def test_joint_batch_receive_inactive_cosender_slot(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(
            monkeypatch, SourceSyncConfig(), n_cosenders=2, active=(0,)
        )
        results = _assert_matches_per_job_loop(receiver, jobs)
        assert any(r.channels.cosenders[1] is None for r in results)

    def test_joint_batch_receive_without_pilot_sharing(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(
            monkeypatch, SourceSyncConfig(pilot_sharing=False), n_cosenders=2, active=(1,)
        )
        _assert_matches_per_job_loop(receiver, jobs)

    @pytest.mark.parametrize("scheme", ["naive", "qostbc", "alamouti"])
    def test_joint_batch_receive_other_combiners(self, monkeypatch, scheme):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig(combiner_scheme=scheme))
        _assert_matches_per_job_loop(receiver, jobs)

    def test_joint_batch_receive_undetected_and_non_fitting_rows(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig(), genie=False)
        samples, length, layout, frame_config, _ = jobs[0]
        noise = np.random.default_rng(8).normal(size=length) * (1 + 0j)
        jobs = jobs + [
            (noise, length, layout, frame_config, None),
            (samples[: length - 200], length - 200, layout, frame_config, 61),
            (samples, length, layout, frame_config, length),
        ]
        results = _assert_matches_per_job_loop(receiver, jobs)
        assert all(r.detected for r in results[:-3])
        assert not results[-3].detected and results[-3].start_index == -1
        assert not results[-2].detected and results[-2].start_index == 61
        assert not results[-1].detected and results[-1].start_index == length
        _assert_matches_per_job_loop(receiver, jobs, correct_cfo=False)

    def test_joint_batch_receive_large_stacks(self, monkeypatch):
        # Stacks this large make numpy reuse temporaries as ufunc outputs,
        # which must not change any float.
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig())
        jobs = jobs * 20
        _assert_matches_per_job_loop(receiver, jobs)

    def test_joint_batch_receive_long_frames_match_sequential_receive(self, monkeypatch):
        # 800 bytes at 6 Mbps make frames of more than 16384 samples (256 KiB
        # of complex128), the size from which numpy reuses large temporaries
        # as ufunc outputs.  receive is receive_many on a stack of one, so
        # this checks grouping invariance: a stack of four and stacks of one
        # must decode the same symbols bit for bit and report the same
        # misalignment and SNR, with and without CFO correction.
        sessions = _sessions([511, 512], SourceSyncConfig())
        payload = bitutils.random_payload(800, np.random.default_rng(5))
        per_session = [
            ens.JointFrameJob(payload, data_cp_samples=cp, genie_timing=genie)
            for cp, genie in ((8, True), (0, False))
        ]
        jobs = _captured_jobs(monkeypatch, sessions, [per_session] * len(sessions))
        receiver = sessions[0].receiver
        assert min(job[2].total_samples for job in jobs) > 16384
        for correct_cfo in (True, False):
            results, symbols = _receive_with_symbols(receiver, jobs, correct_cfo)
            for job, got, got_symbols in zip(jobs, results, symbols):
                samples, length, layout, frame_config, start = job
                want = receiver.receive(samples[:length], layout, frame_config, start, correct_cfo)
                _, (want_symbols,) = _receive_with_symbols(receiver, [job], correct_cfo)
                assert got.detected and want.detected
                assert got.start_index == want.start_index
                assert got.cfo_hz == want.cfo_hz
                assert got.crc_ok == want.crc_ok and got.payload == want.payload
                assert np.array_equal(got_symbols, want_symbols)
                assert got.misalignment == want.misalignment
                assert got.snr_db == want.snr_db
            if correct_cfo:
                assert any(r.crc_ok for r in results)

    def test_joint_batch_receive_single_job(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig())
        for job in jobs[:3]:
            _assert_matches_per_job_loop(receiver, [job])

    def test_joint_batch_receive_no_fitting_job(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig())
        samples, length, layout, frame_config, start = jobs[0]
        short = [(samples[:500], 500, layout, frame_config, start)]
        results = _assert_matches_per_job_loop(receiver, short)
        assert not results[0].detected


def _uneven_jobs():
    """Job lists of 3, 1 and 2 frames: waves of three, two and one lane.

    Two payload sizes and three cyclic prefixes give several data-section
    geometries and two coded lengths, some of which recur across waves.
    """
    rng = np.random.default_rng(7)
    short, long = bitutils.random_payload(36, rng), bitutils.random_payload(60, rng)
    return [
        [
            ens.JointFrameJob(short, data_cp_samples=8, genie_timing=True),
            ens.JointFrameJob(long, data_cp_samples=0),
            ens.JointFrameJob(short, data_cp_samples=32),
        ],
        [ens.JointFrameJob(long, data_cp_samples=8, genie_timing=True)],
        [
            ens.JointFrameJob(short, data_cp_samples=0),
            ens.JointFrameJob(long, data_cp_samples=8, genie_timing=True),
        ],
    ]


class TestJointBatchStreaming:
    """``run_joint_frames_batch`` runs the receive front end wave by wave."""

    def test_joint_batch_streaming_matches_one_receive_many(self, monkeypatch):
        jobs_per_session = _uneven_jobs()
        sessions = _sessions([531, 532, 533], SourceSyncConfig())
        coded_lengths = []
        original_decode = type(_CODE).decode_batch

        def counting_decode(code, llrs, *args, **kwargs):
            coded_lengths.append(llrs.shape[1])
            return original_decode(code, llrs, *args, **kwargs)

        monkeypatch.setattr(type(_CODE), "decode_batch", counting_decode)
        outcomes, waves = _captured_waves(monkeypatch, sessions, jobs_per_session)
        assert [len(wave) for wave in waves] == [3, 2, 1]
        jobs = [job for wave in waves for job in wave]
        # One Viterbi call per coded length, each covering every wave.
        assert len(coded_lengths) == len(set(coded_lengths)) == 2
        streamed = [
            outcomes[s][r].result
            for r in range(len(waves))
            for s, session_jobs in enumerate(jobs_per_session)
            if r < len(session_jobs)
        ]
        assert all(result.crc_ok for result in streamed)
        results, symbols = _receive_with_symbols(sessions[0].receiver, jobs)
        _assert_same_results(streamed, results)
        # Each outcome's EVM is its frame's symbols, as one stack decodes
        # them, against its own payload's constellation.
        frames = [
            (outcomes[s][r], session_jobs[r].payload)
            for r in range(len(waves))
            for s, session_jobs in enumerate(jobs_per_session)
            if r < len(session_jobs)
        ]
        for (outcome, payload), frame_symbols in zip(frames, symbols):
            reference = encode_payload_to_symbols(payload, outcome.frame_config)
            want = evm_to_snr_db(frame_symbols, reference)
            assert np.float64(outcome.evm_snr_db).tobytes() == np.float64(want).tobytes()

    def test_joint_batch_symbols_die_with_their_wave(self, monkeypatch):
        # Each frame's equalized symbols are folded into its EVM as its wave
        # is added: once a wave has been sent and received, neither its
        # symbol arrays nor the combiner output they view are alive.
        owners = []
        waves = []
        original_add = JointFrameDecoder.add

        def tracking_add(self, jobs, correct_cfo=True):
            symbols = original_add(self, jobs, correct_cfo)
            for frame_symbols in symbols:
                owner = frame_symbols if frame_symbols.base is None else frame_symbols.base
                owners.append(weakref.ref(owner))
            return symbols

        advance = ens._JointFrameLane.advance_lanes

        def checking_advance(cls, lanes):
            advance(lanes)
            gc.collect()
            waves.append(len(owners))
            assert all(ref() is None for ref in owners)

        monkeypatch.setattr(JointFrameDecoder, "add", tracking_add)
        monkeypatch.setattr(ens._JointFrameLane, "advance_lanes", classmethod(checking_advance))
        sessions = _sessions([531, 532, 533], SourceSyncConfig())
        outcomes = ens.run_joint_frames_batch(sessions, _uneven_jobs())
        assert waves == [3, 5, 6]
        assert all(np.isfinite(outcome.evm_snr_db) for session in outcomes for outcome in session)

    def test_joint_batch_wave_samples_die_with_their_wave(self, monkeypatch):
        # At every Viterbi flush, no finished wave's received rows are
        # alive: the decoder keeps only front-end records and LLR rows.  A
        # two-row chunk of the long payload makes flushes run while a wave
        # is being added (that wave alone may still hold its rows) and at
        # the end, when every wave has finished.
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_ELEMS", _chunk_elems(2, 60))
        rows_alive = []
        adding = []
        flushes = []
        original_combine = ens.combine_ensemble_at_receiver

        def tracking_combine(*args, **kwargs):
            rows, lengths = original_combine(*args, **kwargs)
            rows_alive.append(weakref.ref(rows))
            return rows, lengths

        original_add = JointFrameDecoder.add

        def tracking_add(self, jobs, correct_cfo=True):
            adding.append(jobs)
            try:
                return original_add(self, jobs, correct_cfo)
            finally:
                adding.pop()

        original_decode = type(_CODE).decode_batch

        def checking_decode(code, llrs, *args, **kwargs):
            gc.collect()
            finished = rows_alive[:-1] if adding else rows_alive
            assert all(ref() is None for ref in finished)
            flushes.append((len(rows_alive), bool(adding)))
            return original_decode(code, llrs, *args, **kwargs)

        monkeypatch.setattr(ens, "combine_ensemble_at_receiver", tracking_combine)
        monkeypatch.setattr(JointFrameDecoder, "add", tracking_add)
        monkeypatch.setattr(type(_CODE), "decode_batch", checking_decode)
        sessions = _sessions([531, 532, 533], SourceSyncConfig())
        outcomes = ens.run_joint_frames_batch(sessions, _uneven_jobs())
        assert all(outcome.result.crc_ok for session in outcomes for outcome in session)
        assert len(rows_alive) == 3
        assert any(mid_wave and n_waves >= 2 for n_waves, mid_wave in flushes)
        assert flushes[-1] == (3, False)


def _coded_length(payload_bytes, rate_mbps=6.0):
    """Depunctured LLRs per joint frame of ``payload_bytes`` at ``rate_mbps``."""
    frame_config = make_joint_frame_config(payload_bytes, rate_mbps, DEFAULT_PARAMS, 8)
    return _CODE.coded_length(frame_config.n_info_bits + frame_config.n_pad_bits)


def _chunk_elems(rows, payload_bytes):
    """A ``_DECODE_CHUNK_ELEMS`` whose Viterbi chunk is ``rows`` frames of ``payload_bytes``.

    Shorter frames get chunks of at least ``rows`` frames.
    """
    return rows * (_coded_length(payload_bytes) // _CODE.n_outputs) * _CODE.n_states


def _split_block_jobs():
    """Job lists of 3, 2, 3 and 1 frames whose first wave holds a block of three.

    Wave 0 sends the 60-byte payload at CP 8 from three sessions (one
    ``(layout, frame_config)`` block of three frames) and the 36-byte one
    from the fourth; wave 1 sends three 36-byte frames at two CPs and
    wave 2 two 60-byte frames at CP 32: five frames of the long coded
    length and four of the short one.  Every frame carries its own
    payload, so decoding a row into the wrong job changes its bytes.
    """
    rng = np.random.default_rng(9)

    def job(n_bytes, cp, genie=False):
        return ens.JointFrameJob(
            bitutils.random_payload(n_bytes, rng), data_cp_samples=cp, genie_timing=genie
        )

    return [
        [job(60, 8, genie=True), job(36, 0), job(60, 32)],
        [job(60, 8), job(36, 8, genie=True)],
        [job(60, 8, genie=True), job(36, 0), job(60, 32)],
        [job(36, 8)],
    ]


def _counting_decode(monkeypatch):
    """Spy on ``decode_batch``: rows of each top-level call, per coded length."""
    calls: dict[int, list[int]] = {}
    depth = []
    original = type(_CODE).decode_batch

    def counting(code, llrs, *args, **kwargs):
        if not depth:
            calls.setdefault(llrs.shape[1], []).append(llrs.shape[0])
        depth.append(None)
        try:
            return original(code, llrs, *args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(type(_CODE), "decode_batch", counting)
    return calls


class TestJointBatchChunkedViterbi:
    """The Viterbi decodes each chunk of LLR rows as soon as the waves fill it."""

    @pytest.mark.parametrize("rows", [1, 3, 2], ids=["one_row", "three_rows", "splits_block"])
    def test_joint_batch_chunked_viterbi_matches_one_receive_many(self, monkeypatch, rows):
        jobs_per_session = _split_block_jobs()
        sessions = _sessions([541, 542, 543, 544], SourceSyncConfig())
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_ELEMS", _chunk_elems(rows, 60))
        assert _CODE.chunk_rows(_coded_length(60)) == rows
        assert _CODE.chunk_rows(_coded_length(36)) >= rows
        outcomes, waves = _captured_waves(monkeypatch, sessions, jobs_per_session)
        assert [len(wave) for wave in waves] == [4, 3, 2]
        jobs = [job for wave in waves for job in wave]
        streamed = [
            outcomes[s][r].result
            for r in range(len(waves))
            for s, session_jobs in enumerate(jobs_per_session)
            if r < len(session_jobs)
        ]
        assert all(result.crc_ok for result in streamed)
        # The reference decodes every frame in one Viterbi call.
        want = sessions[0].receiver.receive_many(jobs)
        _assert_same_results(streamed, want)
        for got, reference in zip(streamed, want):
            assert got.misalignment == reference.misalignment
            assert np.array_equal(got.channels.lead.response, reference.channels.lead.response)

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_joint_batch_viterbi_calls_per_coded_length(self, monkeypatch, rows):
        # A coded length with N rows costs ceil(N / chunk) top-level
        # decode_batch calls, as one call over all of them would: each
        # call decodes a full chunk, and only the last one a remainder.
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_ELEMS", _chunk_elems(rows, 60))
        calls = _counting_decode(monkeypatch)
        sessions = _sessions([541, 542, 543, 544], SourceSyncConfig())
        outcomes = ens.run_joint_frames_batch(sessions, _split_block_jobs())
        assert all(outcome.result.crc_ok for session in outcomes for outcome in session)
        n_rows = {_coded_length(60): 5, _coded_length(36): 4}
        assert sorted(calls) == sorted(n_rows)
        for coded_length, sizes in calls.items():
            chunk = _CODE.chunk_rows(coded_length)
            assert sum(sizes) == n_rows[coded_length]
            assert len(sizes) == math.ceil(n_rows[coded_length] / chunk)
            assert all(size == chunk for size in sizes[:-1])


def _run_fig13_smoke(n_topologies):
    spec = registry.get("fig13")
    return spec.run(spec.make_config("smoke", {"n_topologies": n_topologies}))


class TestJointBatchDecodeWorkingSet:
    """fig13's decode working set is bounded by a chunk and a wave, not by the ensemble."""

    def test_joint_batch_pending_llr_rows_within_a_chunk_and_a_wave(self, monkeypatch):
        # fig13 smoke with two topologies per chain: three waves of four
        # frames, twelve LLR rows of one coded length, decoded a row at a
        # time.  Deferring the Viterbi would keep all twelve alive.
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_ELEMS", 1)
        blocks = []
        original_front = JointReceiver._receive_front

        def tracking_front(self, jobs, correct_cfo=True):
            record, llr_blocks, symbols = original_front(self, jobs, correct_cfo)
            for _, llrs, _ in llr_blocks:
                owner = llrs if llrs.base is None else llrs.base
                blocks.append((llrs.shape[1], weakref.ref(owner), owner.size // llrs.shape[1]))
            return record, llr_blocks, symbols

        original_add = JointFrameDecoder.add
        wave_sizes = []

        def checking_add(self, jobs, correct_cfo=True):
            symbols = original_add(self, jobs, correct_cfo)
            wave_sizes.append(len(jobs))
            gc.collect()
            for coded_length in {length for length, _, _ in blocks}:
                alive = sum(
                    n for length, ref, n in blocks if length == coded_length and ref() is not None
                )
                assert alive <= _CODE.chunk_rows(coded_length) + max(wave_sizes)
            return symbols

        monkeypatch.setattr(JointReceiver, "_receive_front", tracking_front)
        monkeypatch.setattr(JointFrameDecoder, "add", checking_add)
        _run_fig13_smoke(2)
        assert wave_sizes == [4, 4, 4]
        assert sum(n for _, _, n in blocks) == 12
        gc.collect()
        assert all(ref() is None for _, ref, _ in blocks)

    @staticmethod
    def _decode_transient(monkeypatch, n_topologies):
        """Largest allocation peak of a top-level decode_batch call plus its input rows."""
        peaks = []
        depth = []
        original = type(_CODE).decode_batch

        def measuring(code, llrs, *args, **kwargs):
            if depth:
                return original(code, llrs, *args, **kwargs)
            depth.append(None)
            tracemalloc.start()
            try:
                decoded = original(code, llrs, *args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] + llrs.nbytes)
            finally:
                tracemalloc.stop()
                depth.pop()
            return decoded

        with monkeypatch.context() as patch:
            patch.setattr(type(_CODE), "decode_batch", measuring)
            _run_fig13_smoke(n_topologies)
        return max(peaks)

    def test_joint_batch_decode_transient_independent_of_topologies(self, monkeypatch):
        """Doubling fig13's topologies takes no more Viterbi scratch memory."""
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_ELEMS", 1)
        narrow = self._decode_transient(monkeypatch, 1)
        wide = self._decode_transient(monkeypatch, 2)
        assert wide <= 1.25 * narrow


def _assert_same_header(got, want):
    """Header triples agree: decisions exactly, floats to ``rtol=1e-9``."""
    (channels, report, start), (want_channels, want_report, want_start) = got, want
    assert start == want_start
    assert (channels is None) == (want_channels is None)
    assert (report is None) == (want_report is None)
    if want_channels is None:
        return
    assert [ch is None for ch in channels.cosenders] == [
        ch is None for ch in want_channels.cosenders
    ]
    np.testing.assert_allclose(channels.noise_var, want_channels.noise_var, rtol=1e-9)
    pairs = zip([channels.lead, *channels.cosenders], [want_channels.lead, *want_channels.cosenders])
    for channel, want_channel in pairs:
        if want_channel is not None:
            np.testing.assert_allclose(channel.response, want_channel.response, rtol=1e-9)
            np.testing.assert_allclose(channel.noise_var, want_channel.noise_var, rtol=1e-9)
    for field in ("lead_offset_samples", "cosender_offsets_samples", "misalignments_samples"):
        np.testing.assert_allclose(
            getattr(report, field), getattr(want_report, field), rtol=1e-9
        )


def _check_header_oracle(receiver, jobs):
    """Both batched header paths against the per-frame stage, with and without CFO."""
    layout0 = jobs[0][2]
    rows = np.zeros((len(jobs), max(job[0].size for job in jobs)), dtype=np.complex128)
    for row, job in zip(rows, jobs):
        row[: job[0].size] = job[0]
    lengths = [job[1] for job in jobs]
    hints = [job[4] for job in jobs]
    for correct_cfo in (True, False):
        want = [
            reference_measure_header(receiver, samples[:length], layout, start, correct_cfo)
            for samples, length, layout, _, start in jobs
        ]
        measured = receiver.measure_header_batch(rows, lengths, layout0, hints, correct_cfo)
        for got, expected in zip(measured, want):
            _assert_same_header(got, expected)
        for result, expected in zip(receiver.receive_many(jobs, correct_cfo), want):
            if result.detected:
                _assert_same_header(
                    (result.channels, result.misalignment, result.start_index), expected
                )
            else:
                assert result.start_index == expected[2]
    return measured


class TestJointBatchHeaderOracle:
    @pytest.mark.parametrize("genie", [True, False])
    def test_joint_batch_header_matches_per_frame_stage(self, monkeypatch, genie):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig(), genie=genie)
        measured = _check_header_oracle(receiver, jobs)
        assert all(channels is not None for channels, _, _ in measured)

    def test_joint_batch_header_inactive_cosender_slot(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(
            monkeypatch, SourceSyncConfig(), n_cosenders=2, active=(0,), genie=False
        )
        measured = _check_header_oracle(receiver, jobs)
        assert any(channels.cosenders[1] is None for channels, _, _ in measured)
        assert any(channels.cosenders[0] is not None for channels, _, _ in measured)

    def test_joint_batch_header_undetected_and_non_fitting_rows(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig(), genie=False)
        samples, length, layout, frame_config, _ = jobs[0]
        noise = np.random.default_rng(8).normal(size=length) * (1 + 0j)
        jobs = jobs + [
            (noise, length, layout, frame_config, None),
            (samples[: length - 200], length - 200, layout, frame_config, None),
            (samples[:300], 300, layout, frame_config, 61),
            (samples, length, layout, frame_config, length),
        ]
        measured = _check_header_oracle(receiver, jobs)
        assert measured[-4] == (None, None, -1)
        assert measured[-3][0] is not None  # the header fits, the frame does not
        assert measured[-2] == (None, None, 61)
        assert measured[-1] == (None, None, length)
        assert not receiver.receive_many(jobs[-3:-2])[0].detected

    def test_joint_batch_header_large_stack(self, monkeypatch):
        # Over 256 KiB of header span, where numpy starts reusing large
        # temporaries as ufunc outputs.
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig(), genie=False)
        jobs = jobs * 3
        assert len(jobs) * jobs[0][2].data_offset * 16 > 1 << 18
        _check_header_oracle(receiver, jobs)

    def test_joint_batch_header_needs_one_hint_and_length_per_row(self, monkeypatch):
        receiver, jobs = _cp_sweep_jobs(monkeypatch, SourceSyncConfig())
        samples, length, layout, _, start = jobs[0]
        rows = np.stack([samples] * 3)
        with pytest.raises(ValueError, match="one start hint and one length per row"):
            receiver.measure_header_batch(rows, [length] * 3, layout, [None])
        with pytest.raises(ValueError, match="one start hint and one length per row"):
            receiver.measure_header_batch(rows, [length], layout, [start] * 3)


class TestJointBatchStackedStages:
    def test_joint_batch_tracker_matches_scalar_tracker(self):
        rng = np.random.default_rng(21)
        params = DEFAULT_PARAMS
        n_frames, n_symbols, n_senders = 5, 12, 3
        freq = rng.normal(size=(n_frames, n_symbols, params.n_fft)) * (1 + 0.5j)
        freq = freq + 1j * rng.normal(size=freq.shape)
        responses = rng.normal(size=(n_frames, n_senders, params.n_fft)) + 0j
        responses[2, 1] = 0.0
        gate = np.ones((n_frames, n_senders), dtype=bool)
        gate[3, 2] = False
        track = track_phases_batch(freq, responses, gate, params, smoothing=0.7)
        # Any memory layout of the inputs gives the same floats.
        fortran = track_phases_batch(
            np.asfortranarray(freq), np.asfortranarray(responses), gate, params, smoothing=0.7
        )
        assert np.array_equal(fortran, track)
        for f in range(n_frames):
            tracker = PerSenderPhaseTracker(n_senders=n_senders, params=params, smoothing=0.7)
            channels = [ChannelEstimate(responses[f, k], 1.0) for k in range(n_senders)]
            for t in range(n_symbols):
                if gate[f, pilot_owner(t, n_senders)]:
                    tracker.update(freq[f, t], channels, t)
                assert np.array_equal(track[f, t], tracker.phases)

    @pytest.mark.parametrize("scheme", ["replicated_alamouti", "alamouti", "naive", "qostbc"])
    def test_joint_batch_combiner_stack_matches_per_frame(self, scheme):
        rng = np.random.default_rng(22)
        combiner = SmartCombiner(scheme)
        n_frames, n_senders, n_symbols, n_sc = 4, 3 if scheme != "alamouti" else 2, 8, 48
        shape = (n_frames, n_senders, n_symbols, n_sc)
        channels = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        received = rng.normal(size=(n_frames, n_symbols, n_sc)) + 0j
        active = np.ones((n_frames, n_senders), dtype=bool)
        active[1, -1] = False
        points = get_modulation("QPSK").points
        decoded, gain = combiner.decode_batch(received, channels, active, constellation=points)
        for f in range(n_frames):
            senders = [k for k in range(n_senders) if active[f, k]]
            want, want_gain = reference_combiner_decode(
                combiner, received[f], [channels[f, k] for k in senders], senders, points
            )
            assert np.array_equal(decoded[f], want)
            assert np.array_equal(gain[f], want_gain)
            one, one_gain = combiner.decode(
                received[f],
                [channels[f, k] for k in senders],
                codeword_indices=senders,
                constellation=points,
                return_gain=True,
            )
            assert np.array_equal(one, want)
            assert np.array_equal(one_gain, want_gain)

    @pytest.mark.parametrize("scheme", ["replicated_alamouti", "naive"])
    def test_joint_batch_combiner_single_frame_static_channels(self, scheme):
        # decode() accepts static (n_subcarriers,) channels, codewords in any
        # order and skipped codewords.
        rng = np.random.default_rng(23)
        combiner = SmartCombiner(scheme)
        received = rng.normal(size=(6, 48)) + 1j * rng.normal(size=(6, 48))
        channels = [rng.normal(size=48) + 1j * rng.normal(size=48) for _ in range(2)]
        for codewords in ([0, 1], [1, 0], [0, 2], [2]):
            chans = channels[: len(codewords)]
            want, want_gain = reference_combiner_decode(combiner, received, chans, codewords)
            got, got_gain = combiner.decode(
                received, chans, codeword_indices=codewords, return_gain=True
            )
            assert np.array_equal(got, want)
            assert np.array_equal(got_gain, want_gain)
            assert np.array_equal(combiner.decode(received, chans, codewords), want)


class TestJointBatchTransmitSynthesis:
    def test_joint_batch_header_waveforms_match_single_headers(self):
        lead = LeadSender()
        layout = JointFrameLayout(params=DEFAULT_PARAMS, n_cosenders=2, n_data_symbols=4)
        headers = [
            lead.make_header(pid, 6.0, cp, 2) for pid, cp in [(7, 0), (65535, 16), (300, 8)]
        ]
        batch = lead.header_waveforms(headers, layout)
        assert batch.shape[0] == len(headers)
        for header, row in zip(headers, batch):
            assert np.array_equal(row, lead.header_waveform(header, layout))

    def test_joint_batch_expands_each_header_once(self, monkeypatch):
        calls = []
        original = sender_module.header_symbol_bits

        def counting(header, n_bits):
            calls.append(header)
            return original(header, n_bits)

        # The ensemble imports the function by name, so patch both bindings.
        monkeypatch.setattr(sender_module, "header_symbol_bits", counting)
        monkeypatch.setattr(ens, "header_symbol_bits", counting)
        sessions = _sessions([521, 522], SourceSyncConfig())
        payload = bitutils.random_payload(30, np.random.default_rng(6))
        jobs = [ens.JointFrameJob(payload, data_cp_samples=cp) for cp in (0, 8, 32)]
        calls.clear()
        ens.run_joint_frames_batch(sessions, [jobs] * len(sessions))
        assert len(calls) == len(jobs) * len(sessions)
        calls.clear()
        sessions[0].run_joint_frame(payload)
        assert len(calls) == 1

    def test_joint_batch_data_sections_are_reused_read_only(self):
        frame_config = make_joint_frame_config(30, 6.0, DEFAULT_PARAMS, 8)
        layout = JointFrameLayout(
            params=DEFAULT_PARAMS, n_cosenders=1, n_data_symbols=frame_config.n_data_symbols,
            data_cp_samples=8,
        )
        combiner = SmartCombiner()
        args = (b"\x11" * 30, frame_config, combiner, 1, 1, 2, layout)
        sections = {}
        first = build_data_section(*args, sections=sections)
        assert build_data_section(*args, sections=sections) is first
        assert np.array_equal(first, build_data_section(*args))
        with pytest.raises(ValueError):
            first[0] = 0.0
        other = build_data_section(b"\x12" * 30, *args[1:], sections=sections)
        assert other is not first and len(sections) == 2
