"""Lockstep joint-frame core path against its per-frame reference.

Every entry point of :mod:`repro.core.ensemble` must reproduce the
per-frame orchestration of ``tests/core/reference_session.py`` under
identical seeds: the lockstep engine consumes each session's generator in
exactly the per-frame order, so detection outcomes, CRC/decode outcomes
and schedules are identical, and floating-point measurements agree to
``rtol=1e-9`` (the reference propagates and combines one frame at a time).
The session's own per-frame methods are stacks of one over the same
engine, so the grouping-invariance test holds an ensemble of N sessions
to N ensembles of one.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.core import ensemble as ens
from repro.core import sender
from repro.core.ensemble import run_sync_trials_batch
from repro.phy import bits as bitutils
from tests.core import reference_blocks, reference_session as ref


def _make_sessions(seeds, snr_db=14.0, lead_cosender_snr_db=18.0, n_cosenders=1):
    sessions = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=snr_db,
            cosender_rx_snr_db=[snr_db] * n_cosenders,
            lead_cosender_snr_db=[lead_cosender_snr_db] * n_cosenders,
        )
        sessions.append(SourceSyncSession(topo, SourceSyncConfig(), rng=rng))
    return sessions


def _rng_states_match(a, b):
    return all(x.rng.bit_generator.state == y.rng.bit_generator.state for x, y in zip(a, b))


SEEDS = [301, 302, 303]


@pytest.fixture()
def session_pairs():
    return _make_sessions(SEEDS), _make_sessions(SEEDS)


class TestJointBatchMeasurement:
    def test_joint_batch_measure_delays_matches_sequential(self, session_pairs):
        seq, bat = session_pairs
        for session in seq:
            ref.measure_delays(session)
        ens.measure_delays_batch(bat)
        for a, b in zip(seq, bat):
            for sa, sb in zip(a._states, b._states):
                assert sa.lead_to_cosender_samples == pytest.approx(
                    sb.lead_to_cosender_samples, abs=1e-9
                )
                assert sa.lead_to_receiver_samples == pytest.approx(
                    sb.lead_to_receiver_samples, abs=1e-9
                )
                assert sa.cosender_to_receiver_samples == pytest.approx(
                    sb.cosender_to_receiver_samples, abs=1e-9
                )
                assert sa.cfo_to_lead_hz == pytest.approx(sb.cfo_to_lead_hz, abs=1e-6)
        assert _rng_states_match(seq, bat)

    def test_joint_batch_true_delays_match_sequential(self, session_pairs):
        seq, bat = session_pairs
        for session in seq:
            ref.measure_delays(session, use_true_delays=True)
        ens.measure_delays_batch(bat, use_true_delays=True)
        for a, b in zip(seq, bat):
            assert b._delays_measured
            for sa, sb in zip(a._states, b._states):
                assert sa.lead_to_cosender_samples == sb.lead_to_cosender_samples
                assert sa.lead_to_receiver_samples == sb.lead_to_receiver_samples
                assert sa.cosender_to_receiver_samples == sb.cosender_to_receiver_samples
                assert sa.cfo_to_lead_hz == sb.cfo_to_lead_hz
                assert sa.tracker.wait_time_samples == sb.tracker.wait_time_samples
        assert _rng_states_match(seq, bat)

    def test_joint_batch_converge_tracking_matches_sequential(self, session_pairs):
        seq, bat = session_pairs
        for session in seq:
            ref.measure_delays(session)
            ref.converge_tracking(session, rounds=3)
        ens.measure_delays_batch(bat)
        ens.converge_tracking_batch(bat, rounds=3)
        for a, b in zip(seq, bat):
            assert a._states[0].tracker.wait_time_samples == pytest.approx(
                b._states[0].tracker.wait_time_samples, abs=1e-9
            )
        assert _rng_states_match(seq, bat)


def _assert_header_outcomes_close(a, b):
    """Two header-exchange outcomes: equal decisions, floats to ``rtol=1e-9``."""
    assert (a.measured_misalignment is None) == (b.measured_misalignment is None)
    if a.measured_misalignment is not None:
        np.testing.assert_allclose(
            a.measured_misalignment.misalignments_samples,
            b.measured_misalignment.misalignments_samples,
            rtol=1e-9,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            a.measured_misalignment.lead_offset_samples,
            b.measured_misalignment.lead_offset_samples,
            rtol=1e-9,
        )
    assert a.schedules_feasible == b.schedules_feasible
    np.testing.assert_allclose(
        a.true_misalignment_samples, b.true_misalignment_samples, rtol=1e-9, equal_nan=True
    )
    assert a.snr_db == b.snr_db
    assert (a.channels is None) == (b.channels is None)
    if a.channels is not None:
        np.testing.assert_allclose(a.channels.noise_var, b.channels.noise_var, rtol=1e-9)
        pairs = [(a.channels.lead, b.channels.lead)]
        assert len(a.channels.cosenders) == len(b.channels.cosenders)
        pairs.extend(zip(a.channels.cosenders, b.channels.cosenders))
        for ca, cb in pairs:
            assert (ca is None) == (cb is None)
            if ca is not None:
                np.testing.assert_allclose(ca.response, cb.response, rtol=1e-9, atol=1e-12)


def _assert_header_outcomes_identical(a, b):
    """Two header-exchange outcomes agree byte for byte."""
    assert a.measured_misalignment == b.measured_misalignment
    assert a.schedules_feasible == b.schedules_feasible
    np.testing.assert_array_equal(a.true_misalignment_samples, b.true_misalignment_samples)
    assert a.snr_db == b.snr_db
    assert (a.channels is None) == (b.channels is None)
    if a.channels is not None:
        assert a.channels.noise_var == b.channels.noise_var
        pairs = [(a.channels.lead, b.channels.lead)]
        assert len(a.channels.cosenders) == len(b.channels.cosenders)
        pairs.extend(zip(a.channels.cosenders, b.channels.cosenders))
        for ca, cb in pairs:
            assert (ca is None) == (cb is None)
            if ca is not None:
                assert ca.noise_var == cb.noise_var
                assert ca.response.tobytes() == cb.response.tobytes()


def _forced_miss(real, index):
    """A detector that sees silence in ``rows[index]`` (``...``: the whole stream)."""

    def detect(rows, params):
        rows = np.array(rows)
        rows[index] = 0.0
        return real(rows, params)

    return detect


class TestJointBatchExchanges:
    @pytest.mark.parametrize("case", ["plain", "missed_probe", "uncompensated"])
    def test_joint_batch_header_exchanges_match_sequential(self, session_pairs, monkeypatch, case):
        """Three lockstep exchanges against three per-frame exchanges per session.

        ``missed_probe`` hides the middle session's header from its
        co-sender on the second exchange, in both paths: the co-sender
        stays silent and draws no detection latency.  ``uncompensated``
        runs the §8.1.2 baseline schedule.
        """
        seq, bat = session_pairs
        compensate = case != "uncompensated"
        forced, forced_exchange = 1, 1
        for session in seq:
            ref.measure_delays(session)
        ens.measure_delays_batch(bat)

        sequential = []
        for s, session in enumerate(seq):
            outcomes = []
            for r in range(3):
                with monkeypatch.context() as patch:
                    if case == "missed_probe" and (s, r) == (forced, forced_exchange):
                        patch.setattr(
                            reference_blocks,
                            "detect_packet_autocorrelation",
                            _forced_miss(reference_blocks.detect_packet_autocorrelation, ...),
                        )
                    outcomes.append(
                        ref.run_header_exchange(
                            session, compensate=compensate, apply_tracking_feedback=False
                        )
                    )
            sequential.append(outcomes)

        batched = []
        for r in range(3):
            with monkeypatch.context() as patch:
                if case == "missed_probe" and r == forced_exchange:
                    patch.setattr(
                        ens,
                        "detect_packet_autocorrelation_batch",
                        _forced_miss(ens.detect_packet_autocorrelation_batch, forced),
                    )
                batched.append(ens.run_header_exchanges_batch(bat, compensate=compensate))

        if case == "missed_probe":
            missed = batched[forced_exchange][forced]
            assert missed.schedules_feasible == (False,)
            assert np.isnan(missed.true_misalignment_samples[0])
        for s, per_session_seq in enumerate(sequential):
            for r, a in enumerate(per_session_seq):
                _assert_header_outcomes_identical(a, batched[r][s])
        assert _rng_states_match(seq, bat)

    def test_joint_batch_sync_trials_match_sequential(self, session_pairs):
        seq, bat = session_pairs
        sequential = [[ref.run_sync_trial(s) for _ in range(2)] for s in seq]
        batched = [run_sync_trials_batch(bat) for _ in range(2)]
        for s, per_session_seq in enumerate(sequential):
            for r, a in enumerate(per_session_seq):
                b = batched[r][s]
                assert a.feasible == b.feasible
                np.testing.assert_allclose(
                    a.misalignment_samples, b.misalignment_samples, rtol=1e-9
                )
        assert _rng_states_match(seq, bat)


def _assert_frames_close(a, b, exact_report=True):
    """Equal decisions and decoded bytes; the misalignment report and the
    EVM-implied SNR exact (NaN matching NaN) unless ``exact_report`` is
    off; other floats to ``rtol=1e-9``."""
    assert a.result.detected == b.result.detected
    assert a.result.crc_ok == b.result.crc_ok
    assert a.result.payload == b.result.payload
    assert a.result.start_index == b.result.start_index
    assert (a.result.misalignment is None) == (b.result.misalignment is None)
    if exact_report:
        assert a.result.misalignment == b.result.misalignment
    elif a.result.misalignment is not None:
        np.testing.assert_allclose(
            a.result.misalignment.misalignments_samples,
            b.result.misalignment.misalignments_samples,
            rtol=1e-9,
            atol=1e-12,
        )
    if exact_report:
        assert np.float64(a.evm_snr_db).tobytes() == np.float64(b.evm_snr_db).tobytes()
    else:
        np.testing.assert_allclose(a.evm_snr_db, b.evm_snr_db, rtol=1e-9, equal_nan=True)
    assert a.schedules_feasible == b.schedules_feasible
    np.testing.assert_allclose(
        a.true_misalignment_samples, b.true_misalignment_samples, rtol=1e-9, equal_nan=True
    )


class TestJointBatchFrames:
    def test_joint_batch_frames_match_sequential(self):
        seq = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0)
        bat = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0)
        for s in seq:
            ref.measure_delays(s)
            ref.converge_tracking(s, rounds=3)
        ens.measure_delays_batch(bat)
        ens.converge_tracking_batch(bat, rounds=3)
        payload = bitutils.random_payload(40, np.random.default_rng(9))
        cps = [0, 8, 32]
        sequential = [
            [
                ref.run_joint_frame(
                    s,
                    payload,
                    data_cp_samples=cp,
                    apply_tracking_feedback=False,
                    genie_timing=True,
                )
                for cp in cps
            ]
            for s in seq
        ]
        jobs = [ens.JointFrameJob(payload, data_cp_samples=cp, genie_timing=True) for cp in cps]
        batched = ens.run_joint_frames_batch(bat, [jobs] * len(bat))
        for per_session_seq, per_session_bat in zip(sequential, batched):
            for a, b in zip(per_session_seq, per_session_bat):
                _assert_frames_close(a, b)
        assert _rng_states_match(seq, bat)

    def test_joint_batch_detection_mode_matches_sequential(self):
        seq = _make_sessions([77], snr_db=20.0, lead_cosender_snr_db=25.0)
        bat = _make_sessions([77], snr_db=20.0, lead_cosender_snr_db=25.0)
        ref.measure_delays(seq[0])
        ens.measure_delays_batch(bat)
        payload = bitutils.random_payload(30, np.random.default_rng(2))
        a = ref.run_joint_frame(seq[0], payload, data_cp_samples=8, apply_tracking_feedback=False)
        ((b,),) = ens.run_joint_frames_batch(bat, [[ens.JointFrameJob(payload, data_cp_samples=8)]])
        _assert_frames_close(a, b)
        assert _rng_states_match(seq, bat)

    @pytest.mark.parametrize("active", [None, [1]])
    def test_joint_batch_session_frames_with_feedback_match_sequential(self, active):
        """``run_joint_frame`` (a stack of one plus tracking feedback) against
        the per-frame reference over three frames with two co-senders: the
        feedback of each frame moves the schedule of the next, and with only
        co-sender 1 active its report entry must reach co-sender 1."""
        seq = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0, n_cosenders=2)
        bat = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0, n_cosenders=2)
        payload = bitutils.random_payload(40, np.random.default_rng(9))
        for a_session, b_session in zip(seq, bat):
            for cp in (16, 0, 8):
                a = ref.run_joint_frame(
                    a_session, payload, data_cp_samples=cp, active_cosenders=active
                )
                b = b_session.run_joint_frame(payload, data_cp_samples=cp, active_cosenders=active)
                _assert_frames_close(a, b)
                for state_a, state_b in zip(a_session._states, b_session._states):
                    assert state_a.tracker.wait_time_samples == pytest.approx(
                        state_b.tracker.wait_time_samples, rel=1e-9, abs=1e-12
                    )
        assert _rng_states_match(seq, bat)


def _assert_same_bytes(a, b, path="outcome"):
    """``a`` and ``b`` agree byte for byte, through dataclasses and containers."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same_bytes(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, (float, np.floating)):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same_bytes(x, y, f"{path}[{k}]")
    else:
        assert a == b, path


class TestJointBatchSingleSender:
    """``run_single_sender_frame`` (a joint frame on the lead-only topology)
    against the per-frame reference, which builds, combines and receives the
    lead's frame on its own: every result field, the layout, the frame
    config and the generator state afterwards agree byte for byte, so the
    lead-only path draws exactly what the reference draws."""

    @pytest.mark.parametrize("measured", [False, True], ids=["unmeasured", "measured"])
    @pytest.mark.parametrize("genie", [False, True], ids=["acquired", "genie"])
    @pytest.mark.parametrize("seed", range(12))
    def test_joint_batch_single_sender_frame_matches_reference(self, seed, genie, measured):
        n_cosenders = 1 + seed % 2
        rate_mbps = (6.0, 12.0, 24.0)[seed % 3]
        seq = _make_sessions([seed], snr_db=16.0, lead_cosender_snr_db=20.0, n_cosenders=n_cosenders)[0]
        bat = _make_sessions([seed], snr_db=16.0, lead_cosender_snr_db=20.0, n_cosenders=n_cosenders)[0]
        if measured:
            ref.measure_delays(seq)
            bat.measure_delays()
        payload = bitutils.random_payload(30, np.random.default_rng(seed))
        a = ref.run_single_sender_frame(seq, payload, rate_mbps, genie_timing=genie)
        b = bat.run_single_sender_frame(payload, rate_mbps, genie_timing=genie)
        _assert_same_bytes(a, b)
        assert b.layout.n_cosenders == 0
        assert bat._delays_measured
        assert seq.rng.bit_generator.state == bat.rng.bit_generator.state


class TestJointBatchGroupingInvariance:
    """An ensemble of N sessions equals N ensembles of one.

    Decisions, decoded bytes and generator states match exactly; floats
    match to ``rtol=1e-9`` only, because the probe stage's phase-slope fit
    (``phase_slope_windowed_batch``) rounds differently on different stack
    shapes.
    """

    @staticmethod
    def _run(sessions, payloads, cps):
        ens.measure_delays_batch(sessions)
        ens.converge_tracking_batch(sessions, rounds=3)
        headers = [ens.run_header_exchanges_batch(sessions) for _ in range(3)]
        jobs = [
            [ens.JointFrameJob(payload, data_cp_samples=cp, genie_timing=True) for cp in cps]
            for payload in payloads
        ]
        frames = ens.run_joint_frames_batch(sessions, jobs)
        return headers, frames

    def test_joint_batch_ensemble_of_n_equals_n_ensembles_of_one(self):
        seeds = [401, 402, 403, 404]
        payloads = [bitutils.random_payload(40, np.random.default_rng(seed)) for seed in seeds]
        cps = [0, 8, 32]
        together = _make_sessions(seeds, snr_db=12.0, lead_cosender_snr_db=16.0)
        apart = _make_sessions(seeds, snr_db=12.0, lead_cosender_snr_db=16.0)
        headers_n, frames_n = self._run(together, payloads, cps)
        per_session = [
            self._run([session], [payload], cps) for session, payload in zip(apart, payloads)
        ]
        for s, (headers_1, frames_1) in enumerate(per_session):
            for r in range(3):
                _assert_header_outcomes_close(headers_n[r][s], headers_1[r][0])
                a, b = headers_n[r][s], headers_1[r][0]
                assert a.detected == b.detected
            for a, b in zip(frames_n[s], frames_1[0]):
                _assert_frames_close(a, b, exact_report=False)
            assert together[s].rng.bit_generator.state == apart[s].rng.bit_generator.state
        assert any(frame.result.crc_ok for frames in frames_n for frame in frames)


class TestJointBatchMemory:
    """Working sets bounded by the wave, not by the ensemble."""

    @staticmethod
    def _fig12_loop_peak(repetitions):
        from repro.experiments.fig12_sync_error import (
            _make_cell_session,
            _measure_residual_batch,
        )
        from repro.phy.params import DEFAULT_PARAMS

        children = np.random.SeedSequence(12).spawn(4)
        sessions = [
            _make_cell_session(snr_db, np.random.default_rng(child), DEFAULT_PARAMS)
            for snr_db, child in zip((6.0, 12.0, 20.0, 25.0), children)
        ]
        ens.measure_delays_batch(sessions)
        _measure_residual_batch(sessions, 1, 1, DEFAULT_PARAMS)  # warm caches untraced
        tracemalloc.start()
        try:
            _measure_residual_batch(sessions, 1, repetitions, DEFAULT_PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_joint_batch_fig12_peak_independent_of_repetitions(self):
        """Each repetition is measured as it arrives, so repeating the header
        more often does not hold more received rows at once."""
        assert self._fig12_loop_peak(8) <= 1.25 * self._fig12_loop_peak(2)

    @staticmethod
    def _fig13_peak(n_frames):
        from repro.experiments import registry

        spec = registry.get("fig13")
        config = spec.make_config("smoke", {"n_frames": n_frames})
        spec.run(config)  # warm caches untraced
        tracemalloc.start()
        try:
            spec.run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_joint_batch_fig13_peak_independent_of_wave_count(self):
        """Each wave's equalized symbols are folded into EVMs as it lands, so
        sending twice the waves does not hold twice the symbols.  (Doubling
        ``n_topologies`` widens every wave instead, which the wave-bounded
        working set grows with.)"""
        assert self._fig13_peak(8) <= 1.25 * self._fig13_peak(4)

    @staticmethod
    def _cp_sweep(monkeypatch, spy_advance=None):
        sessions = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0)
        ens.measure_delays_batch(sessions)
        payloads = [bitutils.random_payload(40, np.random.default_rng(seed)) for seed in (9, 10)]
        cps = [0, 8, 32]
        jobs = [
            [
                ens.JointFrameJob(payload, data_cp_samples=cp, genie_timing=True)
                for cp in cps
                for _ in range(2)
            ]
            for payload in payloads
        ]
        if spy_advance is not None:
            advance = ens._JointFrameLane.advance_lanes
            monkeypatch.setattr(
                ens._JointFrameLane,
                "advance_lanes",
                classmethod(lambda cls, lanes: spy_advance(advance, lanes)),
            )
        ens.run_joint_frames_batch(sessions, jobs)
        return sessions, payloads, cps

    def test_joint_batch_data_sections_hold_only_the_wave_layouts(self, monkeypatch):
        waves = []

        def spy(advance, lanes):
            ctx = lanes[0].ctx
            first = len(ctx.lane_meta)
            advance(lanes)
            used = {meta[2] for meta in ctx.lane_meta[first:]}
            waves.append((set(ctx.data_sections), used))

        self._cp_sweep(monkeypatch, spy)
        assert len(waves) == 6
        for held, used in waves:
            assert held == used

    def test_joint_batch_cp_sweep_builds_each_section_once(self, monkeypatch):
        encodes = []
        encode = sender.encode_payload_to_symbols
        monkeypatch.setattr(
            sender,
            "encode_payload_to_symbols",
            lambda *args, **kwargs: encodes.append(args) or encode(*args, **kwargs),
        )
        sessions, payloads, cps = self._cp_sweep(monkeypatch)
        n_senders = 1 + sessions[0].topology.n_cosenders
        # Two frames per CP and session, but one build per (payload, CP, sender).
        assert len(encodes) == len(payloads) * len(cps) * n_senders


def _run_per_frame(monkeypatch, name, overrides=None):
    """Run experiment ``name`` at ``smoke`` with every lockstep entry point
    that fig12, fig13 and fig15 call swapped for the per-frame reference:
    each session runs its exchanges and frames one at a time.  Returns the
    result and the ``evm_snr_db`` of every frame fig13 received."""
    from repro.experiments import fig12_sync_error, fig13_cp_reduction, fig15_power_gains
    from repro.experiments import registry

    def measure_delays_batch(sessions, use_true_delays=False):
        for session in sessions:
            ref.measure_delays(session, use_true_delays)

    def converge_tracking_batch(sessions, rounds=4, compensate=True):
        for session in sessions:
            ref.converge_tracking(session, rounds, compensate)

    def run_header_exchanges_batch(
        sessions, compensate=True, apply_tracking_feedback=False, genie_timing=False
    ):
        return [
            ref.run_header_exchange(session, compensate, apply_tracking_feedback, genie_timing)
            for session in sessions
        ]

    def run_joint_frames_batch(sessions, jobs_per_session):
        outcomes = [
            [
                ref.run_joint_frame(
                    session,
                    job.payload,
                    rate_mbps=job.rate_mbps,
                    data_cp_samples=job.data_cp_samples,
                    compensate=job.compensate,
                    active_cosenders=(
                        None if job.active_cosenders is None else list(job.active_cosenders)
                    ),
                    apply_tracking_feedback=False,
                    genie_timing=job.genie_timing,
                )
                for job in jobs
            ]
            for session, jobs in zip(sessions, jobs_per_session)
        ]
        return _record_evms(frame_evms, outcomes)

    frame_evms = []
    for module in (fig12_sync_error, fig15_power_gains):
        monkeypatch.setattr(module, "measure_delays_batch", measure_delays_batch)
        monkeypatch.setattr(module, "converge_tracking_batch", converge_tracking_batch)
        monkeypatch.setattr(module, "run_header_exchanges_batch", run_header_exchanges_batch)
    monkeypatch.setattr(fig13_cp_reduction, "run_joint_frames_batch", run_joint_frames_batch)
    monkeypatch.setattr(
        SourceSyncSession,
        "measure_delays",
        lambda self, use_true_delays=False: ref.measure_delays(self, use_true_delays),
    )
    monkeypatch.setattr(
        SourceSyncSession,
        "converge_tracking",
        lambda self, rounds=4, compensate=True: ref.converge_tracking(self, rounds, compensate),
    )
    spec = registry.get(name)
    return spec.run(spec.make_config("smoke", overrides)), frame_evms


def _record_evms(frame_evms, outcomes):
    """Append every outcome's ``evm_snr_db`` as its bytes; return ``outcomes``."""
    frame_evms.extend(
        np.float64(outcome.evm_snr_db).tobytes() for frames in outcomes for outcome in frames
    )
    return outcomes


def _run_lockstep(monkeypatch, name, overrides=None):
    """``name`` at ``smoke`` on the lockstep path, with fig13's frame EVMs as bytes."""
    from repro.experiments import fig13_cp_reduction, registry

    frame_evms = []
    lockstep = fig13_cp_reduction.run_joint_frames_batch
    with monkeypatch.context() as patch:
        patch.setattr(
            fig13_cp_reduction,
            "run_joint_frames_batch",
            lambda sessions, jobs: _record_evms(frame_evms, lockstep(sessions, jobs)),
        )
        spec = registry.get(name)
        return spec.run(spec.make_config("smoke", overrides)), frame_evms


@pytest.mark.parametrize("name", ["fig12", "fig13", "fig15", "fig18"])
def test_joint_batch_smoke_preset_equivalence(name, monkeypatch):
    """Lockstep == per-frame at smoke scale.  fig12, fig13 and fig15 run only
    the lockstep core path, so their per-frame side swaps in the reference
    session; fig18's swaps in the reference mesh loops.  fig13's frames
    agree on their EVM-implied SNR byte for byte."""
    from repro.experiments import registry
    from tests.routing.reference_mesh import patch_sequential_mesh

    spec = registry.get(name)
    batched, batched_evms = _run_lockstep(monkeypatch, name)
    if name == "fig18":
        patch_sequential_mesh(monkeypatch)
        sequential, sequential_evms = spec.run(spec.make_config("smoke")), []
    else:
        sequential, sequential_evms = _run_per_frame(monkeypatch, name)
    _assert_series_equal(batched, sequential)
    assert batched_evms == sequential_evms
    assert bool(batched_evms) == (name == "fig13")


def test_joint_batch_fig13_multi_topology_equivalence(monkeypatch):
    """fig13's widened chains (n_topologies > 1): both chains' sessions fold
    into one joint-frame ensemble and must still match the per-frame
    reference sweeps of each session, summary included, and every frame's
    EVM-implied SNR byte for byte."""
    overrides = {"n_topologies": 3}
    batched, batched_evms = _run_lockstep(monkeypatch, "fig13", overrides)
    sequential, sequential_evms = _run_per_frame(monkeypatch, "fig13", overrides)
    _assert_series_equal(batched, sequential)
    assert len(batched_evms) == 2 * 3 * 3
    assert batched_evms == sequential_evms
    assert batched.summary.keys() == sequential.summary.keys()
    for key in batched.summary:
        np.testing.assert_allclose(
            batched.summary[key], sequential.summary[key], rtol=1e-9, equal_nan=True
        )


def _assert_series_equal(batched, sequential):
    """Every series column numerically identical across the two paths."""
    assert batched.series.keys() == sequential.series.keys()
    for key in batched.series:
        first = batched.series[key]
        if first and isinstance(first[0], str):
            assert first == sequential.series[key]
        else:
            np.testing.assert_allclose(
                first, sequential.series[key], rtol=1e-9, equal_nan=True
            )
