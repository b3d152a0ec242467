"""Batched-vs-sequential equivalence of the lockstep joint-frame core path.

Every entry point of :mod:`repro.core.ensemble` must reproduce the
per-frame :class:`~repro.core.session.SourceSyncSession` outputs under
identical seeds: the lockstep engine consumes each session's generator in
exactly the sequential order, so detection outcomes, CRC/decode outcomes
and schedules are identical, and floating-point measurements agree to a few
ulp (SIMD kernel selection on batched arrays — the documented
``receive_batch`` caveat).  The four converted experiments are additionally
checked end to end at their smoke presets.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.core import ensemble as ens
from repro.core import sender
from repro.core.ensemble import run_sync_trials_batch
from repro.phy import bits as bitutils


def _make_sessions(seeds, snr_db=14.0, lead_cosender_snr_db=18.0):
    sessions = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=snr_db,
            cosender_rx_snr_db=[snr_db],
            lead_cosender_snr_db=[lead_cosender_snr_db],
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
            session.measure_delays()
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

    def test_joint_batch_converge_tracking_matches_sequential(self, session_pairs):
        seq, bat = session_pairs
        for session in seq:
            session.measure_delays()
            session.converge_tracking(rounds=3)
        ens.measure_delays_batch(bat)
        ens.converge_tracking_batch(bat, rounds=3)
        for a, b in zip(seq, bat):
            assert a._states[0].tracker.wait_time_samples == pytest.approx(
                b._states[0].tracker.wait_time_samples, abs=1e-9
            )
        assert _rng_states_match(seq, bat)


def _assert_header_outcomes_identical(a, b):
    """Two header-exchange outcomes agree byte for byte."""
    assert a.measured_misalignment == b.measured_misalignment
    assert a.schedules_feasible == b.schedules_feasible
    assert a.true_misalignment_samples == b.true_misalignment_samples
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


class TestJointBatchExchanges:
    def test_joint_batch_header_exchanges_match_sequential(self, session_pairs):
        seq, bat = session_pairs
        for session in seq:
            session.measure_delays()
        ens.measure_delays_batch(bat)
        sequential = [
            [s.run_header_exchange(apply_tracking_feedback=False) for _ in range(3)]
            for s in seq
        ]
        batched = [ens.run_header_exchanges_batch(bat) for _ in range(3)]
        for s, per_session_seq in enumerate(sequential):
            for r, a in enumerate(per_session_seq):
                _assert_header_outcomes_identical(a, batched[r][s])
        assert _rng_states_match(seq, bat)

    def test_joint_batch_header_rollback_matches_sequential(self, session_pairs, monkeypatch):
        """A session whose probe goes undetected is rolled back and replayed.

        The draw-ahead pre-draws every session's exchange assuming each
        probe is detected; the forced miss on the middle session's second
        exchange must rewind its generator and replay it sequentially, and
        every outcome and generator state must still equal the per-session
        loop byte for byte.
        """
        seq, bat = session_pairs
        for session in seq:
            session.measure_delays()
        ens.measure_delays_batch(bat)
        sequential = [
            [s.run_header_exchange(apply_tracking_feedback=False) for _ in range(3)]
            for s in seq
        ]

        forced = 1
        n_cosenders = bat[forced].topology.n_cosenders
        real_detect = ens.detect_packet_autocorrelation_batch

        def detect_missing_forced(rows, params):
            rows = np.array(rows)
            rows[forced * n_cosenders : (forced + 1) * n_cosenders] = 0.0
            return real_detect(rows, params)

        replays = []
        replay = bat[forced].run_header_exchange
        monkeypatch.setattr(
            bat[forced], "run_header_exchange", lambda **kw: replays.append(kw) or replay(**kw)
        )
        batched = []
        for r in range(3):
            with monkeypatch.context() as patch:
                if r == 1:
                    patch.setattr(ens, "detect_packet_autocorrelation_batch", detect_missing_forced)
                batched.append(ens.run_header_exchanges_batch(bat))
        assert len(replays) == 1
        for s, per_session_seq in enumerate(sequential):
            for r, a in enumerate(per_session_seq):
                _assert_header_outcomes_identical(a, batched[r][s])
        assert _rng_states_match(seq, bat)

    def test_joint_batch_sync_trials_match_sequential(self, session_pairs):
        seq, bat = session_pairs
        sequential = [[s.run_sync_trial() for _ in range(2)] for s in seq]
        batched = [run_sync_trials_batch(bat) for _ in range(2)]
        for s, per_session_seq in enumerate(sequential):
            for r, a in enumerate(per_session_seq):
                b = batched[r][s]
                assert a.feasible == b.feasible
                np.testing.assert_allclose(
                    a.misalignment_samples, b.misalignment_samples, rtol=1e-9
                )
        assert _rng_states_match(seq, bat)


class TestJointBatchFrames:
    def test_joint_batch_frames_match_sequential(self):
        seq = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0)
        bat = _make_sessions([401, 402], snr_db=20.0, lead_cosender_snr_db=25.0)
        for s in seq:
            s.measure_delays()
            s.converge_tracking(rounds=3)
        ens.measure_delays_batch(bat)
        ens.converge_tracking_batch(bat, rounds=3)
        payload = bitutils.random_payload(40, np.random.default_rng(9))
        cps = [0, 8, 32]
        sequential = [
            [
                s.run_joint_frame(
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
                assert a.result.detected == b.result.detected
                assert a.result.crc_ok == b.result.crc_ok
                assert a.result.payload == b.result.payload
                assert a.result.start_index == b.result.start_index
                assert a.result.misalignment == b.result.misalignment
                np.testing.assert_allclose(
                    a.result.equalized_symbols, b.result.equalized_symbols, rtol=1e-9, atol=1e-12
                )
                np.testing.assert_allclose(
                    a.true_misalignment_samples, b.true_misalignment_samples, rtol=1e-9
                )
        assert _rng_states_match(seq, bat)

    def test_joint_batch_detection_mode_matches_sequential(self):
        seq = _make_sessions([77], snr_db=20.0, lead_cosender_snr_db=25.0)
        bat = _make_sessions([77], snr_db=20.0, lead_cosender_snr_db=25.0)
        for s in seq:
            s.measure_delays()
        ens.measure_delays_batch(bat)
        payload = bitutils.random_payload(30, np.random.default_rng(2))
        a = seq[0].run_joint_frame(payload, data_cp_samples=8, apply_tracking_feedback=False)
        ((b,),) = ens.run_joint_frames_batch(bat, [[ens.JointFrameJob(payload, data_cp_samples=8)]])
        assert a.result.detected == b.result.detected
        assert a.result.start_index == b.result.start_index
        assert a.result.payload == b.result.payload


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


@pytest.mark.parametrize("name", ["fig12", "fig13", "fig15", "fig18"])
def test_joint_batch_smoke_preset_equivalence(name):
    """The four converted experiments: batched == sequential at smoke scale."""
    from repro.experiments import registry

    spec = registry.get(name)
    batched = spec.run(spec.make_config("smoke"))
    sequential = spec.run(spec.make_config("smoke", {"batched": False}))
    _assert_series_equal(batched, sequential)


def test_joint_batch_fig13_multi_topology_equivalence():
    """fig13's widened chains (n_topologies > 1): both chains' sessions fold
    into one joint-frame ensemble and must still match the sequential
    per-session sweeps, summary included."""
    from repro.experiments import registry

    spec = registry.get("fig13")
    overrides = {"n_topologies": 3}
    batched = spec.run(spec.make_config("smoke", overrides))
    sequential = spec.run(spec.make_config("smoke", {**overrides, "batched": False}))
    _assert_series_equal(batched, sequential)
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
