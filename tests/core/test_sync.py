"""Tests for the Symbol Level Synchronizer: compensation, probes, LP, tracking (§4)."""

import numpy as np
import pytest

from repro.channel.composite import link_for_snr
from repro.core.sync import (
    DelayBudget,
    WaitTimeTracker,
    compute_wait_time,
    misalignment_matrix,
    optimize_wait_times,
    required_cp_increase,
    sifs_samples,
)
from repro.hardware.frontend import RadioFrontend
from repro.phy.equalizer import ChannelEstimate
from repro.phy.params import DEFAULT_PARAMS as P
from repro.phy.preamble import long_training_sequence_freq
from tests.core.reference_blocks import measure_misalignment, measure_propagation_delay, probe_leg


class TestCompensation:
    def test_sifs_in_samples(self):
        assert sifs_samples(20e6, 10.0) == pytest.approx(200.0)

    def test_perfect_budget_alignment(self):
        # With exact delay knowledge the co-sender transmit offset equals
        # SIFS + (T0 - t_i): its data then arrives exactly with the lead's.
        budget = DelayBudget(
            lead_to_cosender=4.0,
            detection_delay=20.0,
            turnaround=100.0,
            lead_to_receiver=3.0,
            cosender_to_receiver=7.0,
        )
        schedule = compute_wait_time(budget, sifs=200.0)
        assert schedule.transmit_offset_after_header == pytest.approx(200.0 + (3.0 - 7.0))
        assert schedule.feasible

    def test_local_wait_accounts_for_readiness(self):
        budget = DelayBudget(2.0, 10.0, 150.0, 5.0, 5.0)
        schedule = compute_wait_time(budget, sifs=200.0)
        assert schedule.local_wait_after_detection == pytest.approx(200.0 - 162.0)

    def test_infeasible_when_turnaround_too_long(self):
        budget = DelayBudget(2.0, 30.0, 190.0, 5.0, 5.0)
        schedule = compute_wait_time(budget, sifs=200.0)
        assert not schedule.feasible

    def test_slot_offset_added(self):
        budget = DelayBudget(0.0, 0.0, 0.0, 0.0, 0.0)
        schedule = compute_wait_time(budget, sifs=200.0, extra_slot_offset=160.0)
        assert schedule.transmit_offset_after_header == pytest.approx(360.0)

    def test_rejects_nonpositive_sifs(self):
        with pytest.raises(ValueError):
            compute_wait_time(DelayBudget(0, 0, 0, 0, 0), sifs=0.0)


class TestProbes:
    def test_probe_leg_estimates_detection_delay(self):
        rng = np.random.default_rng(0)
        link = link_for_snr(20.0, rng=rng, delay_samples=2.3)
        frontend = RadioFrontend.random(rng)
        leg = probe_leg(link, frontend, rng, 1.0, P)
        assert leg.detected
        assert abs(leg.estimation_error) < 1.5

    def test_propagation_delay_measurement(self):
        rng = np.random.default_rng(1)
        forward = link_for_snr(18.0, rng=rng, delay_samples=3.0)
        reverse = link_for_snr(18.0, rng=rng, delay_samples=3.0)
        estimate = measure_propagation_delay(
            forward, reverse, RadioFrontend.random(rng), RadioFrontend.random(rng), rng, n_probes=3
        )
        assert estimate.valid
        # The paper needs sub-symbol accuracy; a couple of samples suffices
        # because the tracking loop (§4.5) absorbs the residual.
        assert abs(estimate.error_samples) < 2.0

    def test_propagation_invalid_probe_count(self):
        rng = np.random.default_rng(2)
        link = link_for_snr(10.0, rng=rng)
        with pytest.raises(ValueError):
            measure_propagation_delay(link, link, RadioFrontend.random(rng), RadioFrontend.random(rng), rng, n_probes=0)

    def test_undetectable_probe_reported(self):
        rng = np.random.default_rng(3)
        link = link_for_snr(-25.0, rng=rng)  # far below the detector floor
        frontend = RadioFrontend.random(rng)
        leg = probe_leg(link, frontend, rng, 1.0, P)
        assert not leg.detected


class TestMultiReceiverLP:
    def test_single_receiver_perfect_alignment(self):
        t = np.array([[5.0], [9.0]])
        lead = np.array([3.0])
        solution = optimize_wait_times(t, lead)
        assert solution.success
        assert solution.max_misalignment == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(solution.wait_times, [-2.0, -6.0], atol=1e-6)

    def test_two_receivers_conflicting_delays(self):
        # The Fig. 8 situation: no wait time aligns both receivers, so the
        # optimum splits the difference.
        t = np.array([[2.0, 8.0]])
        lead = np.array([6.0, 4.0])
        solution = optimize_wait_times(t, lead)
        assert solution.success
        assert solution.max_misalignment == pytest.approx(4.0, abs=1e-6)

    def test_lp_beats_naive_first_receiver_alignment(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(0, 10, size=(3, 4))
        lead = rng.uniform(0, 10, size=4)
        solution = optimize_wait_times(t, lead)
        naive_waits = lead[0] - t[:, 0]
        naive_worst = misalignment_matrix(naive_waits, t, lead).max()
        assert solution.max_misalignment <= naive_worst + 1e-9

    def test_cp_increase_rounds_up(self):
        t = np.array([[2.0, 8.0]])
        lead = np.array([6.0, 4.0])
        solution = optimize_wait_times(t, lead)
        assert solution.cp_increase_samples() == 4
        assert required_cp_increase(solution, P) == P.cp_samples + 4

    def test_no_cosenders(self):
        solution = optimize_wait_times(np.zeros((0, 2)), np.array([1.0, 2.0]))
        assert solution.success
        assert solution.wait_times.size == 0

    def test_misalignment_matrix_shapes(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        lead = np.array([0.0, 0.0])
        matrix = misalignment_matrix(np.array([0.0, 0.0]), t, lead)
        # 2 co-senders vs lead + 1 co-sender pair = 3 rows, 2 receivers.
        assert matrix.shape == (3, 2)


class TestTracking:
    def test_misalignment_from_slope_difference(self):
        # Flat unit channel for the lead sender.
        flat = np.zeros(P.n_fft, dtype=complex)
        flat[P.occupied_bins()] = 1.0
        lead = ChannelEstimate(flat.copy())
        # The co-sender's symbols arrive 2 samples late: the receiver's FFT
        # window is then 2 samples early relative to the co-sender's signal,
        # which shows up as a phase ramp over the signed subcarrier offsets.
        bins = np.arange(P.n_fft)
        signed = np.where(bins < P.n_fft // 2, bins, bins - P.n_fft)
        late = ChannelEstimate(flat * np.exp(-2j * np.pi * signed * 2.0 / P.n_fft))
        report = measure_misalignment(lead, [late], P)
        assert report.misalignments_samples[0] == pytest.approx(2.0, abs=0.05)
        assert report.worst_misalignment() == pytest.approx(2.0, abs=0.05)

    def test_tracker_converges_on_constant_offset(self):
        # Closed loop: the co-sender initially arrives 4 samples late; the
        # reported misalignment is that lateness plus whatever wait-time
        # correction has already been applied.
        tracker = WaitTimeTracker(wait_time_samples=0.0, gain=0.5)
        true_extra_delay = 4.0
        for _ in range(20):
            reported = true_extra_delay + tracker.wait_time_samples
            tracker.update(reported)
        assert tracker.wait_time_samples == pytest.approx(-4.0, abs=0.1)
        assert tracker.converged()

    def test_tracker_ignores_nan(self):
        tracker = WaitTimeTracker(wait_time_samples=1.0)
        tracker.update(float("nan"))
        assert tracker.wait_time_samples == 1.0

    def test_not_converged_initially(self):
        assert not WaitTimeTracker(wait_time_samples=0.0).converged()
