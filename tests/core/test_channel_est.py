"""Tests for the Joint Channel Estimator: CFO, per-sender channels, pilots (§5)."""

import numpy as np
import pytest

from repro.channel.composite import link_for_snr
from repro.core.channel_est import (
    JointChannelEstimate,
    PerSenderPhaseTracker,
    composite_channel,
    estimate_sender_channel,
    pilot_owner,
    pilot_scale_pattern,
    precorrect_cfo,
    sender_active,
)
from repro.phy.equalizer import ChannelEstimate
from repro.phy.ofdm import assemble_symbol
from repro.phy.params import DEFAULT_PARAMS as P
from repro.phy.preamble import long_training_field, long_training_sequence_freq
from tests.core.reference_blocks import measure_cfo


class TestCfo:
    def test_measure_cfo_accuracy(self):
        rng = np.random.default_rng(0)
        link = link_for_snr(18.0, rng=rng, cfo_hz=-120e3)
        estimate = measure_cfo(link, rng, n_probes=4)
        assert estimate.valid
        assert abs(estimate.error_hz) < 3e3

    def test_precorrection_cancels_offset(self):
        samples = np.ones(400, dtype=complex)
        cfo = 80e3
        corrected = precorrect_cfo(samples, cfo, 20e6)
        n = np.arange(samples.size)
        after_channel = corrected * np.exp(2j * np.pi * cfo * n / 20e6)
        assert np.allclose(after_channel, samples, atol=1e-9)

    def test_measure_cfo_invalid_probe_count(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            measure_cfo(link_for_snr(10.0, rng=rng), rng, n_probes=0)


class TestSenderChannelEstimation:
    def test_recovers_flat_channel_from_training_slot(self):
        gain = 1.3 * np.exp(1j * 0.7)
        slot = long_training_field(P) * gain
        estimate = estimate_sender_channel(slot, P)
        occupied = P.occupied_bins()
        assert np.allclose(estimate.on_bins(occupied), gain, atol=1e-9)

    def test_short_slot_rejected(self):
        with pytest.raises(ValueError):
            estimate_sender_channel(np.zeros(100, dtype=complex), P)

    def test_backoff_larger_than_guard_rejected(self):
        with pytest.raises(ValueError):
            estimate_sender_channel(long_training_field(P), P, window_backoff=64)

    def test_sender_active_detects_energy(self):
        slot = long_training_field(P) * 3.0
        assert sender_active(slot, noise_power=1.0)

    def test_sender_active_rejects_silence(self):
        rng = np.random.default_rng(2)
        noise_only = (rng.normal(size=160) + 1j * rng.normal(size=160)) / np.sqrt(2)
        assert not sender_active(noise_only, noise_power=1.0)

    def test_sender_active_empty(self):
        assert not sender_active(np.zeros(0, dtype=complex), 1.0)


class TestJointChannelEstimate:
    def _make(self, include_cosender=True):
        reference = long_training_sequence_freq(P)
        lead = ChannelEstimate(reference * 1.0, noise_var=0.1)
        co = ChannelEstimate(reference * (0.5 + 0.5j), noise_var=0.1) if include_cosender else None
        return JointChannelEstimate(lead=lead, cosenders=[co], noise_var=0.1, params=P)

    def test_active_senders_counted(self):
        assert self._make(True).n_active_senders == 2
        assert self._make(False).n_active_senders == 1

    def test_codewords_follow_activity(self):
        estimate = self._make(True)
        assert estimate.active_codewords() == [0, 1]
        assert self._make(False).active_codewords() == [0]

    def test_composite_is_sum(self):
        estimate = self._make(True)
        composite = estimate.composite()
        occupied = P.occupied_bins()
        expected = estimate.lead.response[occupied] + estimate.cosenders[0].response[occupied]
        assert np.allclose(composite[occupied], expected)

    def test_composite_with_phases(self):
        estimate = self._make(True)
        rotated = estimate.composite(np.array([0.0, np.pi]))
        occupied = P.occupied_bins()
        expected = estimate.lead.response[occupied] - estimate.cosenders[0].response[occupied]
        assert np.allclose(rotated[occupied], expected)

    def test_phase_length_checked(self):
        with pytest.raises(ValueError):
            self._make(True).composite(np.array([0.0]))

    def test_per_subcarrier_snr_adds_powers(self):
        estimate = self._make(True)
        snrs = estimate.per_subcarrier_snr_db()
        expected = 10 * np.log10((1.0 + 0.5) / 0.1)
        assert np.allclose(snrs, expected, atol=1e-6)

    def test_composite_channel_helper(self):
        reference = long_training_sequence_freq(P)
        a = ChannelEstimate(reference)
        b = ChannelEstimate(reference * 2.0)
        total = composite_channel([a, b])
        assert np.allclose(total, reference * 3.0)


class TestPilotSharing:
    def test_owner_round_robin(self):
        assert [pilot_owner(i, 2) for i in range(4)] == [0, 1, 0, 1]
        assert [pilot_owner(i, 3) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_scale_pattern_matches_owner(self):
        pattern = pilot_scale_pattern(6, sender_index=1, n_senders=3)
        assert pattern.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]

    def test_invalid_sender_count(self):
        with pytest.raises(ValueError):
            pilot_owner(0, 0)

    def test_tracker_updates_only_owner(self):
        reference = long_training_sequence_freq(P)
        lead = ChannelEstimate(reference.copy())
        co = ChannelEstimate(reference.copy())
        tracker = PerSenderPhaseTracker(n_senders=2, params=P)
        # Symbol 0 is owned by the lead; rotate its pilots by 0.4 rad.
        symbol = assemble_symbol(np.zeros(48, dtype=complex), 0, P) * np.exp(1j * 0.4)
        phases = tracker.update(symbol, [lead, co], symbol_index=0)
        assert phases[0] == pytest.approx(0.4, abs=0.02)
        assert phases[1] == pytest.approx(0.0)

    def test_tracker_accumulates_rotation(self):
        reference = long_training_sequence_freq(P)
        lead = ChannelEstimate(reference.copy())
        tracker = PerSenderPhaseTracker(n_senders=1, params=P)
        total = 0.0
        for t in range(6):
            total = 0.3 * (t + 1)
            symbol = assemble_symbol(np.zeros(48, dtype=complex), t, P) * np.exp(1j * total)
            tracker.update(symbol, [lead], t)
        assert tracker.phases[0] == pytest.approx(total, abs=0.05)

    def test_rotated_channels(self):
        reference = long_training_sequence_freq(P)
        lead = ChannelEstimate(reference.copy())
        tracker = PerSenderPhaseTracker(n_senders=1, params=P)
        symbol = assemble_symbol(np.zeros(48, dtype=complex), 0, P) * np.exp(1j * 0.5)
        tracker.update(symbol, [lead], 0)
        rotated = tracker.rotated_channels([lead])[0]
        occupied = P.occupied_bins()
        assert np.allclose(rotated[occupied], reference[occupied] * np.exp(1j * tracker.phases[0]))

    def test_history_shape(self):
        tracker = PerSenderPhaseTracker(n_senders=2, params=P)
        assert tracker.history().shape == (0, 2)
