"""Tests for the channel substrate: multipath, AWGN, oscillators, propagation."""

import numpy as np
import pytest

from repro.channel import (
    DEFAULT_PROFILE,
    WIGLAN_PROFILE,
    Link,
    MultipathChannel,
    MultipathProfile,
    Oscillator,
    PathLossModel,
    Transmission,
    add_noise_for_snr,
    awgn,
    cfo_from_ppm,
    db_to_linear,
    linear_to_db,
    link_for_snr,
    measure_snr_db,
    noise_power_for_snr,
    propagation_delay_samples,
    propagation_delay_s,
)
from tests.core.reference_blocks import (
    apply_cfo,
    combine_at_receiver,
    fractional_delay,
    propagate,
)


class TestMultipath:
    def test_tap_powers_normalised(self):
        assert MultipathProfile(n_taps=8).tap_powers().sum() == pytest.approx(1.0)

    def test_tap_powers_decay(self):
        powers = MultipathProfile(n_taps=10, rms_delay_spread_samples=2.0).tap_powers()
        assert np.all(np.diff(powers) < 0)

    def test_single_tap_profile(self):
        assert MultipathProfile(n_taps=1).tap_powers().tolist() == [1.0]

    def test_invalid_taps(self):
        with pytest.raises(ValueError):
            MultipathProfile(n_taps=0).tap_powers()

    def test_normalized_has_unit_power(self):
        rng = np.random.default_rng(0)
        channel = MultipathChannel.random(DEFAULT_PROFILE, rng).normalized()
        assert channel.average_power() == pytest.approx(1.0)

    def test_apply_is_convolution(self):
        channel = MultipathChannel(np.array([1.0, 0.5j]))
        out = channel.apply(np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(out, [1.0, 0.5j, 0.0])

    def test_flat_channel(self):
        channel = MultipathChannel.flat(2.0)
        assert channel.n_taps == 1
        assert np.allclose(channel.apply(np.ones(4)), 2.0 * np.ones(4))

    def test_frequency_response_magnitude_flat_for_single_tap(self):
        response = MultipathChannel.flat(1.5).frequency_response(64)
        assert np.allclose(np.abs(response), 1.5)

    def test_rms_delay_spread(self):
        channel = MultipathChannel(np.array([1.0, 1.0]))
        assert channel.rms_delay_spread_samples() == pytest.approx(0.5)

    def test_wiglan_profile_has_15_taps(self):
        assert WIGLAN_PROFILE.n_taps == 15

    def test_rejects_empty_taps(self):
        with pytest.raises(ValueError):
            MultipathChannel(np.array([]))


class TestAwgn:
    def test_noise_power(self):
        rng = np.random.default_rng(1)
        noise = awgn(20000, 0.5, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.5, rel=0.05)

    def test_db_conversions(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert linear_to_db(100.0) == pytest.approx(20.0)
        assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3)

    def test_noise_power_for_snr(self):
        assert noise_power_for_snr(2.0, 3.0) == pytest.approx(2.0 / db_to_linear(3.0))

    def test_add_noise_achieves_snr(self):
        rng = np.random.default_rng(2)
        signal = np.ones(20000, dtype=complex)
        noisy = add_noise_for_snr(signal, 10.0, rng)
        assert measure_snr_db(signal, noisy) == pytest.approx(10.0, abs=0.3)

    def test_zero_noise(self):
        assert np.all(awgn(10, 0.0, np.random.default_rng(6)) == 0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            awgn(10, -1.0)


class TestOscillator:
    def test_cfo_from_ppm(self):
        assert cfo_from_ppm(20.0, 5e9) == pytest.approx(100e3)

    def test_relative_cfo_antisymmetric(self):
        a = Oscillator(ppm=10.0)
        b = Oscillator(ppm=-5.0)
        assert a.cfo_to(b) == pytest.approx(-b.cfo_to(a))

    def test_random_within_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            osc = Oscillator.random(rng, max_ppm=20.0)
            assert abs(osc.ppm) <= 20.0

    def test_apply_cfo_continuity(self):
        samples = np.ones(100, dtype=complex)
        first = apply_cfo(samples[:50], 100e3, 20e6, start_sample=0)
        second = apply_cfo(samples[50:], 100e3, 20e6, start_sample=50)
        joined = apply_cfo(samples, 100e3, 20e6)
        assert np.allclose(np.concatenate([first, second]), joined)


class TestPropagation:
    def test_delay_seconds(self):
        assert propagation_delay_s(299.792458) == pytest.approx(1e-6)

    def test_delay_samples(self):
        assert propagation_delay_samples(299.792458, 20e6) == pytest.approx(20.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_s(-1.0)

    def test_path_loss_monotone_with_distance(self):
        model = PathLossModel(shadowing_sigma_db=0.0)
        assert model.snr_db(10.0, shadowing=False) > model.snr_db(50.0, shadowing=False)

    def test_fractional_delay_integer_matches_roll(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        delayed = fractional_delay(x, 3.0)
        assert np.allclose(delayed[3 : 3 + 64], x, atol=1e-9)
        assert np.allclose(delayed[:3], 0.0, atol=1e-9)

    def test_fractional_delay_half_sample_phase(self):
        # A half-sample delay of a pure tone rotates it by pi*f/fs.
        n = np.arange(256)
        tone = np.exp(2j * np.pi * 0.1 * n)
        delayed = fractional_delay(tone, 0.5)
        expected_phase = -2 * np.pi * 0.1 * 0.5
        measured = np.angle(delayed[100] / tone[100])
        assert measured == pytest.approx(expected_phase, abs=0.05)

    def test_fractional_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            fractional_delay(np.ones(8, dtype=complex), -0.5)


class TestLinkAndCombining:
    def test_link_for_snr_delivers_target_power(self):
        rng = np.random.default_rng(5)
        link = link_for_snr(10.0, noise_power=1.0, rng=rng)
        assert link.snr_db(1.0) == pytest.approx(10.0, abs=1e-6)

    def test_propagate_applies_delay(self):
        link = Link(channel=MultipathChannel.flat(1.0), delay_samples=5.0)
        waveform, start = propagate(link, np.ones(10, dtype=complex))
        assert start == 5.0

    def test_combine_superposes(self):
        link_a = Link(channel=MultipathChannel.flat(1.0))
        link_b = Link(channel=MultipathChannel.flat(1.0))
        wave = np.ones(20, dtype=complex)
        received = combine_at_receiver(
            [Transmission(link_a, wave, 0.0), Transmission(link_b, wave, 0.0)],
            noise_power=0.0,
        )
        assert np.allclose(received[:20], 2.0)

    def test_combine_respects_offsets(self):
        link = Link(channel=MultipathChannel.flat(1.0))
        wave = np.ones(10, dtype=complex)
        received = combine_at_receiver(
            [Transmission(link, wave, 0.0), Transmission(link, wave, 15.0)],
            noise_power=0.0,
        )
        assert np.allclose(received[:10], 1.0)
        assert np.allclose(received[10:15], 0.0)
        assert np.allclose(received[15:25], 1.0)

    def test_leading_silence(self):
        link = Link(channel=MultipathChannel.flat(1.0))
        received = combine_at_receiver(
            [Transmission(link, np.ones(5, dtype=complex), 0.0)],
            noise_power=0.0,
            leading_silence=7,
        )
        assert np.allclose(received[:7], 0.0)
        assert np.allclose(received[7:12], 1.0)

    def test_cfo_makes_senders_rotate_relative(self):
        # Two senders with different CFOs drift apart in phase over time, the
        # §5 phenomenon the Joint Channel Estimator must track.
        wave = np.ones(400, dtype=complex)
        link_a = Link(channel=MultipathChannel.flat(1.0), cfo_hz=0.0)
        link_b = Link(channel=MultipathChannel.flat(1.0), cfo_hz=50e3)
        received = combine_at_receiver(
            [Transmission(link_a, wave, 0.0), Transmission(link_b, wave, 0.0)],
            noise_power=0.0,
        )
        early = np.abs(received[5])
        late_min = np.min(np.abs(received[:400]))
        assert early > 1.9  # starts constructive
        assert late_min < 0.5  # rotates through a destructive point
