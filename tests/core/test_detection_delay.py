"""Tests for the phase-slope detection-delay estimator (§4.2a)."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.channel.multipath import MultipathChannel
from repro.core.sync.detection_delay import (
    delay_samples_to_slope,
    phase_slope_full_band,
    phase_slope_windowed,
    slope_to_delay_samples,
)
from repro.phy.equalizer import ChannelEstimate, estimate_channel_ltf
from repro.phy.params import DEFAULT_PARAMS as P
from repro.phy.preamble import long_training_field, ltf_symbol
from tests.core.reference_blocks import estimate_detection_delay


def _channel_estimate_with_offset(offset: int, channel=None, noise=0.0, seed=0):
    """Channel estimate computed with the FFT window `offset` samples late."""
    rng = np.random.default_rng(seed)
    # Append one extra repetition so windows placed late (positive offsets)
    # still fall on identical training content, as they would in a longer
    # preamble-bearing frame.
    ltf = np.concatenate([long_training_field(P), ltf_symbol(P)])
    if channel is not None:
        shaped = channel.apply(ltf)[: ltf.size]
    else:
        shaped = ltf
    if noise > 0:
        shaped = shaped + awgn(shaped.size, noise, rng)
    reps = np.empty((2, P.n_fft), dtype=complex)
    base = 2 * P.cp_samples + offset
    for rep in range(2):
        reps[rep] = np.fft.fft(shaped[base + rep * P.n_fft : base + (rep + 1) * P.n_fft]) / np.sqrt(P.n_fft)
    return estimate_channel_ltf(reps, P)


class TestSlopeConversion:
    def test_roundtrip(self):
        for delay in (-3.0, 0.0, 1.5, 7.0):
            assert slope_to_delay_samples(delay_samples_to_slope(delay, P), P) == pytest.approx(delay)

    def test_eq1_constant(self):
        # Eq. 1: a delay of delta samples shifts subcarrier i by 2*pi*i*delta/Ns.
        assert delay_samples_to_slope(1.0, P) == pytest.approx(2 * np.pi / P.n_fft)


class TestWindowedEstimator:
    @pytest.mark.parametrize("offset", [0, 1, 3, 6, -2])
    def test_flat_channel_offsets(self, offset):
        estimate = estimate_detection_delay(_channel_estimate_with_offset(offset), P)
        assert estimate.delay_samples == pytest.approx(offset, abs=0.05)

    @pytest.mark.parametrize("offset", [0, 2, 5])
    def test_multipath_relative_offsets(self, offset):
        # With multipath the absolute estimate includes the channel's own
        # group delay, but the *difference* between two window placements of
        # the same channel equals the placement difference — the quantity
        # SourceSync actually uses for synchronization and tracking.
        rng = np.random.default_rng(1)
        channel = MultipathChannel.random(rng=rng).normalized()
        ref = estimate_detection_delay(_channel_estimate_with_offset(0, channel), P)
        shifted = estimate_detection_delay(_channel_estimate_with_offset(offset, channel), P)
        assert shifted.delay_samples - ref.delay_samples == pytest.approx(offset, abs=0.15)

    def test_noise_robustness(self):
        errors = []
        for seed in range(10):
            estimate = estimate_detection_delay(
                _channel_estimate_with_offset(4, noise=0.05, seed=seed), P
            )
            errors.append(abs(estimate.delay_samples - 4))
        assert np.percentile(errors, 95) < 0.5  # sub-sample accuracy (tens of ns)

    def test_window_count_positive(self):
        estimate = estimate_detection_delay(_channel_estimate_with_offset(0), P)
        assert estimate.n_windows >= 4

    def test_delay_ns_conversion(self):
        estimate = estimate_detection_delay(_channel_estimate_with_offset(2), P)
        assert estimate.delay_ns(P) == pytest.approx(2 * P.sample_period_ns, abs=5.0)

    def test_zero_channel_gives_zero(self):
        empty = ChannelEstimate(np.zeros(P.n_fft, dtype=complex))
        slope, n_windows = phase_slope_windowed(empty, P)
        assert slope == 0.0
        assert n_windows == 0


class TestWindowedVsFullBand:
    def test_both_estimators_track_relative_delays(self):
        # The §4.2 ablation: both the 3 MHz-windowed estimator (the paper's
        # choice, robust to limited coherence bandwidth) and the whole-band
        # fit must resolve a known relative delay to well under a sample on
        # these indoor channels.
        rng = np.random.default_rng(2)
        windowed_err, fullband_err = [], []
        for seed in range(12):
            channel = MultipathChannel.random(rng=rng).normalized()
            ref = _channel_estimate_with_offset(0, channel, noise=0.02, seed=seed)
            shifted = _channel_estimate_with_offset(5, channel, noise=0.02, seed=seed + 100)
            w = slope_to_delay_samples(
                phase_slope_windowed(shifted, P)[0] - phase_slope_windowed(ref, P)[0], P
            )
            f = slope_to_delay_samples(
                phase_slope_full_band(shifted, P) - phase_slope_full_band(ref, P), P
            )
            windowed_err.append(abs(w - 5))
            fullband_err.append(abs(f - 5))
        assert np.median(windowed_err) < 0.3
        assert np.median(fullband_err) < 0.3
