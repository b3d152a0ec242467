"""Tests for packet detection, fine timing, channel estimation and equalisation."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.channel.multipath import MultipathChannel
from repro.phy.detection import (
    detect_packet_autocorrelation,
    detect_packet_autocorrelation_batch,
    detect_packet_crosscorrelation,
    estimate_coarse_cfo,
    estimate_coarse_cfo_rows,
    fine_timing_ltf,
)
from repro.phy.equalizer import (
    equalize_symbol,
    estimate_channel_ltf,
    estimate_noise_from_ltf,
    track_pilot_phase,
)
from repro.phy.ofdm import assemble_symbols, symbols_to_samples
from repro.phy.params import DEFAULT_PARAMS as P
from repro.phy.preamble import long_training_sequence_freq, preamble
from repro.phy.transmitter import Transmitter


@pytest.fixture(scope="module")
def clean_frame():
    tx = Transmitter(P)
    payload = bytes(range(64))
    frame = tx.transmit(payload, 6.0)
    return frame


def _stream(frame, lead_silence=80, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    stream = np.concatenate(
        [np.zeros(lead_silence, complex), frame.samples, np.zeros(40, complex)]
    )
    return stream + awgn(stream.size, noise**2 * 2, rng)


class TestDetection:
    def test_autocorrelation_detects(self, clean_frame):
        result = detect_packet_autocorrelation(_stream(clean_frame), P)
        assert result.detected

    def test_autocorrelation_lags_true_start(self, clean_frame):
        result = detect_packet_autocorrelation(_stream(clean_frame), P)
        # The delay-and-correlate detector cannot fire before the packet and
        # fires within the STF (the detection-delay phenomenon of §4.2a).
        assert 80 <= result.detect_index <= 80 + 160

    def test_no_detection_on_noise(self):
        rng = np.random.default_rng(1)
        noise = awgn(600, 1.0, rng)
        assert not detect_packet_autocorrelation(noise, P).detected

    def test_crosscorrelation_finds_exact_start(self, clean_frame):
        result = detect_packet_crosscorrelation(_stream(clean_frame), P)
        assert result.detected
        assert abs(result.start_index - 80) <= 1

    def test_fine_timing_refines_coarse_estimate(self, clean_frame):
        stream = _stream(clean_frame)
        coarse = detect_packet_autocorrelation(stream, P)
        refined = fine_timing_ltf(stream, coarse.start_index, P)
        assert abs(refined - 80) <= 1

    def test_short_input(self):
        assert not detect_packet_autocorrelation(np.zeros(10, complex), P).detected
        assert not detect_packet_crosscorrelation(np.zeros(10, complex), P).detected

    def test_coarse_start_precedes_detection_instant(self, clean_frame):
        """Regression: ``start_index`` is the metric-run start, not the
        (lagging) declaration instant — it lands within a few samples of the
        true packet start, while ``detect_index`` keeps its documented lag."""
        result = detect_packet_autocorrelation(_stream(clean_frame), P)
        assert result.detected
        lag = P.n_fft // 4
        assert result.start_index <= result.detect_index - lag
        assert abs(result.start_index - 80) <= 6

    def test_failure_metric_is_best_observed(self):
        rng = np.random.default_rng(1)
        noise = awgn(600, 1.0, rng)
        result = detect_packet_autocorrelation(noise, P)
        assert not result.detected
        # The reported metric is the peak candidate value that still failed
        # the threshold-run criterion, so it is a meaningful "how close" score.
        assert 0.0 < result.metric

    def test_success_metric_is_run_peak(self, clean_frame):
        result = detect_packet_autocorrelation(_stream(clean_frame), P)
        assert result.detected
        assert result.metric > 0.6

    def test_batch_detection_matches_scalar(self, clean_frame):
        rng = np.random.default_rng(3)
        streams = []
        for lead in (40, 80, 120):
            stream = np.concatenate(
                [np.zeros(lead, complex), clean_frame.samples, np.zeros(40, complex)]
            )
            streams.append(stream + awgn(stream.size, 0.05, rng))
        streams.append(awgn(streams[0].size, 1.0, rng)[: len(streams[0])])
        max_len = max(s.size for s in streams)
        rows = np.zeros((len(streams), max_len), dtype=complex)
        for i, s in enumerate(streams):
            rows[i, : s.size] = s
        batch = detect_packet_autocorrelation_batch(rows, P)
        for row, stream in zip(batch, streams):
            # Zero padding to a common length cannot change the outcome.
            scalar = detect_packet_autocorrelation(
                np.concatenate([stream, np.zeros(max_len - stream.size, complex)]), P
            )
            assert row.detected == scalar.detected
            assert row.detect_index == scalar.detect_index
            assert row.start_index == scalar.start_index
            assert row.metric == pytest.approx(scalar.metric, rel=1e-12)


class TestCfoEstimation:
    @pytest.mark.parametrize("cfo", [-80e3, 30e3, 120e3])
    def test_estimates_cfo_from_stf(self, cfo):
        rng = np.random.default_rng(2)
        wave = preamble(P)
        n = np.arange(wave.size)
        rotated = wave * np.exp(2j * np.pi * cfo * n / P.bandwidth_hz)
        stream = np.concatenate([np.zeros(50, complex), rotated])
        stream += awgn(stream.size, 1e-4, rng)
        estimate = estimate_coarse_cfo(stream, 50, P)
        assert estimate == pytest.approx(cfo, abs=3e3)

    def test_raises_when_not_enough_samples(self):
        with pytest.raises(ValueError):
            estimate_coarse_cfo(np.zeros(60, complex), 50, P)


class TestChannelEstimation:
    def test_flat_channel_recovered(self):
        gain = 0.7 * np.exp(1j * 0.4)
        reference = long_training_sequence_freq(P)
        received = np.stack([reference * gain, reference * gain])
        estimate = estimate_channel_ltf(received, P)
        occupied = P.occupied_bins()
        assert np.allclose(estimate.on_bins(occupied), gain)

    def test_multipath_channel_recovered(self):
        rng = np.random.default_rng(3)
        channel = MultipathChannel.random(rng=rng).normalized()
        response = channel.frequency_response(P.n_fft)
        reference = long_training_sequence_freq(P)
        received = np.stack([reference * response] * 2)
        estimate = estimate_channel_ltf(received, P)
        occupied = P.occupied_bins()
        assert np.allclose(estimate.on_bins(occupied), response[occupied])

    def test_noise_estimate_scales(self):
        rng = np.random.default_rng(4)
        reference = long_training_sequence_freq(P)
        for noise_var in (0.01, 0.1):
            reps = np.stack([
                reference + awgn(P.n_fft, noise_var, rng),
                reference + awgn(P.n_fft, noise_var, rng),
            ])
            estimate = estimate_noise_from_ltf(reps, P)
            assert estimate == pytest.approx(noise_var, rel=0.6)

    def test_noise_estimate_needs_two_reps(self):
        with pytest.raises(ValueError):
            estimate_noise_from_ltf(long_training_sequence_freq(P)[None, :], P)


class TestEqualizer:
    def test_phase_tracking_recovers_rotation(self):
        rng = np.random.default_rng(5)
        data = (rng.normal(size=(1, 48)) + 1j * rng.normal(size=(1, 48))) / np.sqrt(2)
        freq = assemble_symbols(data, P)[0]
        channel = estimate_channel_ltf(np.stack([long_training_sequence_freq(P)] * 2), P)
        channel.noise_var = 1e-4
        rotated = freq * np.exp(1j * 0.3)
        phase = track_pilot_phase(rotated, channel, 0, P)
        assert phase == pytest.approx(0.3, abs=0.02)

    def test_equalize_flat_rotated_channel(self):
        rng = np.random.default_rng(6)
        data = (rng.normal(size=(1, 48)) + 1j * rng.normal(size=(1, 48))) / np.sqrt(2)
        freq = assemble_symbols(data, P)[0]
        gain = 0.5 * np.exp(1j * 1.1)
        reference = long_training_sequence_freq(P)
        channel = estimate_channel_ltf(np.stack([reference * gain] * 2), P)
        channel.noise_var = 1e-4
        symbols, noise = equalize_symbol(freq * gain, channel, 0, P)
        assert np.allclose(symbols, data[0], atol=1e-6)
        assert np.all(noise > 0)

    def test_snr_per_subcarrier(self):
        reference = long_training_sequence_freq(P)
        channel = estimate_channel_ltf(np.stack([reference * 2.0] * 2), P)
        channel.noise_var = 1.0
        snrs = channel.snr_per_subcarrier_db(P.occupied_bins())
        assert np.allclose(snrs, 10 * np.log10(4.0), atol=1e-6)


def _preamble_stack(n_rows=200, n_samples=1200, seed=0):
    """Noisy preambles with random starts and CFOs, one per row."""
    rng = np.random.default_rng(seed)
    training = preamble(P)
    rows = np.zeros((n_rows, n_samples), dtype=complex)
    starts = rng.integers(40, 200, n_rows)
    for row, start in zip(rows, starts):
        cfo = rng.uniform(-100e3, 100e3)
        ramp = np.exp(2j * np.pi * cfo * np.arange(training.size) * P.sample_period_s)
        row[start : start + training.size] = training * ramp
    rows += 0.05 * (rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape))
    return rows, starts


class TestGroupingInvariance:
    """A stack over 256 KiB gives each row the floats a stack of one gives it.

    On temporaries that large numpy may reuse an unnamed right operand as
    the output of a complex product, swapping its operands; and a mean whose
    inner memory axis is the stack axis sums in an order that depends on
    the stack size.  Either makes a batched receiver depend on how its
    frames are grouped.
    """

    def test_coarse_cfo_rows(self):
        rows, starts = _preamble_stack()
        lengths = np.full(rows.shape[0], rows.shape[1])
        mask = np.ones(rows.shape[0], dtype=bool)
        stacked = estimate_coarse_cfo_rows(rows, starts, lengths, mask, P)
        assert stacked.size * 128 * 16 > 1 << 18
        for i in range(rows.shape[0]):
            one = estimate_coarse_cfo_rows(
                rows[i : i + 1], starts[i : i + 1], lengths[i : i + 1], mask[i : i + 1], P
            )
            assert one.tobytes() == stacked[i : i + 1].tobytes()

    def test_autocorrelation_detection(self):
        rows, _ = _preamble_stack()
        assert rows.nbytes > 1 << 18
        stacked = detect_packet_autocorrelation_batch(rows, P)
        assert all(result.detected for result in stacked)
        for row, result in zip(rows, stacked):
            assert detect_packet_autocorrelation_batch(row[None], P) == [result]

    def test_noise_from_ltf(self):
        rows, _ = _preamble_stack()
        ltf = np.fft.fft(rows[:, : 2 * P.n_fft].reshape(-1, 2, P.n_fft), axis=-1)
        stacked = estimate_noise_from_ltf(ltf, P)
        for i, reps in enumerate(ltf):
            one = estimate_noise_from_ltf(ltf[i : i + 1], P)
            assert one.tobytes() == stacked[i : i + 1].tobytes()
            assert estimate_noise_from_ltf(reps, P) == stacked[i]
