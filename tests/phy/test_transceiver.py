"""End-to-end tests of the single-sender transmit/receive chain."""

import numpy as np
import pytest

from repro.channel.awgn import add_noise_for_snr, awgn
from repro.channel.multipath import MultipathChannel
from repro.phy.rates import RATE_TABLE, best_rate_for_snr, rate_for_mbps
from repro.phy.receiver import Receiver
from repro.phy.transmitter import FrameConfig, Transmitter, encode_payload_to_symbols
from tests.core.reference_blocks import apply_cfo_correction


@pytest.fixture(scope="module")
def tx():
    return Transmitter()


@pytest.fixture(scope="module")
def rx():
    return Receiver()


def _send_through(frame, snr_db=28.0, channel=None, cfo_hz=0.0, seed=0, silence=70):
    rng = np.random.default_rng(seed)
    samples = frame.samples
    if channel is not None:
        samples = channel.apply(samples)
    if cfo_hz:
        n = np.arange(samples.size)
        samples = samples * np.exp(2j * np.pi * cfo_hz * n / 20e6)
    stream = np.concatenate([np.zeros(silence, complex), samples, np.zeros(50, complex)])
    signal_power = np.mean(np.abs(frame.samples) ** 2)
    return add_noise_for_snr(stream, snr_db, rng, signal_power=signal_power)


class TestFrameConfig:
    def test_rate_table_lookup(self):
        assert rate_for_mbps(12.0).modulation == "QPSK"
        with pytest.raises(ValueError):
            rate_for_mbps(13.0)

    def test_n_dbps_values(self):
        expected = {6.0: 24, 9.0: 36, 12.0: 48, 18.0: 72, 24.0: 96, 36.0: 144, 48.0: 192, 54.0: 216}
        for rate in RATE_TABLE:
            config = FrameConfig(rate=rate, n_payload_bytes=100)
            assert config.data_bits_per_symbol == expected[rate.mbps]

    def test_symbol_count_grows_with_payload(self):
        small = FrameConfig(rate=rate_for_mbps(6.0), n_payload_bytes=50)
        large = FrameConfig(rate=rate_for_mbps(6.0), n_payload_bytes=500)
        assert large.n_data_symbols > small.n_data_symbols

    def test_pad_bits_non_negative(self):
        for n in (1, 13, 99, 1460):
            config = FrameConfig(rate=rate_for_mbps(54.0), n_payload_bytes=n)
            assert config.n_pad_bits >= 0

    def test_airtime_positive(self):
        config = FrameConfig(rate=rate_for_mbps(12.0), n_payload_bytes=1460)
        assert config.airtime_us() > config.airtime_us(include_preamble=False) > 0

    def test_best_rate_for_snr(self):
        assert best_rate_for_snr(30.0).mbps == 54.0
        assert best_rate_for_snr(9.0).mbps == 12.0
        assert best_rate_for_snr(-5.0) is None

    def test_encode_rejects_wrong_length(self):
        config = FrameConfig(rate=rate_for_mbps(6.0), n_payload_bytes=10)
        with pytest.raises(ValueError):
            encode_payload_to_symbols(b"short", config)


class TestRoundTrip:
    @pytest.mark.parametrize("rate", [6.0, 12.0, 24.0, 54.0])
    def test_awgn_roundtrip(self, tx, rx, rate):
        payload = bytes(range(150)) * 1
        frame = tx.transmit(payload, rate)
        result = rx.receive(_send_through(frame, snr_db=30.0, seed=int(rate)), frame.config)
        assert result.success
        assert result.payload == payload

    def test_multipath_roundtrip(self, tx, rx):
        rng = np.random.default_rng(7)
        channel = MultipathChannel.random(rng=rng).normalized()
        payload = bytes(200)
        frame = tx.transmit(payload, 12.0)
        result = rx.receive(_send_through(frame, 25.0, channel=channel, seed=7), frame.config)
        assert result.success and result.payload == payload

    def test_cfo_roundtrip(self, tx, rx):
        payload = b"x" * 120
        frame = tx.transmit(payload, 12.0)
        result = rx.receive(_send_through(frame, 25.0, cfo_hz=90e3, seed=8), frame.config)
        assert result.success
        assert result.cfo_hz == pytest.approx(90e3, abs=5e3)

    def test_low_snr_fails_crc(self, tx, rx):
        payload = bytes(300)
        frame = tx.transmit(payload, 54.0)
        result = rx.receive(_send_through(frame, 3.0, seed=9), frame.config)
        assert not result.crc_ok

    def test_genie_timing(self, tx, rx):
        payload = bytes(80)
        frame = tx.transmit(payload, 6.0)
        stream = _send_through(frame, 30.0, seed=10, silence=70)
        result = rx.receive(stream, frame.config, start_index=70)
        assert result.success

    def test_missing_frame_not_detected(self, rx, tx):
        rng = np.random.default_rng(11)
        noise = awgn(2000, 1.0, rng)
        config = tx.make_config(bytes(100), 6.0)
        result = rx.receive(noise, config)
        assert not result.detected

    def test_truncated_frame_rejected(self, tx, rx):
        payload = bytes(100)
        frame = tx.transmit(payload, 6.0)
        stream = _send_through(frame, 30.0, seed=12)
        result = rx.receive(stream[: frame.n_samples // 2], frame.config)
        assert not result.success

    def test_snr_estimate_reasonable(self, tx, rx):
        payload = bytes(120)
        frame = tx.transmit(payload, 12.0)
        result = rx.receive(_send_through(frame, 20.0, seed=13), frame.config)
        assert result.success
        assert 14.0 < result.snr_db < 27.0

    def test_apply_cfo_correction_inverts_rotation(self):
        rng = np.random.default_rng(14)
        samples = rng.normal(size=256) + 1j * rng.normal(size=256)
        rotated = samples * np.exp(2j * np.pi * 50e3 * np.arange(256) / 20e6)
        corrected = apply_cfo_correction(rotated, 50e3, 1 / 20e6)
        assert np.allclose(corrected, samples)
