"""Tests for the joint frame layout, sync header, and sender waveform builders."""

import numpy as np
import pytest

from repro.core.config import SourceSyncConfig
from repro.core.frame import HEADER_SYMBOLS, JointFrameLayout, SyncHeader, make_joint_frame_config
from repro.core.sender import CoSender, LeadSender, header_symbol_bits
from repro.phy.params import DEFAULT_PARAMS as P
from repro.phy.rates import rate_for_mbps


class TestSyncHeader:
    def test_packet_identifier_is_16_bits(self):
        for args in [(1, 2, 3), (10**6, 10**7, 55), (0, 0, 0)]:
            pid = SyncHeader.packet_identifier(*args)
            assert 0 <= pid <= 0xFFFF

    def test_packet_identifier_deterministic(self):
        assert SyncHeader.packet_identifier(1, 2, 3) == SyncHeader.packet_identifier(1, 2, 3)

    def test_packet_identifier_varies(self):
        pids = {SyncHeader.packet_identifier(1, 2, i) for i in range(50)}
        assert len(pids) > 40

    def test_header_bits_deterministic_and_sized(self):
        header = SyncHeader(1, 2, True, 6.0, 16, 1)
        bits_a = header_symbol_bits(header, 48)
        bits_b = header_symbol_bits(header, 48)
        assert np.array_equal(bits_a, bits_b)
        assert bits_a.size == 48

    def test_header_bits_differ_for_different_headers(self):
        a = header_symbol_bits(SyncHeader(1, 2, True, 6.0, 16, 1), 96)
        b = header_symbol_bits(SyncHeader(1, 3, True, 6.0, 16, 1), 96)
        assert not np.array_equal(a, b)


class TestJointFrameLayout:
    def test_section_lengths_default_params(self):
        layout = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=10)
        assert layout.stf_samples == 160
        assert layout.ltf_samples == 160
        assert layout.header_symbol_samples == HEADER_SYMBOLS * 80
        assert layout.sync_header_samples == 160 + 160 + 80
        assert layout.sifs_samples == 200

    def test_offsets_are_consistent(self):
        layout = JointFrameLayout(params=P, n_cosenders=3, n_data_symbols=5)
        assert layout.global_reference_offset == layout.sync_header_samples + layout.sifs_samples
        assert layout.cosender_training_offset(0) == layout.global_reference_offset
        assert layout.cosender_training_offset(2) == layout.global_reference_offset + 2 * 160
        assert layout.data_offset == layout.global_reference_offset + 3 * 160
        assert layout.total_samples == layout.data_offset + 5 * layout.data_symbol_samples

    def test_increased_cp_changes_data_section_only(self):
        normal = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=4)
        longer = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=4, data_cp_samples=24)
        assert longer.data_offset == normal.data_offset
        assert longer.data_symbol_samples == 64 + 24
        assert longer.total_samples > normal.total_samples

    def test_overhead_decreases_with_frame_length(self):
        short = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=10)
        long = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=1000)
        assert long.overhead_fraction() < short.overhead_fraction()

    def test_overhead_grows_with_cosenders(self):
        one = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=500)
        four = JointFrameLayout(params=P, n_cosenders=4, n_data_symbols=500)
        assert four.overhead_fraction() > one.overhead_fraction()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            JointFrameLayout(params=P, n_cosenders=-1, n_data_symbols=1)
        with pytest.raises(ValueError):
            JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=0)
        layout = JointFrameLayout(params=P, n_cosenders=1, n_data_symbols=1)
        with pytest.raises(ValueError):
            layout.cosender_training_offset(1)

    def test_make_joint_frame_config(self):
        config = make_joint_frame_config(100, 12.0, P, data_cp_samples=20)
        assert config.rate == rate_for_mbps(12.0)
        assert config.params.cp_samples == 20
        assert config.n_payload_bytes == 100


class TestSenderWaveforms:
    def _setup(self, n_cosenders=1, n_payload=40):
        config = SourceSyncConfig(params=P)
        lead = LeadSender(config=config, node_id=7)
        frame_config = make_joint_frame_config(n_payload, 6.0, P)
        # Pad the layout's symbol count to the space-time block size, as the
        # session does.
        n_symbols = frame_config.n_data_symbols + frame_config.n_data_symbols % 2
        layout = JointFrameLayout(params=P, n_cosenders=n_cosenders, n_data_symbols=n_symbols)
        header = lead.make_header(packet_id=9, rate_mbps=6.0, data_cp_samples=16, n_cosenders=n_cosenders)
        return config, lead, frame_config, layout, header

    def test_lead_waveform_length_matches_layout(self):
        config, lead, frame_config, layout, header = self._setup()
        waveform = lead.build_waveform(
            b"\x00" * 40, lead.header_waveform(header, layout), layout, frame_config
        )
        assert waveform.size == layout.total_samples

    def test_lead_silent_during_sifs_and_slots(self):
        config, lead, frame_config, layout, header = self._setup()
        waveform = lead.build_waveform(
            b"\x01" * 40, lead.header_waveform(header, layout), layout, frame_config
        )
        gap = waveform[layout.sync_header_samples : layout.data_offset]
        assert np.allclose(gap, 0.0)

    def test_cosender_waveform_structure(self):
        config, lead, frame_config, layout, header = self._setup(n_cosenders=2)
        co = CoSender(cosender_index=0, config=config, node_id=3)
        waveform = co.build_waveform(b"\x02" * 40, layout, frame_config)
        # training slot followed by one silent slot, then data
        assert waveform.size == layout.ltf_samples * 2 + layout.n_data_symbols * layout.data_symbol_samples
        silent_slot = waveform[layout.ltf_samples : 2 * layout.ltf_samples]
        assert np.allclose(silent_slot, 0.0)
        assert np.any(np.abs(waveform[: layout.ltf_samples]) > 0)

    def test_cosender_index_checked(self):
        config, lead, frame_config, layout, header = self._setup(n_cosenders=1)
        co = CoSender(cosender_index=1, config=config, node_id=3)
        with pytest.raises(ValueError):
            co.build_waveform(b"\x00" * 40, layout, frame_config)

    def test_cfo_precorrection_changes_waveform(self):
        config, lead, frame_config, layout, header = self._setup()
        plain = CoSender(cosender_index=0, config=config, node_id=3)
        corrected = CoSender(cosender_index=0, config=config, node_id=3, cfo_precorrection_hz=50e3)
        a = plain.build_waveform(b"\x03" * 40, layout, frame_config)
        b = corrected.build_waveform(b"\x03" * 40, layout, frame_config)
        assert not np.allclose(a, b)
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-9)  # pure rotation

    def test_header_waveform_starts_with_preamble(self):
        from repro.phy.preamble import preamble

        config, lead, frame_config, layout, header = self._setup()
        waveform = lead.header_waveform(header, layout)
        assert waveform.size == layout.sync_header_samples
        assert np.allclose(waveform[:320], preamble(P))

    def test_transmit_offset_in_layout(self):
        config, lead, frame_config, layout, header = self._setup(n_cosenders=2)
        co = CoSender(cosender_index=1, config=config, node_id=4)
        assert co.transmit_offset_in_layout(layout) == layout.cosender_training_offset(1)


class TestConfigValidation:
    def test_rejects_bad_backoff(self):
        with pytest.raises(ValueError):
            SourceSyncConfig(window_backoff_samples=16)

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            SourceSyncConfig(tracking_gain=0.0)

    def test_rejects_bad_sifs(self):
        with pytest.raises(ValueError):
            SourceSyncConfig(sifs_us=0.0)
