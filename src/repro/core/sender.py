"""Lead-sender and co-sender waveform construction (§4.4, Fig. 6).

Both sender roles produce baseband waveforms for the *same* payload at the
*same* rate; they differ in which sections of the joint frame they fill and
which space-time codeword they apply to the data symbols:

* the **lead sender** transmits the synchronization header (preamble +
  header symbol), stays silent through the SIFS and the co-sender training
  slots, and then transmits the codeword-0 data symbols;
* **co-sender i** is silent during the header and SIFS, transmits its own
  channel-estimation symbols in slot ``i``, stays silent through the other
  slots, and then transmits the codeword-``i+1`` data symbols, pre-rotated
  to cancel its measured carrier-frequency offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.channel_est.cfo import precorrect_cfo
from repro.core.channel_est.phase_tracking import pilot_scale_pattern
from repro.core.combining.stbc import SmartCombiner
from repro.core.config import SourceSyncConfig
from repro.core.frame import HEADER_SYMBOLS, JointFrameLayout, SyncHeader
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import assemble_symbols, symbols_to_samples
from repro.phy.params import OFDMParams
from repro.phy.preamble import long_training_field, preamble
from repro.phy.transmitter import FrameConfig, encode_payload_to_symbols

__all__ = [
    "header_symbol_bits",
    "header_waveforms_from_bits",
    "LeadSender",
    "CoSender",
    "build_data_section",
]


def header_symbol_bits(header: SyncHeader, n_bits: int) -> np.ndarray:
    """Deterministic BPSK bit pattern carrying the header fields.

    The bits are a keyed pseudo-random expansion of the header fields; both
    ends derive the same pattern, so the header symbol doubles as extra
    known training if needed.
    """
    key = (
        (header.lead_sender_id & 0xFFFF)
        ^ ((header.packet_id & 0xFFFF) << 16)
        ^ (int(header.is_joint_frame) << 32)
        ^ ((header.data_cp_samples & 0xFF) << 33)
        ^ ((header.n_cosenders & 0xF) << 41)
    )
    rng = np.random.default_rng(key)
    return rng.integers(0, 2, size=n_bits).astype(np.uint8)


def header_waveforms_from_bits(bits: np.ndarray, params: OFDMParams) -> np.ndarray:
    """Header waveforms (preamble plus header symbols) for stacked header bits.

    ``bits`` is ``(n_headers, HEADER_SYMBOLS * n_data_subcarriers)`` of
    :func:`header_symbol_bits` rows.  One BPSK mapping, subcarrier assembly
    and IFFT cover the batch; every stage is exact or row-independent, so
    each row equals its header's single waveform bit for bit.  Callers that
    must expand each header's keyed bits at a particular point of a draw
    sequence do so themselves and pass the rows here.
    """
    n_headers = bits.shape[0]
    symbols = get_modulation("BPSK").modulate(bits).reshape(
        n_headers, HEADER_SYMBOLS, params.n_data_subcarriers
    )
    freq = assemble_symbols(symbols, params, start_symbol_index=0)
    header_samples = symbols_to_samples(freq, params)
    pre = preamble(params)
    return np.concatenate([np.broadcast_to(pre, (n_headers, pre.size)), header_samples], axis=1)


def build_data_section(
    payload: bytes,
    frame_config: FrameConfig,
    combiner: SmartCombiner,
    codeword_index: int,
    sender_index: int,
    n_senders: int,
    layout: JointFrameLayout,
    sections: dict | None = None,
) -> np.ndarray:
    """Baseband samples of the data section for one sender.

    All senders derive the identical constellation-symbol block from the
    payload, apply their own space-time codeword, place pilots only on the
    symbols they own (§5) and use the CP announced in the header (§4.6).

    ``sections`` is an optional caller-scoped memo: a section is a pure
    function of the arguments, so one batch of frames can build each
    distinct section once.  Memoised arrays are read-only.
    """
    key = (payload, frame_config, combiner, codeword_index, sender_index, n_senders, layout)
    if sections is not None and key in sections:
        return sections[key]
    data_symbols = encode_payload_to_symbols(payload, frame_config)
    coded = combiner.encode(data_symbols, codeword_index)
    n_symbols = coded.shape[0]
    pilots = pilot_scale_pattern(n_symbols, sender_index, n_senders)
    freq = assemble_symbols(coded, layout.data_params, start_symbol_index=0, pilot_scale=pilots)
    samples = symbols_to_samples(freq, layout.data_params)
    if sections is not None:
        samples.flags.writeable = False
        sections[key] = samples
    return samples


@dataclass
class LeadSender:
    """Builds the lead sender's contribution to a joint frame."""

    config: SourceSyncConfig = SourceSyncConfig()
    node_id: int = 0

    def make_header(
        self,
        packet_id: int,
        rate_mbps: float,
        data_cp_samples: int,
        n_cosenders: int,
    ) -> SyncHeader:
        """Construct the synchronization header for a joint frame."""
        return SyncHeader(
            lead_sender_id=self.node_id,
            packet_id=packet_id,
            is_joint_frame=n_cosenders > 0,
            rate_mbps=rate_mbps,
            data_cp_samples=data_cp_samples,
            n_cosenders=n_cosenders,
        )

    def header_waveform(self, header: SyncHeader, layout: JointFrameLayout) -> np.ndarray:
        """Synchronization header waveform: preamble plus header symbol(s).

        Thin wrapper over :meth:`header_waveforms` with a batch of one.
        """
        return self.header_waveforms([header], layout)[0]

    def header_waveforms(
        self, headers: Sequence[SyncHeader], layout: JointFrameLayout
    ) -> np.ndarray:
        """Header waveforms of many frames, ``(n_headers, n_samples)``.

        Each header keeps its own keyed bit pattern; the BPSK mapping,
        subcarrier assembly and IFFT then run once for the whole batch.
        Only ``layout.params`` shapes the header, and every stage is exact
        or row-independent, so row ``i`` equals the single-header waveform
        of ``headers[i]`` bit for bit.  No session randomness is drawn.
        """
        params = layout.params
        n_bits = HEADER_SYMBOLS * params.n_data_subcarriers
        bits = np.stack([header_symbol_bits(header, n_bits) for header in headers])
        return header_waveforms_from_bits(bits, params)

    def build_waveform(
        self,
        payload: bytes,
        header_wave: np.ndarray,
        layout: JointFrameLayout,
        frame_config: FrameConfig,
        combiner: SmartCombiner | None = None,
        sections: dict | None = None,
    ) -> np.ndarray:
        """Full lead-sender waveform for one joint frame (Fig. 6a).

        ``header_wave`` is the frame's :meth:`header_waveform` (or its
        :func:`header_waveforms_from_bits` row), which callers already hold
        for scheduling.  ``sections`` is passed to :func:`build_data_section`.
        """
        combiner = combiner if combiner is not None else SmartCombiner(self.config.combiner_scheme)
        silence = np.zeros(
            layout.sifs_samples + layout.n_cosenders * layout.ltf_samples, dtype=np.complex128
        )
        n_senders = 1 + layout.n_cosenders if self.config.pilot_sharing else 1
        data = build_data_section(
            payload, frame_config, combiner, codeword_index=0,
            sender_index=0, n_senders=n_senders, layout=layout, sections=sections,
        )
        return np.concatenate([header_wave, silence, data])


@dataclass
class CoSender:
    """Builds a co-sender's contribution to a joint frame."""

    cosender_index: int
    config: SourceSyncConfig = SourceSyncConfig()
    node_id: int = 1
    cfo_precorrection_hz: float = 0.0

    def training_waveform(self, layout: JointFrameLayout, precorrect: bool = True) -> np.ndarray:
        """This co-sender's channel-estimation symbols (LTF format, §4.4).

        The CFO pre-correction (§5) is applied here as well, so the receiver
        estimates this sender's channel free of the bulk frequency offset.
        """
        waveform = long_training_field(layout.params)
        if precorrect and abs(self.cfo_precorrection_hz) > 0:
            waveform = precorrect_cfo(
                waveform, self.cfo_precorrection_hz, layout.params.bandwidth_hz
            )
        return waveform

    def build_waveform(
        self,
        payload: bytes,
        layout: JointFrameLayout,
        frame_config: FrameConfig,
        combiner: SmartCombiner | None = None,
        sections: dict | None = None,
    ) -> np.ndarray:
        """Full co-sender waveform, starting at its first transmitted sample (Fig. 6b).

        The waveform starts with this co-sender's training symbols; the gap
        until the data section covers the training slots of later co-senders.
        ``sections`` is passed to :func:`build_data_section`.
        """
        if not 0 <= self.cosender_index < layout.n_cosenders:
            raise ValueError("cosender_index is outside the layout's co-sender count")
        combiner = combiner if combiner is not None else SmartCombiner(self.config.combiner_scheme)
        training = self.training_waveform(layout, precorrect=False)
        remaining_slots = layout.n_cosenders - 1 - self.cosender_index
        silence = np.zeros(remaining_slots * layout.ltf_samples, dtype=np.complex128)
        n_senders = 1 + layout.n_cosenders if self.config.pilot_sharing else 1
        sender_index = self.cosender_index + 1 if self.config.pilot_sharing else 0
        data = build_data_section(
            payload, frame_config, combiner, codeword_index=self.cosender_index + 1,
            sender_index=sender_index, n_senders=n_senders, layout=layout, sections=sections,
        )
        waveform = np.concatenate([training, silence, data])
        if abs(self.cfo_precorrection_hz) > 0:
            waveform = precorrect_cfo(
                waveform, self.cfo_precorrection_hz, layout.params.bandwidth_hz
            )
        return waveform

    def transmit_offset_in_layout(self, layout: JointFrameLayout) -> int:
        """Nominal offset of this co-sender's first sample in the joint frame."""
        return layout.cosender_training_offset(self.cosender_index)
