"""Per-frame reference orchestration of a :class:`SourceSyncSession`.

:mod:`repro.core.ensemble` is the only orchestrator in ``src/``: the
session's per-frame methods call it with a stack of one session.  This
module keeps the straightforward per-frame form of each exchange as an
independent oracle for it.  Every function takes the session as its first
argument, reads and updates the same session state (``_states``,
``_delays_measured``) and draws from the session's generator in the same
order, but runs one frame at a time through the scalar building blocks of
``reference_blocks.py``, which live beside it in ``tests/core/``:
:func:`measure_propagation_delay` and :func:`probe_leg` (which call
:func:`propagate`), :func:`measure_cfo` and :func:`combine_at_receiver`.
The receiver is the session's own (``measure_header``, and a
:class:`~repro.core.receiver.JointFrameDecoder` of one frame, whose
equalized symbols give the frame's EVM-implied SNR).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import evm_to_snr_db
from repro.channel.composite import Transmission
from repro.core.frame import JointFrameLayout, make_joint_frame_config
from repro.core.receiver import JointFrameDecoder
from repro.core.sender import CoSender
from repro.core.session import (
    HeaderExchangeOutcome,
    JointFrameOutcome,
    SourceSyncSession,
    SyncTrialResult,
)
from repro.core.sync.compensation import DelayBudget, compute_wait_time
from repro.core.sync.tracking import WaitTimeTracker
from repro.phy.transmitter import encode_payload_to_symbols
from tests.core.reference_blocks import (
    combine_at_receiver,
    measure_cfo,
    measure_propagation_delay,
    probe_leg,
)

LEADING_SILENCE = 60


def measure_delays(session: SourceSyncSession, use_true_delays: bool = False) -> None:
    """The probe/response measurement phase (§4.2c, §5), one co-sender at a time."""
    topo = session.topology
    cfg = session.config
    for i, state in enumerate(session._states):
        if use_true_delays:
            state.lead_to_cosender_samples = topo.links_lead_cosender[i].delay_samples
            state.lead_to_receiver_samples = topo.link_lead_rx.delay_samples
            state.cosender_to_receiver_samples = topo.links_cosender_rx[i].delay_samples
            state.cfo_to_lead_hz = -topo.links_lead_cosender[i].cfo_hz
        else:
            pairs = [
                (topo.links_lead_cosender[i], topo.links_cosender_lead[i],
                 topo.lead.frontend, topo.cosenders[i].frontend),
                (topo.link_lead_rx, topo.link_rx_lead,
                 topo.lead.frontend, topo.receiver.frontend),
                (topo.links_cosender_rx[i], topo.links_rx_cosender[i],
                 topo.cosenders[i].frontend, topo.receiver.frontend),
            ]
            lead_co, lead_rx, co_rx = (
                measure_propagation_delay(
                    forward, reverse, frontend_a, frontend_b, session.rng,
                    topo.noise_power, topo.params, n_probes=cfg.probe_count,
                )
                for forward, reverse, frontend_a, frontend_b in pairs
            )
            cfo = measure_cfo(topo.links_lead_cosender[i], session.rng, topo.noise_power, topo.params)
            state.lead_to_cosender_samples = (
                lead_co.one_way_delay_samples if lead_co.valid
                else topo.links_lead_cosender[i].delay_samples
            )
            state.lead_to_receiver_samples = (
                lead_rx.one_way_delay_samples if lead_rx.valid
                else topo.link_lead_rx.delay_samples
            )
            state.cosender_to_receiver_samples = (
                co_rx.one_way_delay_samples if co_rx.valid
                else topo.links_cosender_rx[i].delay_samples
            )
            state.cfo_to_lead_hz = -cfo.cfo_hz if cfo.valid else 0.0
        state.tracker = WaitTimeTracker(
            wait_time_samples=state.lead_to_receiver_samples - state.cosender_to_receiver_samples,
            gain=cfg.tracking_gain,
        )
    session._delays_measured = True


def _ensure_measured(session: SourceSyncSession) -> None:
    if not session._delays_measured:
        measure_delays(session)


def schedule_cosenders(
    session: SourceSyncSession,
    layout: JointFrameLayout,
    header_waveform: np.ndarray,
    compensate: bool = True,
) -> tuple[list[float], list[bool]]:
    """Each co-sender receives the header and computes its transmit start (§4.3)."""
    topo = session.topology
    sifs = float(layout.sifs_samples)
    header_len = float(layout.sync_header_samples)
    starts: list[float] = []
    feasible: list[bool] = []
    for i, state in enumerate(session._states):
        link = topo.links_lead_cosender[i]
        frontend = topo.cosenders[i].frontend
        leg = probe_leg(
            link, frontend, session.rng, topo.noise_power, topo.params, waveform=header_waveform
        )
        slot_offset = float(i * layout.ltf_samples)
        if not leg.detected:
            starts.append(float("nan"))
            feasible.append(False)
            continue
        arrival_done = link.delay_samples + leg.true_detection_delay + header_len
        if compensate:
            budget = DelayBudget(
                lead_to_cosender=state.lead_to_cosender_samples,
                detection_delay=leg.estimated_detection_delay,
                turnaround=frontend.measure_turnaround_samples(),
                lead_to_receiver=state.cosender_to_receiver_samples
                + state.tracker.wait_time_samples,
                cosender_to_receiver=state.cosender_to_receiver_samples,
            )
            schedule = compute_wait_time(budget, sifs, extra_slot_offset=slot_offset)
            start = (
                arrival_done
                + frontend.turnaround_samples
                + max(schedule.local_wait_after_detection, 0.0)
            )
            starts.append(float(start))
            feasible.append(bool(schedule.feasible))
        else:
            # The unsynchronized baseline starts its slot SIFS after it
            # finished receiving the header, with no compensation at all.
            start = (
                arrival_done
                + frontend.turnaround_samples
                + max(sifs + slot_offset - frontend.turnaround_samples, 0.0)
            )
            starts.append(float(start))
            feasible.append(True)
    return starts, feasible


def true_misalignments(
    session: SourceSyncSession, layout: JointFrameLayout, starts: list[float]
) -> tuple[float, ...]:
    """True data-section misalignment of each co-sender vs the lead sender."""
    topo = session.topology
    lead_data_arrival = layout.data_offset + topo.link_lead_rx.delay_samples
    out = []
    for i, start in enumerate(starts):
        if not np.isfinite(start):
            out.append(float("nan"))
            continue
        offset = (layout.n_cosenders - i) * layout.ltf_samples
        out.append(float(start + offset + topo.links_cosender_rx[i].delay_samples - lead_data_arrival))
    return tuple(out)


def _feed_back(session, report, starts, active):
    """Apply a misalignment report to the co-senders that transmitted, in order."""
    sent = [i for i in active if np.isfinite(starts[i])]
    for i, value in zip(sent, report.misalignments_samples):
        session._states[i].tracker.update(value)


def _header_layout(session: SourceSyncSession) -> JointFrameLayout:
    return JointFrameLayout(
        params=session.topology.params,
        n_cosenders=session.topology.n_cosenders,
        n_data_symbols=1,
        sifs_us=session.config.sifs_us,
    )


def _header_waveform(session, layout, rate_mbps=6.0):
    header = session.lead.make_header(
        packet_id=int(session.rng.integers(0, 1 << 16)),
        rate_mbps=rate_mbps,
        data_cp_samples=layout.effective_data_cp,
        n_cosenders=layout.n_cosenders,
    )
    return session.lead.header_waveform(header, layout)


def _cosender_waveform(session, i, layout, payload=None, frame_config=None):
    cosender = CoSender(
        cosender_index=i,
        config=session.config,
        node_id=session.topology.cosenders[i].node_id,
        cfo_precorrection_hz=session._states[i].cfo_to_lead_hz,
    )
    if payload is None:
        return cosender.training_waveform(layout)
    return cosender.build_waveform(payload, layout, frame_config)


def run_sync_trial(session: SourceSyncSession, compensate: bool = True) -> SyncTrialResult:
    """Synchronize once and report the true residual misalignment."""
    _ensure_measured(session)
    layout = _header_layout(session)
    starts, feasible = schedule_cosenders(session, layout, _header_waveform(session, layout), compensate)
    snr_db = session.topology.link_lead_rx.snr_db(session.topology.noise_power)
    return SyncTrialResult(true_misalignments(session, layout, starts), tuple(feasible), snr_db)


def run_header_exchange(
    session: SourceSyncSession,
    compensate: bool = True,
    apply_tracking_feedback: bool = True,
    genie_timing: bool = False,
) -> HeaderExchangeOutcome:
    """One header-only joint exchange, received and measured on its own."""
    _ensure_measured(session)
    topo = session.topology
    layout = _header_layout(session)
    header_waveform = _header_waveform(session, layout)
    starts, feasible = schedule_cosenders(session, layout, header_waveform, compensate)
    transmissions = [Transmission(link=topo.link_lead_rx, samples=header_waveform, start_sample=0.0)]
    transmissions.extend(
        Transmission(
            link=topo.links_cosender_rx[i],
            samples=_cosender_waveform(session, i, layout),
            start_sample=starts[i],
        )
        for i in range(topo.n_cosenders)
        if np.isfinite(starts[i])
    )
    total_needed = LEADING_SILENCE + int(np.ceil(topo.link_lead_rx.delay_samples)) + layout.data_offset + 40
    received = combine_at_receiver(
        transmissions,
        noise_power=topo.noise_power,
        rng=session.rng,
        leading_silence=LEADING_SILENCE,
        total_length=total_needed,
    )
    start_index = (
        LEADING_SILENCE + int(round(topo.link_lead_rx.delay_samples)) if genie_timing else None
    )
    channels, misalignment, _ = session.receiver.measure_header(
        received, layout, start_index=start_index
    )
    if apply_tracking_feedback and misalignment is not None:
        _feed_back(session, misalignment, starts, range(topo.n_cosenders))
    return HeaderExchangeOutcome(
        measured_misalignment=misalignment,
        true_misalignment_samples=true_misalignments(session, layout, starts),
        schedules_feasible=tuple(feasible),
        snr_db=topo.link_lead_rx.snr_db(topo.noise_power),
        channels=channels,
    )


def converge_tracking(session: SourceSyncSession, rounds: int = 4, compensate: bool = True) -> None:
    """A few header exchanges with feedback (§4.5)."""
    for _ in range(max(rounds, 0)):
        run_header_exchange(session, compensate=compensate, apply_tracking_feedback=True)


def _receive(session, received, layout, frame_config, start_index, payload):
    """Receive one frame on its own; return its result and EVM-implied SNR.

    The SNR is the EVM of the frame's equalized symbols against the
    payload's transmitted constellation, NaN when the frame was not
    equalized.
    """
    decoder = JointFrameDecoder(session.receiver)
    (symbols,) = decoder.add([(received, received.size, layout, frame_config, start_index)])
    (result,) = decoder.finish()
    if symbols is None:
        return result, float("nan")
    reference = encode_payload_to_symbols(payload, frame_config)
    n = min(reference.shape[0], symbols.shape[0])
    return result, evm_to_snr_db(symbols[:n], reference[:n])


def run_joint_frame(
    session: SourceSyncSession,
    payload: bytes,
    rate_mbps: float = 6.0,
    data_cp_samples: int | None = None,
    compensate: bool = True,
    active_cosenders: list[int] | None = None,
    apply_tracking_feedback: bool = True,
    genie_timing: bool = False,
) -> JointFrameOutcome:
    """One complete joint frame, combined and received on its own."""
    _ensure_measured(session)
    topo = session.topology
    active = list(range(topo.n_cosenders)) if active_cosenders is None else sorted(active_cosenders)
    frame_config = make_joint_frame_config(len(payload), rate_mbps, topo.params, data_cp_samples)
    block = session.combiner.block_symbols
    layout = JointFrameLayout(
        params=topo.params,
        n_cosenders=topo.n_cosenders,
        n_data_symbols=int(np.ceil(frame_config.n_data_symbols / block) * block),
        data_cp_samples=data_cp_samples,
        sifs_us=session.config.sifs_us,
    )
    header_waveform = _header_waveform(session, layout, rate_mbps)
    lead_waveform = session.lead.build_waveform(payload, header_waveform, layout, frame_config)
    starts, feasible = schedule_cosenders(session, layout, header_waveform, compensate)
    transmissions = [Transmission(link=topo.link_lead_rx, samples=lead_waveform, start_sample=0.0)]
    transmissions.extend(
        Transmission(
            link=topo.links_cosender_rx[i],
            samples=_cosender_waveform(session, i, layout, payload, frame_config),
            start_sample=starts[i],
        )
        for i in active
        if np.isfinite(starts[i])
    )
    received = combine_at_receiver(
        transmissions, noise_power=topo.noise_power, rng=session.rng, leading_silence=LEADING_SILENCE
    )
    start_index = (
        LEADING_SILENCE + int(round(topo.link_lead_rx.delay_samples)) if genie_timing else None
    )
    result, evm_snr_db = _receive(session, received, layout, frame_config, start_index, payload)
    if apply_tracking_feedback and result.misalignment is not None:
        _feed_back(session, result.misalignment, starts, active)
    return JointFrameOutcome(
        result=result,
        true_misalignment_samples=true_misalignments(session, layout, starts),
        schedules_feasible=tuple(feasible),
        layout=layout,
        frame_config=frame_config,
        evm_snr_db=evm_snr_db,
    )


def run_single_sender_frame(
    session: SourceSyncSession,
    payload: bytes,
    rate_mbps: float = 6.0,
    genie_timing: bool = False,
) -> JointFrameOutcome:
    """The same payload from the lead sender alone, combined and received on its own."""
    _ensure_measured(session)
    topo = session.topology
    frame_config = make_joint_frame_config(len(payload), rate_mbps, topo.params, None)
    block = session.combiner.block_symbols
    layout = JointFrameLayout(
        params=topo.params,
        n_cosenders=0,
        n_data_symbols=int(np.ceil(frame_config.n_data_symbols / block) * block),
        sifs_us=session.config.sifs_us,
    )
    header = session.lead.make_header(
        packet_id=int(session.rng.integers(0, 1 << 16)),
        rate_mbps=rate_mbps,
        data_cp_samples=layout.effective_data_cp,
        n_cosenders=0,
    )
    link = topo.link_lead_rx
    waveform = session.lead.build_waveform(
        payload, session.lead.header_waveform(header, layout), layout, frame_config
    )
    received = combine_at_receiver(
        [Transmission(link=link, samples=waveform, start_sample=0.0)],
        noise_power=topo.noise_power,
        rng=session.rng,
        leading_silence=LEADING_SILENCE,
    )
    start_index = LEADING_SILENCE + int(round(link.delay_samples)) if genie_timing else None
    result, evm_snr_db = _receive(session, received, layout, frame_config, start_index, payload)
    return JointFrameOutcome(
        result=result,
        true_misalignment_samples=(),
        schedules_feasible=(),
        layout=layout,
        frame_config=frame_config,
        evm_snr_db=evm_snr_db,
    )
