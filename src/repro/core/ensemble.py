"""Lockstep ensemble execution of joint-frame exchanges (the batched core path).

The sender-diversity experiments (Figs. 12, 13, 15) are Monte-Carlo loops
over *independent* :class:`~repro.core.session.SourceSyncSession` trials —
independent topologies, independent RNG streams — whose per-trial work is a
long chain of small waveform operations: probe receptions, header
exchanges, joint frames.  Running each trial to completion one after the
other spends most of its wall-clock on Python call overhead rather than
array math.

This module advances many sessions *in lockstep* instead: every stage of an
exchange (probe noise, packet detection, CFO estimation, LTF channel
estimation, phase-slope fitting, header measurement, data decoding) is
executed for the whole ensemble as stacked array operations, mirroring how
line-rate packet processors batch per-packet control flow into per-ensemble
data flow.

Determinism contract
--------------------
Every RNG draw is made from the owning session's generator in exactly the
order a lone session would make it: stages that consume randomness are
looped per session (draws are cheap), stages that only compute are batched
(compute is where the time goes).  Each exchange draws, per session, its
packet id, then each co-sender's header-probe noise and detection latency,
then the receiver's noise, so no stage needs to draw ahead or rewind.  The
per-frame :class:`~repro.core.session.SourceSyncSession` methods are these
functions called with a stack of one session.  Detection and CRC decisions,
decoded bits and generator states do not depend on how sessions are
grouped; floats can still differ in the last ulp between an ensemble of N
and N ensembles of one, because the phase-slope fit of the probe stage
(``phase_slope_windowed_batch``) rounds differently on different stack
shapes.  ``tests/engine/test_joint_batch.py`` checks both properties and
compares every entry point with the per-frame reference orchestration in
``tests/core/reference_session.py``.

Entry points
------------
* :func:`measure_delays_batch` — the probe/response measurement phase of
  §4.2c for an ensemble of sessions;
* :func:`converge_tracking_batch` — the §4.5 wait-time convergence loop in
  lockstep;
* :func:`run_header_exchanges_batch` — one header-only joint exchange per
  session (the Fig. 12 measurement primitive and the §4.5 tracking step);
  a caller that repeats exchanges calls it once per repetition, so the
  received rows alive at once are bounded by the ensemble, not by the
  repetition count;
* :func:`run_sync_trials_batch` — one schedule-only synchronization trial
  per session;
* :func:`run_joint_frames_batch` — full joint frames; each wave's receive
  front end (acquisition through depunctured LLRs) and each frame's EVM
  run as the wave lands, and the Viterbi decodes the LLR rows of each
  coded length one chunk at a time as the waves fill it (the Fig. 13
  core).

Usage
-----
Sessions are built as for the per-frame API — each with its own
generator — and handed to the batch entry points as a list; results come
back per session, in order::

    sessions = [SourceSyncSession(topo, config, rng=rng)
                for topo, rng in zip(topologies, rngs)]
    measure_delays_batch(sessions)                  # probe phase, all at once
    converge_tracking_batch(sessions, rounds=4)     # §4.5 warm-up in lockstep
    headers = run_header_exchanges_batch(sessions)  # one exchange per session
    # call again for another repetition
    jobs = [[JointFrameJob(payload, rate_mbps=6.0, data_cp_samples=cp)
             for cp in cp_sweep] for _ in sessions]
    outcomes = run_joint_frames_batch(sessions, jobs)
    # outcomes[s][r]: frame r of session s, without tracking feedback

Heterogeneous ensembles are fine: ``jobs_per_session`` rows may have
different lengths (sessions simply drop out of later waves), which is how
Fig. 13 decodes several topologies per measurement chain in one ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import evm_to_snr_db
from repro.channel.awgn import awgn
from repro.channel.composite import (
    Link,
    Transmission,
    combine_ensemble_at_receiver,
    propagate_rows,
)
from repro.core.frame import HEADER_SYMBOLS, JointFrameLayout, make_joint_frame_config
from repro.engine import Lane, LockstepScheduler
from repro.core.receiver import JointFrameDecoder
from repro.core.sender import CoSender, header_symbol_bits, header_waveforms_from_bits
from repro.core.session import (
    HeaderExchangeOutcome,
    JointFrameOutcome,
    SourceSyncSession,
    SyncTrialResult,
)
from repro.core.sync.compensation import DelayBudget, compute_wait_time
from repro.core.sync.detection_delay import phase_slope_windowed_batch
from repro.core.sync.probe import ProbeLegResult, _acquisition_backoff, probe_waveform
from repro.core.sync.tracking import MisalignmentReport, WaitTimeTracker
from repro.phy.detection import (
    detect_packet_autocorrelation_batch,
    estimate_coarse_cfo_rows,
)
from repro.phy.equalizer import estimate_channel_ltf
from repro.phy.params import OFDMParams
from repro.phy.preamble import preamble
from repro.phy.transmitter import FrameConfig, encode_payload_to_symbols

__all__ = [
    "measure_delays_batch",
    "converge_tracking_batch",
    "run_header_exchanges_batch",
    "run_sync_trials_batch",
    "run_joint_frames_batch",
    "JointFrameJob",
]


# ----------------------------------------------------------------------
# Batched probe-leg primitive
# ----------------------------------------------------------------------
@dataclass
class _LegJob:
    """One probe reception to execute inside a lockstep sub-wave.

    All jobs of one sub-wave must draw from *distinct* generators so that
    batching them cannot reorder any generator's stream.
    """

    link: Link
    rng: np.random.Generator
    noise_power: float
    params: OFDMParams
    waveform: np.ndarray
    frontend: object | None = None  #: RadioFrontend, or None to skip the latency draw
    leading_silence: int = 80
    tail: int = 40
    length: int = 0  #: received-stream length, filled by _propagate_and_noise


def _propagate_and_noise(jobs: list[_LegJob]) -> np.ndarray:
    """Propagate every job's waveform and add its noise, padded to one array.

    The noise draws happen job by job in input order, each from the job's
    own generator, as a lone probe reception would draw them.  The padded
    ``(n_jobs, max_len)`` array is what the batched detection and
    estimation stages consume; zero padding carries no energy and cannot
    change a row's detection outcome.
    """
    propagated = propagate_rows(
        [job.link for job in jobs], np.stack([job.waveform for job in jobs])
    )
    contributions = []
    for job, (contribution, integer_start) in zip(jobs, propagated):
        offset = job.leading_silence + int(integer_start)
        job.length = offset + contribution.size + job.tail
        contributions.append((offset, contribution))
    max_len = max(job.length for job in jobs)
    rows = np.zeros((len(jobs), max_len), dtype=np.complex128)
    for row, (job, (offset, contribution)) in enumerate(zip(jobs, contributions)):
        rows[row, offset : offset + contribution.size] += contribution
        rows[row, : job.length] += awgn(job.length, job.noise_power, job.rng)
    return rows


def _ltf_windows(
    rows: np.ndarray,
    window_starts: np.ndarray,
    cfo_hz: np.ndarray,
    params: OFDMParams,
) -> np.ndarray:
    """Gather, CFO-correct and FFT the two LTF windows of every row.

    Returns frequency-domain symbols of shape ``(n_rows, 2, n_fft)``.  The
    CFO correction multiplies by the rotation at each sample's *absolute*
    row index, matching a sequential whole-stream correction followed by
    window extraction.
    """
    n = window_starts[:, None] + np.arange(2 * params.n_fft)[None, :]
    chunks = rows[np.arange(rows.shape[0])[:, None], n]
    rotation = np.exp(-2j * np.pi * cfo_hz[:, None] * n * params.sample_period_s)
    corrected = chunks * rotation
    reps = corrected.reshape(rows.shape[0], 2, params.n_fft)
    return np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft)


def _probe_legs_lockstep(jobs: list[_LegJob]) -> list[ProbeLegResult]:
    """Execute one sub-wave of probe receptions with batched computation.

    The RNG contract of the module docstring holds: per job, the noise draw
    precedes the (conditional) front-end latency draw, and jobs never share
    a generator within one call.
    """
    if not jobs:
        return []
    params = jobs[0].params
    rows = _propagate_and_noise(jobs)
    detections = detect_packet_autocorrelation_batch(rows, params)

    snr_db = np.array([job.link.snr_db(job.noise_power) for job in jobs])
    detect_instants = np.zeros(len(jobs))
    for row, (job, detection) in enumerate(zip(jobs, detections)):
        if detection.detected and job.frontend is not None:
            extra = job.frontend.detection_delay_samples(snr_db[row], job.rng)
            detect_instants[row] = detection.detect_index + extra

    lengths = np.array([job.length for job in jobs], dtype=np.int64)
    detected = np.array([d.detected for d in detections])
    start_indices = np.array([d.start_index for d in detections], dtype=np.int64)
    cfo_hz = estimate_coarse_cfo_rows(rows, np.maximum(start_indices, 0), lengths, detected, params)

    backoff = _acquisition_backoff(params)
    stf_len = (params.n_fft // 4) * 10
    assumed_starts = np.round(detect_instants).astype(np.int64)
    ltf_starts = assumed_starts + stf_len + 2 * params.cp_samples - backoff
    fits = detected & (ltf_starts + 2 * params.n_fft <= lengths) & (ltf_starts >= 0)

    true_delays = np.array(
        [
            detect_instants[row] - (job.leading_silence + job.link.delay_samples)
            for row, job in enumerate(jobs)
        ]
    )
    rows_idx = np.nonzero(fits)[0]
    estimated = np.zeros(len(jobs))
    if rows_idx.size:
        ltf_syms = _ltf_windows(
            rows[rows_idx], ltf_starts[rows_idx], cfo_hz[rows_idx], params
        )
        responses = estimate_channel_ltf(ltf_syms, params).response
        slopes, _ = phase_slope_windowed_batch(responses, params)
        delays = slopes * params.n_fft / (2.0 * np.pi)
        estimated[rows_idx] = (
            delays
            + backoff
            + (detect_instants[rows_idx] - assumed_starts[rows_idx])
        )
    results = []
    for row in range(len(jobs)):
        if not detected[row]:
            results.append(ProbeLegResult(False, 0.0, 0.0, float(snr_db[row])))
        elif not fits[row]:
            results.append(ProbeLegResult(False, float(true_delays[row]), 0.0, float(snr_db[row])))
        else:
            results.append(
                ProbeLegResult(
                    True, float(true_delays[row]), float(estimated[row]), float(snr_db[row])
                )
            )
    return results


def _cfo_probes_lockstep(jobs: list[_LegJob]) -> list[float | None]:
    """One lockstep wave of CFO probes (no front-end draw, no slope estimate).

    Returns one CFO estimate per job from the short-training-field
    autocorrelation, or ``None`` where the probe was not detected or the
    estimation window did not fit; the caller averages the estimates that
    are left.
    """
    if not jobs:
        return []
    params = jobs[0].params
    rows = _propagate_and_noise(jobs)
    detections = detect_packet_autocorrelation_batch(rows, params)
    lengths = np.array([job.length for job in jobs], dtype=np.int64)
    detected = np.array([d.detected for d in detections])
    starts = np.array([max(d.start_index, 0) for d in detections], dtype=np.int64)
    lag = params.n_fft // 4
    usable = detected & (starts + lag * 8 + lag <= lengths)
    cfo = estimate_coarse_cfo_rows(rows, starts, lengths, detected, params)
    return [float(cfo[row]) if usable[row] else None for row in range(len(jobs))]


# ----------------------------------------------------------------------
# Measurement phase (§4.2c, §5) in lockstep
# ----------------------------------------------------------------------
def _check_common_structure(sessions: list[SourceSyncSession]) -> None:
    if not sessions:
        raise ValueError("need at least one session")
    reference = sessions[0].topology
    ref_config = sessions[0].config
    for session in sessions[1:]:
        topo = session.topology
        if topo.params is not reference.params and topo.params != reference.params:
            raise ValueError("lockstep sessions must share OFDM parameters")
        if topo.n_cosenders != reference.n_cosenders:
            raise ValueError("lockstep sessions must have the same co-sender count")
        # The lanes share one frame layout and one receiver configuration,
        # so every config knob that shapes them must agree.
        if session.config != ref_config:
            raise ValueError("lockstep sessions must share SourceSyncConfig")


def measure_delays_batch(
    sessions: list[SourceSyncSession], use_true_delays: bool = False
) -> None:
    """Run the probe/response measurement phase for an ensemble of sessions.

    Probe legs at the same position of every session's measurement
    sequence are detected and estimated as one batch, while each session's
    generator is consumed in exactly its own order.  ``use_true_delays``
    bypasses the waveform-level probes and loads the true delays and CFOs
    instead; tests and baselines use it where measurement noise is not the
    quantity under study.
    """
    _check_common_structure(sessions)
    if use_true_delays:
        for session in sessions:
            topo = session.topology
            for i in range(topo.n_cosenders):
                # The link's cfo_hz is f_lead - f_co (what the co-sender
                # observes when listening to the lead); the pre-correction
                # value is the co-sender's offset relative to the lead.
                _load_measurements(
                    session,
                    i,
                    topo.links_lead_cosender[i].delay_samples,
                    topo.link_lead_rx.delay_samples,
                    topo.links_cosender_rx[i].delay_samples,
                    -topo.links_lead_cosender[i].cfo_hz,
                )
            session._delays_measured = True
        return

    n_probes = {session.config.probe_count for session in sessions}
    if len(n_probes) != 1:
        raise ValueError("lockstep sessions must share probe_count")
    n_probes = n_probes.pop()
    n_cosenders = sessions[0].topology.n_cosenders

    for i in range(n_cosenders):
        pair_specs = [
            # (forward link, reverse link, responder frontend, initiator frontend)
            lambda topo, i=i: (
                topo.links_lead_cosender[i],
                topo.links_cosender_lead[i],
                topo.cosenders[i].frontend,
                topo.lead.frontend,
            ),
            lambda topo: (
                topo.link_lead_rx,
                topo.link_rx_lead,
                topo.receiver.frontend,
                topo.lead.frontend,
            ),
            lambda topo, i=i: (
                topo.links_cosender_rx[i],
                topo.links_rx_cosender[i],
                topo.receiver.frontend,
                topo.cosenders[i].frontend,
            ),
        ]
        # Per pair, each session's one-way delay: the mean over its probe
        # exchanges where both legs were detected, else None (Eq. 2).
        measurements: list[list[float | None]] = []
        for spec in pair_specs:
            estimates_per_session: list[list[float]] = [[] for _ in sessions]
            for _ in range(n_probes):
                fwd_jobs = []
                for session in sessions:
                    forward, _, responder, _ = spec(session.topology)
                    fwd_jobs.append(
                        _LegJob(
                            link=forward,
                            rng=session.rng,
                            noise_power=session.topology.noise_power,
                            params=session.topology.params,
                            waveform=probe_waveform(session.topology.params),
                            frontend=responder,
                        )
                    )
                fwd = _probe_legs_lockstep(fwd_jobs)
                rev_jobs = []
                for session in sessions:
                    _, reverse, _, initiator = spec(session.topology)
                    rev_jobs.append(
                        _LegJob(
                            link=reverse,
                            rng=session.rng,
                            noise_power=session.topology.noise_power,
                            params=session.topology.params,
                            waveform=probe_waveform(session.topology.params),
                            frontend=initiator,
                        )
                    )
                rev = _probe_legs_lockstep(rev_jobs)
                for s, session in enumerate(sessions):
                    forward, reverse, _, _ = spec(session.topology)
                    if not (fwd[s].detected and rev[s].detected):
                        continue
                    round_trip_minus_known = (
                        forward.delay_samples
                        + fwd[s].true_detection_delay
                        + reverse.delay_samples
                        + rev[s].true_detection_delay
                    )
                    two_way = (
                        round_trip_minus_known
                        - fwd[s].estimated_detection_delay
                        - rev[s].estimated_detection_delay
                    )
                    estimates_per_session[s].append(two_way / 2.0)
            measurements.append(
                [float(np.mean(estimates)) if estimates else None for estimates in estimates_per_session]
            )

        # CFO probes: four waves, averaged over the detected ones (§5).
        cfo_estimates: list[list[float]] = [[] for _ in sessions]
        for _ in range(4):
            jobs = [
                _LegJob(
                    link=session.topology.links_lead_cosender[i],
                    rng=session.rng,
                    noise_power=session.topology.noise_power,
                    params=session.topology.params,
                    waveform=preamble(session.topology.params),
                    frontend=None,
                    leading_silence=60,
                    tail=20,
                )
                for session in sessions
            ]
            for s, estimate in enumerate(_cfo_probes_lockstep(jobs)):
                if estimate is not None:
                    cfo_estimates[s].append(estimate)

        lead_co, lead_rx, co_rx = measurements
        for s, session in enumerate(sessions):
            # A pair whose probes all failed falls back to its true delay.
            topo = session.topology
            _load_measurements(
                session,
                i,
                topo.links_lead_cosender[i].delay_samples if lead_co[s] is None else lead_co[s],
                topo.link_lead_rx.delay_samples if lead_rx[s] is None else lead_rx[s],
                topo.links_cosender_rx[i].delay_samples if co_rx[s] is None else co_rx[s],
                -float(np.mean(cfo_estimates[s])) if cfo_estimates[s] else 0.0,
            )
    for session in sessions:
        session._delays_measured = True


def _load_measurements(
    session: SourceSyncSession,
    i: int,
    lead_to_cosender: float,
    lead_to_receiver: float,
    cosender_to_receiver: float,
    cfo_to_lead_hz: float,
) -> None:
    """Store co-sender ``i``'s measured delays and CFO and reset its tracker."""
    state = session._states[i]
    state.lead_to_cosender_samples = lead_to_cosender
    state.lead_to_receiver_samples = lead_to_receiver
    state.cosender_to_receiver_samples = cosender_to_receiver
    state.cfo_to_lead_hz = cfo_to_lead_hz
    state.tracker = WaitTimeTracker(
        wait_time_samples=lead_to_receiver - cosender_to_receiver,
        gain=session.config.tracking_gain,
    )


def _ensure_measured(sessions: list[SourceSyncSession]) -> None:
    """Run the probe phase for every session that has not measured yet."""
    pending = [session for session in sessions if not session._delays_measured]
    if pending:
        measure_delays_batch(pending)


def _padded_symbol_count(session: SourceSyncSession, frame_config: FrameConfig) -> int:
    """Data-symbol count rounded up to the space-time block size."""
    block = session.combiner.block_symbols
    n = frame_config.n_data_symbols
    return int(np.ceil(n / block) * block)


def _true_misalignments(
    session: SourceSyncSession, layout: JointFrameLayout, starts: list[float]
) -> tuple[float, ...]:
    """True data-section misalignment of each co-sender vs the lead sender.

    ``nan`` marks a co-sender that missed the header and stayed silent.
    """
    topo = session.topology
    lead_data_arrival = layout.data_offset + topo.link_lead_rx.delay_samples
    out = []
    for i, start in enumerate(starts):
        if not np.isfinite(start):
            out.append(float("nan"))
            continue
        data_offset_in_waveform = (layout.n_cosenders - i) * layout.ltf_samples
        arrival = start + data_offset_in_waveform + topo.links_cosender_rx[i].delay_samples
        out.append(float(arrival - lead_data_arrival))
    return tuple(out)


def _apply_tracking_feedback(
    session: SourceSyncSession,
    report: MisalignmentReport,
    true_misalignment: tuple[float, ...],
    active: tuple[int, ...] | None = None,
) -> None:
    """Feed a receiver's misalignment report back into the wait-time trackers (§4.5).

    The report lists one misalignment per co-sender the receiver heard, in
    slot order; they are matched, in order, to the ``active`` co-senders
    (default: all) that heard the header and transmitted.
    """
    sent = [
        i
        for i, misalignment in enumerate(true_misalignment)
        if np.isfinite(misalignment) and (active is None or i in active)
    ]
    for i, value in zip(sent, report.misalignments_samples):
        session._states[i].tracker.update(value)


# ----------------------------------------------------------------------
# Lockstep scheduling (the §4.3 wait-time computation per exchange)
# ----------------------------------------------------------------------
def _schedule_lockstep(
    lanes: list[tuple[SourceSyncSession, JointFrameLayout, np.ndarray]],
    compensate: bool | list[bool],
) -> tuple[list[list[float]], list[list[bool]]]:
    """Each co-sender's header reception and transmit start (§4.3), over lanes.

    Returns (absolute transmit start per co-sender in samples, feasibility
    flags) per lane.  ``lanes`` holds ``(session, layout, header_waveform)``
    triples; each session must appear at most once (distinct generators per
    sub-wave).  Probe legs are processed one co-sender index at a time so
    that, within every lane, the noise draw of co-sender ``i+1`` follows the
    front-end draw of co-sender ``i``.
    """
    n_cosenders = lanes[0][0].topology.n_cosenders
    compensate_flags = (
        [compensate] * len(lanes) if isinstance(compensate, bool) else list(compensate)
    )
    starts: list[list[float]] = [[] for _ in lanes]
    feasible: list[list[bool]] = [[] for _ in lanes]
    for i in range(n_cosenders):
        jobs = [
            _LegJob(
                link=session.topology.links_lead_cosender[i],
                rng=session.rng,
                noise_power=session.topology.noise_power,
                params=session.topology.params,
                waveform=header_waveform,
                frontend=session.topology.cosenders[i].frontend,
            )
            for session, layout, header_waveform in lanes
        ]
        legs = _probe_legs_lockstep(jobs)
        for lane, (session, layout, _) in enumerate(lanes):
            start, lane_feasible = _schedule_from_leg(
                session, layout, i, legs[lane], compensate_flags[lane]
            )
            starts[lane].append(start)
            feasible[lane].append(lane_feasible)
    return starts, feasible


def _schedule_from_leg(
    session: SourceSyncSession,
    layout: JointFrameLayout,
    i: int,
    leg: ProbeLegResult,
    compensate: bool,
) -> tuple[float, bool]:
    """Co-sender ``i``'s transmit start from its header-reception leg (§4.3)."""
    state = session._states[i]
    frontend = session.topology.cosenders[i].frontend
    link = session.topology.links_lead_cosender[i]
    sifs = float(layout.sifs_samples)
    header_len = float(layout.sync_header_samples)
    slot_offset = float(i * layout.ltf_samples)
    if not leg.detected:
        return float("nan"), False
    est_detect_delay = leg.estimated_detection_delay if compensate else 0.0
    wait_time = (
        state.tracker.wait_time_samples
        if (state.tracker is not None and compensate)
        else 0.0
    )
    if compensate:
        # The tracker's wait time equals T0_hat - t_i_hat plus any
        # ACK-feedback corrections (§4.5), so it plays the role of w_i in
        # the §4.3 schedule.
        budget = DelayBudget(
            lead_to_cosender=state.lead_to_cosender_samples,
            detection_delay=est_detect_delay,
            turnaround=frontend.measure_turnaround_samples(),
            lead_to_receiver=state.cosender_to_receiver_samples + wait_time,
            cosender_to_receiver=state.cosender_to_receiver_samples,
        )
        schedule = compute_wait_time(budget, sifs, extra_slot_offset=slot_offset)
        local_wait = schedule.local_wait_after_detection
        schedule_feasible = schedule.feasible
        actual_start = (
            link.delay_samples
            + leg.true_detection_delay
            + header_len
            + frontend.turnaround_samples
            + max(local_wait, 0.0)
        )
    else:
        # Baseline: the co-sender starts its slot SIFS after it finished
        # receiving the header, with no compensation at all.
        target_offset = sifs + slot_offset
        schedule_feasible = True
        actual_start = (
            link.delay_samples
            + leg.true_detection_delay
            + header_len
            + frontend.turnaround_samples
            + max(target_offset - frontend.turnaround_samples, 0.0)
        )
    return float(actual_start), bool(schedule_feasible)


def _header_layout(session: SourceSyncSession) -> JointFrameLayout:
    return JointFrameLayout(
        params=session.topology.params,
        n_cosenders=session.topology.n_cosenders,
        n_data_symbols=1,
        sifs_us=session.config.sifs_us,
    )


def _draw_header(
    session: SourceSyncSession, layout: JointFrameLayout, rate_mbps: float = 6.0
) -> np.ndarray:
    """Draw a header's packet id and return its keyed header bits.

    The keyed expansion uses a generator of its own, which the draw ledger
    records too, so it stays right after the packet-id draw, as in a lone
    :meth:`LeadSender.header_waveform` build; only the waveform synthesis
    is left to a batch, and the lead waveform reuses that batch's row
    instead of expanding the header again.
    """
    header = session.lead.make_header(
        packet_id=int(session.rng.integers(0, 1 << 16)),
        rate_mbps=rate_mbps,
        data_cp_samples=layout.effective_data_cp,
        n_cosenders=layout.n_cosenders,
    )
    n_bits = HEADER_SYMBOLS * layout.params.n_data_subcarriers
    return header_symbol_bits(header, n_bits)


def _cosender_transmissions(
    session: SourceSyncSession,
    layout: JointFrameLayout,
    starts: list[float],
    training_only: bool = True,
    payload: bytes | None = None,
    frame_config=None,
    active: list[int] | None = None,
    sections: dict | None = None,
) -> list[Transmission]:
    topo = session.topology
    indices = range(topo.n_cosenders) if active is None else active
    transmissions = []
    for i in indices:
        if not np.isfinite(starts[i]):
            continue
        cosender = CoSender(
            cosender_index=i,
            config=session.config,
            node_id=topo.cosenders[i].node_id,
            # CFO pre-correction is applied even in the unsynchronized
            # baseline: the Fig. 13 comparison isolates timing
            # compensation, not frequency handling.
            cfo_precorrection_hz=session._states[i].cfo_to_lead_hz,
        )
        if training_only:
            samples = cosender.training_waveform(layout)
        else:
            samples = cosender.build_waveform(payload, layout, frame_config, sections=sections)
        transmissions.append(
            Transmission(link=topo.links_cosender_rx[i], samples=samples, start_sample=starts[i])
        )
    return transmissions


# ----------------------------------------------------------------------
# Public lockstep entry points
# ----------------------------------------------------------------------
def run_sync_trials_batch(
    sessions: list[SourceSyncSession],
    compensate: bool = True,
) -> list[SyncTrialResult]:
    """One schedule-only synchronization trial per session, in lockstep.

    Each session synchronizes once and reports the true residual
    misalignment of its co-senders, without building or receiving a joint
    frame; ``results[s]`` belongs to ``sessions[s]``.
    """
    _check_common_structure(sessions)
    _ensure_measured(sessions)
    layouts = [_header_layout(session) for session in sessions]
    bits = [_draw_header(session, layout) for session, layout in zip(sessions, layouts)]
    waveforms = header_waveforms_from_bits(np.stack(bits), layouts[0].params)
    lanes = list(zip(sessions, layouts, waveforms))
    starts, feasible = _schedule_lockstep(lanes, compensate)
    results = []
    for s, (session, layout, _) in enumerate(lanes):
        misalignment = _true_misalignments(session, layout, starts[s])
        snr_db = session.topology.link_lead_rx.snr_db(session.topology.noise_power)
        results.append(SyncTrialResult(misalignment, tuple(feasible[s]), snr_db))
    return results


def run_header_exchanges_batch(
    sessions: list[SourceSyncSession],
    compensate: bool = True,
    apply_tracking_feedback: bool = False,
    genie_timing: bool = False,
) -> list[HeaderExchangeOutcome]:
    """One header-only joint exchange per session, in lockstep.

    The lead sends only its synchronization header, the co-senders
    synchronize to it and send their training slots, and the receiver
    measures every sender's channel and the co-senders' misalignment from
    the phase slopes (§4.5).  The receiver-side measurement runs as one
    stack over the sessions' received rows, so a caller that repeats the
    exchange, as Fig. 12's ground-truth estimator does, holds one received
    row per session at a time.  With ``apply_tracking_feedback`` each
    session's co-senders apply the measured misalignment before the call
    returns.  ``outcomes[s]`` belongs to ``sessions[s]``.
    """
    _check_common_structure(sessions)
    _ensure_measured(sessions)
    leading_silence = 60
    layouts = [_header_layout(session) for session in sessions]
    bits = [_draw_header(session, layout) for session, layout in zip(sessions, layouts)]
    # Lockstep sessions share one header layout (_check_common_structure),
    # so every session's header is synthesised in one batch.
    waveforms = header_waveforms_from_bits(np.stack(bits), layouts[0].params)
    starts, feasible = _schedule_lockstep(list(zip(sessions, layouts, waveforms)), compensate)
    trials = []
    for session, layout, waveform, lane_starts in zip(sessions, layouts, waveforms, starts):
        topo = session.topology
        transmissions = [Transmission(link=topo.link_lead_rx, samples=waveform, start_sample=0.0)]
        transmissions.extend(_cosender_transmissions(session, layout, lane_starts))
        total_needed = (
            leading_silence
            + int(np.ceil(topo.link_lead_rx.delay_samples))
            + layout.data_offset
            + 40
        )
        trials.append((transmissions, total_needed))
    rows, lengths = combine_ensemble_at_receiver(
        trials,
        [session.topology.noise_power for session in sessions],
        [session.rng for session in sessions],
        leading_silence=leading_silence,
    )
    start_hints = [
        leading_silence + int(round(session.topology.link_lead_rx.delay_samples))
        if genie_timing
        else None
        for session in sessions
    ]
    measured = sessions[0].receiver.measure_header_batch(rows, lengths, layouts[0], start_hints)
    outcomes = []
    for s, (session, (channels, misalignment, _)) in enumerate(zip(sessions, measured)):
        true_misalignment = _true_misalignments(session, layouts[s], starts[s])
        if apply_tracking_feedback and misalignment is not None:
            _apply_tracking_feedback(session, misalignment, true_misalignment)
        outcomes.append(
            HeaderExchangeOutcome(
                measured_misalignment=misalignment,
                true_misalignment_samples=true_misalignment,
                schedules_feasible=tuple(feasible[s]),
                snr_db=session.topology.link_lead_rx.snr_db(session.topology.noise_power),
                channels=channels,
            )
        )
    return outcomes


def converge_tracking_batch(
    sessions: list[SourceSyncSession], rounds: int = 4, compensate: bool = True
) -> None:
    """Run the §4.5 wait-time convergence loop for an ensemble, in lockstep."""
    for _ in range(max(rounds, 0)):
        run_header_exchanges_batch(sessions, compensate=compensate, apply_tracking_feedback=True)


@dataclass(frozen=True)
class JointFrameJob:
    """One joint frame to transmit inside :func:`run_joint_frames_batch`."""

    payload: bytes
    rate_mbps: float = 6.0
    data_cp_samples: int | None = None
    compensate: bool = True
    genie_timing: bool = False
    active_cosenders: tuple[int, ...] | None = None


class _JointFrameContext:
    """The streaming decoder and lane metadata shared by every wave.

    Every wave adds its combined rows to ``decoder`` as soon as they land:
    the front end (acquisition, CFO, channel estimation, data FFTs,
    tracking, combining, demapping) runs at once, so the received samples
    die with their wave, and each frame's equalized symbols are folded into
    its EVM at once, so they die with their wave too.  The Viterbi decodes
    each chunk of LLR rows as the waves fill it.  Only the remainder, the
    CRC checks and result assembly wait for ``decoder.finish``; the
    receiver performs no draws, so no stage can perturb any lane's stream.
    """

    def __init__(self, decoder: JointFrameDecoder) -> None:
        self.decoder = decoder
        self.lane_meta: list[tuple] = []
        # Data-section memos (read-only, see build_data_section), one per
        # frame layout that the latest wave used.  A CP sweep sends each
        # CP's frames in consecutive waves, so a section lives as long as
        # its CP's waves and is still built only once.
        self.data_sections: dict[JointFrameLayout, dict] = {}
        # Transmitted constellation blocks the latest wave's EVMs used, per
        # payload and bit chain (rate, scrambler seed, symbol count): a CP
        # sweep encodes each payload's reference once, not once per CP.
        self.references: dict[tuple, np.ndarray] = {}

    def evm_snr_db(
        self,
        symbols: np.ndarray | None,
        payload: bytes,
        frame_config: FrameConfig,
        previous: dict[tuple, np.ndarray],
    ) -> float:
        """EVM-implied SNR of one frame's equalized ``symbols``; NaN without them.

        The reference block comes from ``previous`` (the memo of the wave
        before) or is encoded, and is kept in :attr:`references`.  The
        EVM is evaluated per frame: a mean across frames would round
        differently.
        """
        if symbols is None:
            return float("nan")
        key = (payload, frame_config.rate, frame_config.scrambler_seed, frame_config.n_data_symbols)
        if key not in self.references:
            self.references[key] = (
                previous[key] if key in previous else encode_payload_to_symbols(payload, frame_config)
            )
        reference = self.references[key]
        n = min(reference.shape[0], symbols.shape[0])
        return evm_to_snr_db(symbols[:n], reference[:n])


class _JointFrameLane(Lane):
    """One session's joint-frame stream inside :func:`run_joint_frames_batch`.

    Frame ``r`` of every live session forms wave ``r``; the whole wave —
    header draws, lockstep cosender scheduling, ensemble combining at the
    receiver — runs as one stacked pass in session order.  The batch API
    predates ``after=`` chaining and never validated generator sharing, so
    chain enforcement stays off.
    """

    stacked = True
    enforce_generator_chains = False

    def __init__(
        self,
        session: SourceSyncSession,
        s: int,
        jobs: list[JointFrameJob],
        ctx: _JointFrameContext,
    ) -> None:
        self.session = session
        self.rng = session.rng
        self.after = None
        self.s = s
        self.jobs = jobs
        self.ctx = ctx
        self.wave_index = 0

    @property
    def finished(self) -> bool:
        """Whether every one of this session's frames has been transmitted."""
        return self.wave_index >= len(self.jobs)

    @classmethod
    def advance_lanes(cls, lanes: list["_JointFrameLane"]) -> None:
        """Transmit one joint frame per live session as a single stacked wave."""
        ctx = lanes[0].ctx
        drawn = []
        for wrapper in lanes:
            session = wrapper.session
            job = wrapper.jobs[wrapper.wave_index]
            frame_config = make_joint_frame_config(
                len(job.payload), job.rate_mbps, session.topology.params, job.data_cp_samples
            )
            layout = JointFrameLayout(
                params=session.topology.params,
                n_cosenders=session.topology.n_cosenders,
                n_data_symbols=_padded_symbol_count(session, frame_config),
                data_cp_samples=job.data_cp_samples,
                sifs_us=session.config.sifs_us,
            )
            bits = _draw_header(session, layout, job.rate_mbps)
            drawn.append((wrapper, job, frame_config, layout, bits))
        # Header waveform synthesis draws nothing, and the lanes share one
        # numerology, so the whole wave's headers are synthesised at once;
        # each lane's lead waveform reuses its header row.
        waveforms = header_waveforms_from_bits(
            np.stack([entry[4] for entry in drawn]), drawn[0][3].params
        )
        built = [
            (
                wrapper, job, frame_config, layout, header_waveform,
                wrapper.session.lead.build_waveform(
                    job.payload,
                    header_waveform,
                    layout,
                    frame_config,
                    sections=ctx.data_sections.setdefault(layout, {}),
                ),
            )
            for (wrapper, job, frame_config, layout, _), header_waveform in zip(drawn, waveforms)
        ]
        schedule_lanes = [
            (entry[0].session, entry[3], entry[4]) for entry in built
        ]
        all_starts, all_feasible = _schedule_lockstep(
            schedule_lanes, [entry[1].compensate for entry in built]
        )
        leading_silence = 60
        wave_trials: list[tuple[list[Transmission], int | None]] = []
        wave_info = []
        for lane, (wrapper, job, frame_config, layout, header_waveform, lead_waveform) in enumerate(
            built
        ):
            topo = wrapper.session.topology
            starts = all_starts[lane]
            active = (
                list(range(topo.n_cosenders))
                if job.active_cosenders is None
                else sorted(job.active_cosenders)
            )
            transmissions = [
                Transmission(link=topo.link_lead_rx, samples=lead_waveform, start_sample=0.0)
            ]
            transmissions.extend(
                _cosender_transmissions(
                    wrapper.session,
                    layout,
                    starts,
                    training_only=False,
                    payload=job.payload,
                    frame_config=frame_config,
                    active=active,
                    sections=ctx.data_sections[layout],
                )
            )
            wave_trials.append((transmissions, None))
            start_index = (
                leading_silence + int(round(topo.link_lead_rx.delay_samples))
                if job.genie_timing
                else None
            )
            wave_info.append(
                (wrapper, job, layout, frame_config, starts, all_feasible[lane], start_index)
            )
        wave_rows, wave_lengths = combine_ensemble_at_receiver(
            wave_trials,
            [entry[0].session.topology.noise_power for entry in built],
            [entry[0].session.rng for entry in built],
            leading_silence=leading_silence,
        )
        # Transmission is done: keep only the sections of this wave's layouts.
        ctx.data_sections = {info[2]: ctx.data_sections[info[2]] for info in wave_info}
        receive_jobs = [
            (row[:length], int(length), layout, frame_config, start_index)
            for (_, _, layout, frame_config, _, _, start_index), row, length in zip(
                wave_info, wave_rows, wave_lengths
            )
        ]
        symbols = ctx.decoder.add(receive_jobs)
        # Fold each frame's symbols into its EVM as the wave lands; the
        # references memo keeps only what this wave used.
        previous, ctx.references = ctx.references, {}
        for (wrapper, job, layout, frame_config, starts, feasible, _), frame_symbols in zip(
            wave_info, symbols
        ):
            evm_snr_db = ctx.evm_snr_db(frame_symbols, job.payload, frame_config, previous)
            ctx.lane_meta.append(
                (wrapper.s, wrapper.wave_index, layout, frame_config, starts, feasible, evm_snr_db)
            )
            wrapper.wave_index += 1


def run_joint_frames_batch(
    sessions: list[SourceSyncSession],
    jobs_per_session: list[list[JointFrameJob]],
) -> list[list[JointFrameOutcome]]:
    """Full joint frames for an ensemble, decoded wave by wave.

    ``jobs_per_session[s]`` lists the frames session ``s`` transmits, in
    order; frame ``r`` of every session forms wave ``r``.  Frames are
    independent: no tracking feedback is applied between them
    (:meth:`SourceSyncSession.run_joint_frame` applies it after its one
    frame).  Each
    wave is added to one :class:`~repro.core.receiver.JointFrameDecoder`
    as soon as it is combined: its receive front end (acquisition through
    depunctured LLRs) runs as one stack, so received samples never outlive
    their wave.  Each frame's equalized symbols are folded into its
    outcome's ``evm_snr_db`` as soon as the wave is added, against the
    transmitted constellation (encoded once per payload and bit chain), so
    they never outlive their wave either.  The Viterbi decodes each coded
    length's rows one chunk at a time as the waves fill it, so at most a
    chunk and a wave of LLR rows are pending.  The receive stages are
    grouping-invariant, so the results equal one ``receive_many`` over
    every frame.  Each distinct sender data section is built once and
    shared read-only by the frames that repeat it in consecutive waves; a
    wave drops the sections of layouts it no longer uses.
    """
    if len(jobs_per_session) != len(sessions):
        raise ValueError("need one job list per session")
    _check_common_structure(sessions)
    _ensure_measured(sessions)

    ctx = _JointFrameContext(JointFrameDecoder(sessions[0].receiver))
    LockstepScheduler().run(
        [
            _JointFrameLane(session, s, jobs_per_session[s], ctx)
            for s, session in enumerate(sessions)
        ]
    )

    ctx.data_sections.clear()  # only transmission needs them; free before decoding
    received_results = ctx.decoder.finish()

    results: list[list[JointFrameOutcome | None]] = [
        [None] * len(jobs) for jobs in jobs_per_session
    ]
    for (s, wave, layout, frame_config, starts, feasible, evm_snr_db), result in zip(
        ctx.lane_meta, received_results
    ):
        session = sessions[s]
        misalignment = _true_misalignments(session, layout, starts)
        results[s][wave] = JointFrameOutcome(
            result=result,
            true_misalignment_samples=misalignment,
            schedules_feasible=tuple(feasible),
            layout=layout,
            frame_config=frame_config,
            evm_snr_db=evm_snr_db,
        )
    return results  # type: ignore[return-value]
