"""End-to-end simulation of SourceSync joint transmissions.

A :class:`SourceSyncSession` wires together every piece of the architecture
for one lead sender, a set of co-senders and one receiver:

1. the nodes run probe/response exchanges to estimate pair-wise propagation
   delays and carrier-frequency offsets (§4.2c, §5);
2. for every joint frame, each co-sender receives the lead sender's
   synchronization header over its own simulated channel, estimates its
   detection delay from the channel phase slope (§4.2a), computes its wait
   time (§4.3) and schedules its transmission;
3. all transmissions are superimposed at the receiver with their true
   delays, channels, oscillator offsets and noise, and decoded by the joint
   receiver (§5, §6);
4. the receiver's misalignment report can be fed back to the co-senders to
   track delay changes (§4.5).

The session exposes both full-frame runs (header + training + data,
returning a :class:`~repro.core.receiver.JointReceiveResult`) and cheap
"sync trials" that only evaluate the achieved synchronization error —
the quantity of Fig. 12 — without building the data section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.awgn import db_to_linear
from repro.channel.composite import Link, Transmission, combine_at_receiver, link_for_snr
from repro.channel.multipath import DEFAULT_PROFILE, MultipathProfile
from repro.channel.oscillator import Oscillator
from repro.channel.propagation import propagation_delay_samples
from repro.core.channel_est.cfo import measure_cfo
from repro.core.channel_est.joint_estimator import JointChannelEstimate
from repro.core.config import SourceSyncConfig
from repro.core.combining.stbc import SmartCombiner
from repro.core.frame import JointFrameLayout, SyncHeader, make_joint_frame_config
from repro.core.receiver import JointReceiveResult, JointReceiver
from repro.core.sender import CoSender, LeadSender
from repro.core.sync.tracking import MisalignmentReport
from repro.core.sync.compensation import DelayBudget, compute_wait_time, sifs_samples
from repro.core.sync.probe import measure_propagation_delay, probe_leg
from repro.core.sync.tracking import WaitTimeTracker
from repro.hardware.frontend import RadioFrontend
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.transmitter import FrameConfig
from repro.rng import require_rng

__all__ = [
    "NodeProfile",
    "JointTopology",
    "SyncTrialResult",
    "JointFrameOutcome",
    "HeaderExchangeOutcome",
    "SourceSyncSession",
]


@dataclass
class NodeProfile:
    """A physical node participating in a joint transmission."""

    node_id: int
    frontend: RadioFrontend
    oscillator: Oscillator

    @classmethod
    def random(cls, node_id: int, rng: np.random.Generator, sample_rate_hz: float = 20e6) -> "NodeProfile":
        """Draw a node with random (but henceforth fixed) hardware characteristics."""
        return cls(
            node_id=node_id,
            frontend=RadioFrontend.random(rng, sample_rate_hz=sample_rate_hz),
            oscillator=Oscillator.random(rng),
        )


@dataclass
class JointTopology:
    """All nodes and links involved in one joint transmission to one receiver.

    Links are directional; reverse links (used by probe responses and ACKs)
    share the propagation delay of their forward counterpart but have
    independent small-scale fading, as on a real (reciprocal-delay, but
    separately-faded in our block model) wireless channel.
    """

    lead: NodeProfile
    cosenders: list[NodeProfile]
    receiver: NodeProfile
    link_lead_rx: Link
    links_cosender_rx: list[Link]
    links_lead_cosender: list[Link]
    links_cosender_lead: list[Link]
    link_rx_lead: Link
    links_rx_cosender: list[Link]
    noise_power: float = 1.0
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        n = len(self.cosenders)
        for name, links in (
            ("links_cosender_rx", self.links_cosender_rx),
            ("links_lead_cosender", self.links_lead_cosender),
            ("links_cosender_lead", self.links_cosender_lead),
            ("links_rx_cosender", self.links_rx_cosender),
        ):
            if len(links) != n:
                raise ValueError(f"{name} must have one link per co-sender")

    @property
    def n_cosenders(self) -> int:
        """Number of co-senders in the topology."""
        return len(self.cosenders)

    # ------------------------------------------------------------------
    @classmethod
    def from_snrs(
        cls,
        rng: np.random.Generator,
        lead_rx_snr_db: float,
        cosender_rx_snr_db: list[float] | tuple[float, ...],
        lead_cosender_snr_db: list[float] | tuple[float, ...] | None = None,
        lead_rx_distance_m: float = 20.0,
        cosender_rx_distance_m: list[float] | None = None,
        lead_cosender_distance_m: list[float] | None = None,
        profile: MultipathProfile = DEFAULT_PROFILE,
        params: OFDMParams = DEFAULT_PARAMS,
        noise_power: float = 1.0,
    ) -> "JointTopology":
        """Build a topology from link SNRs and node distances.

        SNRs control the fading/noise conditions; distances control the
        propagation delays the synchronizer must compensate.
        """
        cosender_rx_snr_db = list(cosender_rx_snr_db)
        n_co = len(cosender_rx_snr_db)
        if lead_cosender_snr_db is None:
            lead_cosender_snr_db = [max(lead_rx_snr_db, 15.0)] * n_co
        lead_cosender_snr_db = list(lead_cosender_snr_db)
        if cosender_rx_distance_m is None:
            cosender_rx_distance_m = [float(rng.uniform(5.0, 40.0)) for _ in range(n_co)]
        if lead_cosender_distance_m is None:
            lead_cosender_distance_m = [float(rng.uniform(5.0, 40.0)) for _ in range(n_co)]

        lead = NodeProfile.random(0, rng, params.bandwidth_hz)
        cosenders = [NodeProfile.random(i + 1, rng, params.bandwidth_hz) for i in range(n_co)]
        receiver = NodeProfile.random(100, rng, params.bandwidth_hz)

        def make_link(snr_db: float, distance_m: float, src: NodeProfile, dst: NodeProfile) -> Link:
            return link_for_snr(
                snr_db,
                noise_power=noise_power,
                profile=profile,
                rng=rng,
                delay_samples=propagation_delay_samples(distance_m, params.bandwidth_hz),
                cfo_hz=src.oscillator.cfo_to(dst.oscillator),
                params=params,
            )

        return cls(
            lead=lead,
            cosenders=cosenders,
            receiver=receiver,
            link_lead_rx=make_link(lead_rx_snr_db, lead_rx_distance_m, lead, receiver),
            links_cosender_rx=[
                make_link(cosender_rx_snr_db[i], cosender_rx_distance_m[i], cosenders[i], receiver)
                for i in range(n_co)
            ],
            links_lead_cosender=[
                make_link(lead_cosender_snr_db[i], lead_cosender_distance_m[i], lead, cosenders[i])
                for i in range(n_co)
            ],
            links_cosender_lead=[
                make_link(lead_cosender_snr_db[i], lead_cosender_distance_m[i], cosenders[i], lead)
                for i in range(n_co)
            ],
            link_rx_lead=make_link(lead_rx_snr_db, lead_rx_distance_m, receiver, lead),
            links_rx_cosender=[
                make_link(cosender_rx_snr_db[i], cosender_rx_distance_m[i], receiver, cosenders[i])
                for i in range(n_co)
            ],
            noise_power=noise_power,
            params=params,
        )


@dataclass
class _CoSenderState:
    """Per-co-sender state the session maintains across joint frames."""

    lead_to_cosender_samples: float = 0.0
    lead_to_receiver_samples: float = 0.0
    cosender_to_receiver_samples: float = 0.0
    #: This co-sender's carrier frequency offset *relative to the lead
    #: sender* (f_co - f_lead).  The co-sender pre-rotates its waveform by
    #: ``exp(-j 2 pi f t)`` with this value so that, after the receiver's
    #: standard lead-referenced CFO correction, its signal carries no bulk
    #: rotation (§5).
    cfo_to_lead_hz: float = 0.0
    tracker: WaitTimeTracker | None = None


@dataclass(frozen=True)
class SyncTrialResult:
    """Outcome of one synchronization trial (no data section).

    ``misalignment_samples[i]`` is the *true* offset between co-sender i's
    data-section arrival and the lead sender's data-section arrival at the
    receiver; this is what the paper's high-overhead reference algorithm
    measures in §8.1.1 and what Fig. 12 reports.
    """

    misalignment_samples: tuple[float, ...]
    feasible: tuple[bool, ...]
    snr_db: float

    def misalignment_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> tuple[float, ...]:
        """Misalignments converted to nanoseconds."""
        return tuple(m * params.sample_period_ns for m in self.misalignment_samples)

    def worst_misalignment_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> float:
        """Largest absolute misalignment in nanoseconds."""
        if not self.misalignment_samples:
            return 0.0
        return float(np.max(np.abs(self.misalignment_ns(params))))


@dataclass
class JointFrameOutcome:
    """Everything produced by one full joint-frame simulation."""

    result: JointReceiveResult
    true_misalignment_samples: tuple[float, ...]
    schedules_feasible: tuple[bool, ...]
    layout: JointFrameLayout
    frame_config: FrameConfig


@dataclass
class HeaderExchangeOutcome:
    """Result of a header-only joint transmission (§4.5 measurement path).

    ``measured_misalignment`` is what the receiver derives from the channel
    phase slopes of the lead sender and each co-sender — the value it feeds
    back in its ACK.  ``true_misalignment_samples`` is the simulator's exact
    arrival-time difference, available only because this is a simulation.
    ``channels`` holds the receiver's per-sender channel estimates for this
    header, which the power/diversity experiments (§8.2) read directly.
    """

    measured_misalignment: MisalignmentReport | None
    true_misalignment_samples: tuple[float, ...]
    schedules_feasible: tuple[bool, ...]
    snr_db: float
    channels: "JointChannelEstimate | None" = None

    @property
    def detected(self) -> bool:
        """Whether the receiver detected and processed the header."""
        return self.measured_misalignment is not None


class SourceSyncSession:
    """Drives joint transmissions over a :class:`JointTopology`."""

    def __init__(
        self,
        topology: JointTopology,
        config: SourceSyncConfig = SourceSyncConfig(),
        rng: np.random.Generator | None = None,
    ):
        self.topology = topology
        self.config = config
        self.rng = require_rng(rng, "SourceSyncSession")
        self.lead = LeadSender(config=config, node_id=topology.lead.node_id)
        self.receiver = JointReceiver(config=config)
        self.combiner = SmartCombiner(config.combiner_scheme)
        self._states: list[_CoSenderState] = [_CoSenderState() for _ in topology.cosenders]
        self._delays_measured = False

    def _padded_symbol_count(self, frame_config: FrameConfig) -> int:
        """Data-symbol count rounded up to the space-time block size."""
        block = self.combiner.block_symbols
        n = frame_config.n_data_symbols
        return int(np.ceil(n / block) * block)

    # ------------------------------------------------------------------
    # Measurement phase (§4.2c, §5)
    # ------------------------------------------------------------------
    def measure_delays(self, use_true_delays: bool = False) -> None:
        """Run the pair-wise probe exchanges that seed the synchronizer.

        ``use_true_delays`` bypasses the waveform-level probe simulation and
        loads the true delays instead; it is used by tests and by the
        unsynchronized baseline ablation where measurement noise is not the
        quantity under study.
        """
        topo = self.topology
        cfg = self.config
        for i, state in enumerate(self._states):
            if use_true_delays:
                state.lead_to_cosender_samples = topo.links_lead_cosender[i].delay_samples
                state.lead_to_receiver_samples = topo.link_lead_rx.delay_samples
                state.cosender_to_receiver_samples = topo.links_cosender_rx[i].delay_samples
                # The link's cfo_hz is f_lead - f_co (what the co-sender
                # observes when listening to the lead); the pre-correction
                # value is the co-sender's offset relative to the lead.
                state.cfo_to_lead_hz = -topo.links_lead_cosender[i].cfo_hz
            else:
                lead_co = measure_propagation_delay(
                    topo.links_lead_cosender[i],
                    topo.links_cosender_lead[i],
                    topo.lead.frontend,
                    topo.cosenders[i].frontend,
                    self.rng,
                    topo.noise_power,
                    topo.params,
                    n_probes=cfg.probe_count,
                )
                lead_rx = measure_propagation_delay(
                    topo.link_lead_rx,
                    topo.link_rx_lead,
                    topo.lead.frontend,
                    topo.receiver.frontend,
                    self.rng,
                    topo.noise_power,
                    topo.params,
                    n_probes=cfg.probe_count,
                )
                co_rx = measure_propagation_delay(
                    topo.links_cosender_rx[i],
                    topo.links_rx_cosender[i],
                    topo.cosenders[i].frontend,
                    topo.receiver.frontend,
                    self.rng,
                    topo.noise_power,
                    topo.params,
                    n_probes=cfg.probe_count,
                )
                cfo = measure_cfo(
                    topo.links_lead_cosender[i], self.rng, topo.noise_power, topo.params
                )
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
        self._delays_measured = True

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
    def _ensure_measured(self) -> None:
        if not self._delays_measured:
            self.measure_delays()

    def _schedule_cosenders(
        self,
        layout: JointFrameLayout,
        header_waveform: np.ndarray,
        compensate: bool = True,
    ) -> tuple[list[float], list[bool]]:
        """Simulate header reception at each co-sender and compute actual start times.

        Returns (absolute transmit start per co-sender in samples, feasibility
        flags).  With ``compensate=False`` the co-senders behave like the
        unsynchronized baseline of §8.1.2: they join as soon as the SIFS and
        their slot arrive according to their *local* perception of time,
        without correcting for detection or propagation delays.
        """
        topo = self.topology
        cfg = self.config
        sifs = float(layout.sifs_samples)
        header_len = float(layout.sync_header_samples)
        starts: list[float] = []
        feasible: list[bool] = []
        for i, state in enumerate(self._states):
            link = topo.links_lead_cosender[i]
            frontend = topo.cosenders[i].frontend
            leg = probe_leg(
                link,
                frontend,
                self.rng,
                topo.noise_power,
                topo.params,
                waveform=header_waveform,
            )
            slot_offset = float(i * layout.ltf_samples)
            if not leg.detected:
                starts.append(float("nan"))
                feasible.append(False)
                continue
            true_detect_delay = leg.true_detection_delay
            est_detect_delay = leg.estimated_detection_delay if compensate else 0.0
            wait_time = (
                state.tracker.wait_time_samples
                if (state.tracker is not None and compensate)
                else 0.0
            )
            if compensate:
                # The tracker's wait time equals T0_hat - t_i_hat plus any
                # ACK-feedback corrections (§4.5), so it plays the role of
                # w_i in the §4.3 schedule.
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
            else:
                # Baseline: the co-sender starts its slot SIFS after it
                # *finished receiving* the header, with no compensation at all.
                target_offset = sifs + slot_offset
                local_wait = 0.0
                schedule_feasible = True

            if compensate:
                actual_start = (
                    link.delay_samples
                    + true_detect_delay
                    + header_len
                    + frontend.turnaround_samples
                    + max(local_wait, 0.0)
                )
            else:
                actual_start = (
                    link.delay_samples
                    + true_detect_delay
                    + header_len
                    + frontend.turnaround_samples
                    + max(target_offset - frontend.turnaround_samples, 0.0)
                )
            starts.append(float(actual_start))
            feasible.append(bool(schedule_feasible))
        return starts, feasible

    def _true_misalignments(
        self,
        layout: JointFrameLayout,
        starts: list[float],
    ) -> tuple[float, ...]:
        """True data-section misalignment of each co-sender vs the lead sender."""
        topo = self.topology
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

    # ------------------------------------------------------------------
    # Sync-only trials (Fig. 12)
    # ------------------------------------------------------------------
    def run_sync_trial(self, compensate: bool = True) -> SyncTrialResult:
        """Synchronize once and report the true residual misalignment."""
        self._ensure_measured()
        layout = JointFrameLayout(
            params=self.topology.params,
            n_cosenders=self.topology.n_cosenders,
            n_data_symbols=1,
            sifs_us=self.config.sifs_us,
        )
        header = self.lead.make_header(
            packet_id=int(self.rng.integers(0, 1 << 16)),
            rate_mbps=6.0,
            data_cp_samples=layout.effective_data_cp,
            n_cosenders=layout.n_cosenders,
        )
        header_waveform = self.lead.header_waveform(header, layout)
        starts, feasible = self._schedule_cosenders(layout, header_waveform, compensate)
        misalignment = self._true_misalignments(layout, starts)
        snr_db = self.topology.link_lead_rx.snr_db(self.topology.noise_power)
        return SyncTrialResult(misalignment, tuple(feasible), snr_db)

    # ------------------------------------------------------------------
    # Header-only joint exchanges (Fig. 12 and the §4.5 tracking loop)
    # ------------------------------------------------------------------
    def run_header_exchange(
        self,
        compensate: bool = True,
        apply_tracking_feedback: bool = True,
        genie_timing: bool = False,
    ) -> HeaderExchangeOutcome:
        """Transmit only the synchronization header and co-sender training.

        This is the cheapest exchange that exercises the whole measurement
        loop: co-senders synchronize to a freshly detected header, the
        receiver estimates both channels and measures their misalignment
        from the phase slopes, and (optionally) the co-senders apply the
        feedback to their wait times — exactly the §4.5 tracking loop.
        """
        self._ensure_measured()
        topo = self.topology
        layout = JointFrameLayout(
            params=topo.params,
            n_cosenders=topo.n_cosenders,
            n_data_symbols=1,
            sifs_us=self.config.sifs_us,
        )
        header = self.lead.make_header(
            packet_id=int(self.rng.integers(0, 1 << 16)),
            rate_mbps=6.0,
            data_cp_samples=layout.effective_data_cp,
            n_cosenders=layout.n_cosenders,
        )
        header_waveform = self.lead.header_waveform(header, layout)
        starts, feasible = self._schedule_cosenders(layout, header_waveform, compensate)

        leading_silence = 60
        transmissions = [
            Transmission(link=topo.link_lead_rx, samples=header_waveform, start_sample=0.0)
        ]
        for i in range(topo.n_cosenders):
            if not np.isfinite(starts[i]):
                continue
            cosender = CoSender(
                cosender_index=i,
                config=self.config,
                node_id=topo.cosenders[i].node_id,
                # CFO pre-correction is applied even in the unsynchronized
                # baseline: the Fig. 13 comparison isolates *timing*
                # compensation, not frequency handling.
                cfo_precorrection_hz=self._states[i].cfo_to_lead_hz,
            )
            transmissions.append(
                Transmission(
                    link=topo.links_cosender_rx[i],
                    samples=cosender.training_waveform(layout),
                    start_sample=starts[i],
                )
            )
        total_needed = leading_silence + int(np.ceil(topo.link_lead_rx.delay_samples)) + layout.data_offset + 40
        received = combine_at_receiver(
            transmissions,
            noise_power=topo.noise_power,
            rng=self.rng,
            leading_silence=leading_silence,
            total_length=total_needed,
        )
        start_index = (
            leading_silence + int(round(topo.link_lead_rx.delay_samples)) if genie_timing else None
        )
        channels, misalignment, _ = self.receiver.measure_header(received, layout, start_index=start_index)

        true_misalignment = self._true_misalignments(layout, starts)
        if apply_tracking_feedback and misalignment is not None:
            reported = iter(misalignment.misalignments_samples)
            for i in range(topo.n_cosenders):
                if not np.isfinite(starts[i]):
                    continue
                state = self._states[i]
                if state.tracker is None:
                    continue
                try:
                    state.tracker.update(next(reported))
                except StopIteration:
                    break
        snr_db = topo.link_lead_rx.snr_db(topo.noise_power)
        return HeaderExchangeOutcome(
            measured_misalignment=misalignment,
            true_misalignment_samples=true_misalignment,
            schedules_feasible=tuple(feasible),
            snr_db=snr_db,
            channels=channels,
        )

    def converge_tracking(self, rounds: int = 4, compensate: bool = True) -> None:
        """Run a few header exchanges with feedback to settle the wait times (§4.5)."""
        for _ in range(max(rounds, 0)):
            self.run_header_exchange(compensate=compensate, apply_tracking_feedback=True)

    # ------------------------------------------------------------------
    # Full joint frames
    # ------------------------------------------------------------------
    def run_joint_frame(
        self,
        payload: bytes,
        rate_mbps: float = 6.0,
        data_cp_samples: int | None = None,
        compensate: bool = True,
        active_cosenders: list[int] | None = None,
        apply_tracking_feedback: bool = True,
        genie_timing: bool = False,
    ) -> JointFrameOutcome:
        """Simulate one complete joint frame end to end.

        Parameters
        ----------
        payload:
            Packet payload shared by all senders.
        rate_mbps:
            Transmission rate chosen by the lead sender (announced in the
            synchronization header, §7.1).
        data_cp_samples:
            Cyclic prefix for the data section; ``None`` keeps the standard CP.
        compensate:
            When False, co-senders skip delay compensation (the baseline of
            Fig. 13).
        active_cosenders:
            Indices of co-senders that actually overheard the packet and can
            join; others stay silent (§7.2).  Default: all.
        apply_tracking_feedback:
            Feed the receiver's misalignment report back into the co-sender
            wait-time trackers (§4.5).
        genie_timing:
            Hand the receiver the exact frame start (used to isolate
            synchronization effects from receiver timing acquisition).
        """
        self._ensure_measured()
        topo = self.topology
        active = list(range(topo.n_cosenders)) if active_cosenders is None else sorted(active_cosenders)

        frame_config = make_joint_frame_config(
            len(payload), rate_mbps, topo.params, data_cp_samples
        )
        layout = JointFrameLayout(
            params=topo.params,
            n_cosenders=topo.n_cosenders,
            n_data_symbols=self._padded_symbol_count(frame_config),
            data_cp_samples=data_cp_samples,
            sifs_us=self.config.sifs_us,
        )
        header = self.lead.make_header(
            packet_id=int(self.rng.integers(0, 1 << 16)),
            rate_mbps=rate_mbps,
            data_cp_samples=layout.effective_data_cp,
            n_cosenders=layout.n_cosenders,
        )
        header_waveform = self.lead.header_waveform(header, layout)
        lead_waveform = self.lead.build_waveform(payload, header_waveform, layout, frame_config)

        starts, feasible = self._schedule_cosenders(layout, header_waveform, compensate)

        leading_silence = 60
        transmissions = [
            Transmission(link=topo.link_lead_rx, samples=lead_waveform, start_sample=0.0)
        ]
        for i in active:
            if not np.isfinite(starts[i]):
                continue
            cosender = CoSender(
                cosender_index=i,
                config=self.config,
                node_id=topo.cosenders[i].node_id,
                # CFO pre-correction is applied even in the unsynchronized
                # baseline: the Fig. 13 comparison isolates *timing*
                # compensation, not frequency handling.
                cfo_precorrection_hz=self._states[i].cfo_to_lead_hz,
            )
            waveform = cosender.build_waveform(payload, layout, frame_config)
            transmissions.append(
                Transmission(
                    link=topo.links_cosender_rx[i],
                    samples=waveform,
                    start_sample=starts[i],
                )
            )

        received = combine_at_receiver(
            transmissions,
            noise_power=topo.noise_power,
            rng=self.rng,
            leading_silence=leading_silence,
        )
        start_index = leading_silence + int(round(topo.link_lead_rx.delay_samples)) if genie_timing else None
        result = self.receiver.receive(
            received, layout, frame_config, start_index=start_index
        )

        misalignment = self._true_misalignments(layout, starts)
        if apply_tracking_feedback and result.misalignment is not None:
            reported = result.misalignment.misalignments_samples
            active_iter = iter(reported)
            for i in active:
                state = self._states[i]
                if state.tracker is None:
                    continue
                try:
                    state.tracker.update(next(active_iter))
                except StopIteration:
                    break
        return JointFrameOutcome(
            result=result,
            true_misalignment_samples=misalignment,
            schedules_feasible=tuple(feasible),
            layout=layout,
            frame_config=frame_config,
        )

    # ------------------------------------------------------------------
    # Single-sender reference transmission (for gain comparisons)
    # ------------------------------------------------------------------
    def run_single_sender_frame(
        self,
        payload: bytes,
        rate_mbps: float = 6.0,
        sender: str = "lead",
        genie_timing: bool = False,
    ) -> JointFrameOutcome:
        """Transmit the same payload from a single sender (no co-senders).

        A reference for comparing a joint frame against one sender alone;
        ``examples/quickstart.py`` and the session tests call it, and no
        experiment does.
        """
        self._ensure_measured()
        topo = self.topology
        frame_config = make_joint_frame_config(len(payload), rate_mbps, topo.params, None)
        layout = JointFrameLayout(
            params=topo.params,
            n_cosenders=0,
            n_data_symbols=self._padded_symbol_count(frame_config),
            sifs_us=self.config.sifs_us,
        )
        header = self.lead.make_header(
            packet_id=int(self.rng.integers(0, 1 << 16)),
            rate_mbps=rate_mbps,
            data_cp_samples=layout.effective_data_cp,
            n_cosenders=0,
        )
        if sender == "lead":
            link = topo.link_lead_rx
        else:
            index = int(sender) if not isinstance(sender, int) else sender
            link = topo.links_cosender_rx[index]
        waveform = self.lead.build_waveform(
            payload, self.lead.header_waveform(header, layout), layout, frame_config
        )
        leading_silence = 60
        received = combine_at_receiver(
            [Transmission(link=link, samples=waveform, start_sample=0.0)],
            noise_power=topo.noise_power,
            rng=self.rng,
            leading_silence=leading_silence,
        )
        start_index = leading_silence + int(round(link.delay_samples)) if genie_timing else None
        result = self.receiver.receive(received, layout, frame_config, start_index=start_index)
        return JointFrameOutcome(
            result=result,
            true_misalignment_samples=(),
            schedules_feasible=(),
            layout=layout,
            frame_config=frame_config,
        )
