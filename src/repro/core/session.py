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
the quantity of Fig. 12 — without building the data section.  It holds
the per-session state; the exchanges themselves are orchestrated by
:mod:`repro.core.ensemble`, which the per-frame methods call with a stack
of one session.  The single-sender reference frame is a joint frame on the
topology's lead-only copy (:meth:`JointTopology.lead_only`), so it runs
through the same orchestrator, channel and receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.channel.composite import Link, link_for_snr
from repro.channel.multipath import DEFAULT_PROFILE, MultipathProfile
from repro.channel.oscillator import Oscillator
from repro.channel.propagation import propagation_delay_samples
from repro.core.channel_est.joint_estimator import JointChannelEstimate
from repro.core.config import SourceSyncConfig
from repro.core.combining.stbc import SmartCombiner
from repro.core.frame import JointFrameLayout
from repro.core.receiver import JointReceiveResult, JointReceiver
from repro.core.sender import LeadSender
from repro.core.sync.tracking import MisalignmentReport, WaitTimeTracker
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

    def lead_only(self) -> "JointTopology":
        """This topology with every co-sender removed: the lead sender alone."""
        return replace(
            self,
            cosenders=[],
            links_cosender_rx=[],
            links_lead_cosender=[],
            links_cosender_lead=[],
            links_rx_cosender=[],
        )

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
    """Everything produced by one full joint-frame simulation.

    ``true_misalignment_samples`` and ``evm_snr_db`` are simulator-only
    genie values.  ``evm_snr_db`` is the effective SNR implied by the error
    vector magnitude of the receiver's equalized data symbols against the
    transmitted constellation points (the Fig. 13 metric), NaN when the
    frame was not equalized.  It is computed as each frame is received, so
    no outcome holds the symbols themselves.
    """

    result: JointReceiveResult
    true_misalignment_samples: tuple[float, ...]
    schedules_feasible: tuple[bool, ...]
    layout: JointFrameLayout
    frame_config: FrameConfig
    evm_snr_db: float


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

    # ------------------------------------------------------------------
    # Per-frame entry points: each is one lockstep call on a stack of one
    # session (repro.core.ensemble), imported here because the ensemble
    # module imports this one.
    # ------------------------------------------------------------------
    def measure_delays(self, use_true_delays: bool = False) -> None:
        """Run the pair-wise probe exchanges that seed the synchronizer (§4.2c, §5).

        ``use_true_delays`` bypasses the waveform-level probe simulation and
        loads the true delays instead; it is used by tests and by the
        unsynchronized baseline ablation where measurement noise is not the
        quantity under study.
        """
        from repro.core.ensemble import measure_delays_batch

        measure_delays_batch([self], use_true_delays=use_true_delays)

    def run_sync_trial(self, compensate: bool = True) -> SyncTrialResult:
        """Synchronize once and report the true residual misalignment (Fig. 12)."""
        from repro.core.ensemble import run_sync_trials_batch

        return run_sync_trials_batch([self], compensate=compensate)[0]

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
        With ``compensate=False`` the co-senders behave like the
        unsynchronized baseline of §8.1.2: they join SIFS after the header
        by their *local* perception of time, without correcting for
        detection or propagation delays.
        """
        from repro.core.ensemble import run_header_exchanges_batch

        return run_header_exchanges_batch(
            [self],
            compensate=compensate,
            apply_tracking_feedback=apply_tracking_feedback,
            genie_timing=genie_timing,
        )[0]

    def converge_tracking(self, rounds: int = 4, compensate: bool = True) -> None:
        """Run a few header exchanges with feedback to settle the wait times (§4.5)."""
        from repro.core.ensemble import converge_tracking_batch

        converge_tracking_batch([self], rounds=rounds, compensate=compensate)

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
        from repro.core.ensemble import (
            JointFrameJob,
            _apply_tracking_feedback,
            run_joint_frames_batch,
        )

        active = None if active_cosenders is None else tuple(sorted(active_cosenders))
        job = JointFrameJob(
            payload,
            rate_mbps=rate_mbps,
            data_cp_samples=data_cp_samples,
            compensate=compensate,
            genie_timing=genie_timing,
            active_cosenders=active,
        )
        ((outcome,),) = run_joint_frames_batch([self], [[job]])
        report = outcome.result.misalignment
        if apply_tracking_feedback and report is not None:
            _apply_tracking_feedback(self, report, outcome.true_misalignment_samples, active)
        return outcome

    # ------------------------------------------------------------------
    # Single-sender reference transmission (for gain comparisons)
    # ------------------------------------------------------------------
    def run_single_sender_frame(
        self,
        payload: bytes,
        rate_mbps: float = 6.0,
        genie_timing: bool = False,
    ) -> JointFrameOutcome:
        """Transmit the same payload from the lead sender alone (no co-senders).

        A reference for comparing a joint frame against one sender alone
        (§6, §8.2).  The session runs its probe phase first if it has not
        yet.  The frame is then one joint frame on the lead-only topology
        (:meth:`JointTopology.lead_only`), drawn from this session's
        generator: with no co-senders, its probe phase and schedule draw
        nothing, so the frame draws only its packet id and the receiver's
        noise.
        """
        from repro.core.ensemble import JointFrameJob, _ensure_measured, run_joint_frames_batch

        _ensure_measured([self])
        alone = SourceSyncSession(self.topology.lead_only(), self.config, rng=self.rng)
        job = JointFrameJob(payload, rate_mbps=rate_mbps, genie_timing=genie_timing)
        ((outcome,),) = run_joint_frames_batch([alone], [[job]])
        return outcome
