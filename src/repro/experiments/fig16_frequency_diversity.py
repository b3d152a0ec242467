"""Figure 16: per-subcarrier SNR profiles — frequency diversity gains.

For a high-, medium- and low-SNR placement the paper plots the SNR of every
OFDM subcarrier for each sender transmitting alone and for the SourceSync
joint transmission, showing that the joint profile is both higher and
*flatter*: the two senders rarely fade in the same subcarrier, so combining
them removes the deep notches that hurt 802.11's convolutional code.

This experiment measures the profiles from the receiver's per-sender channel
estimates of a received joint header (the same data Fig. 15 aggregates) and
summarises flatness as the per-subcarrier SNR standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.snr import flatness_db
from repro.channel.awgn import linear_to_db
from repro.core import JointTopology, SourceSyncSession, SourceSyncConfig
from repro.engine import Lane, LockstepScheduler
from repro.experiments.common import ExperimentResult
from repro.experiments.fig15_power_gains import REGIME_TARGET_SNR_DB
from repro.experiments.registry import experiment
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["Config", "SPEC", "measure_profiles", "measure_profiles_batched"]


@dataclass(frozen=True)
class Config:
    """Parameters of the Fig. 16 reproduction.

    The figure needs exactly one placement per SNR regime, so the workload
    is the same at every preset; ``max_attempts`` bounds the topology
    re-draws when a placement fails to produce a co-sender estimate.
    ``batched`` runs the regimes' placement attempts in lockstep through
    the shared engine (bit-identical to the per-regime sequential path).
    """

    seed: int = 16
    max_attempts: int = 5
    params: OFDMParams = DEFAULT_PARAMS
    batched: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def _regime_rng(target_snr_db: float, seed: int) -> np.random.Generator:
    """The regime's dedicated generator (both execution paths share it)."""
    return np.random.default_rng(seed + int(target_snr_db * 7))


def _profiles_from_channels(channels, params: OFDMParams) -> dict[str, np.ndarray] | None:
    """Per-subcarrier SNR dict from one exchange's channel estimates.

    Returns ``None`` when no co-sender channel was estimated — the caller
    treats that as a failed placement attempt.
    """
    co_list = [ch for ch in channels.cosenders if ch is not None]
    if not co_list:
        return None
    bins = params.occupied_bins()
    noise = max(channels.noise_var, 1e-15)
    sender1 = np.abs(channels.lead.on_bins(bins)) ** 2 / noise
    sender2 = np.abs(co_list[0].on_bins(bins)) ** 2 / noise
    joint = sender1 + sender2
    return {
        "sender1_snr_db": np.asarray(linear_to_db(sender1)),
        "sender2_snr_db": np.asarray(linear_to_db(sender2)),
        "sourcesync_snr_db": np.asarray(linear_to_db(joint)),
    }


def measure_profiles(
    target_snr_db: float,
    seed: int = 16,
    params: OFDMParams = DEFAULT_PARAMS,
    max_attempts: int = 5,
) -> dict[str, np.ndarray] | None:
    """Per-subcarrier SNR of sender 1, sender 2 and the joint transmission."""
    rng = _regime_rng(target_snr_db, seed)
    for _ in range(max_attempts):
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=target_snr_db,
            cosender_rx_snr_db=[target_snr_db],
            lead_cosender_snr_db=[20.0],
            params=params,
        )
        session = SourceSyncSession(topo, SourceSyncConfig(params=params), rng=rng)
        session.measure_delays()
        session.converge_tracking(rounds=3)
        channels = session.run_header_exchange(apply_tracking_feedback=False).channels
        if channels is None:
            continue
        profiles = _profiles_from_channels(channels, params)
        if profiles is not None:
            return profiles
    return None


class _RegimeLane(Lane):
    """One SNR regime's placement search, attempts advancing in lockstep.

    Each wave is one placement attempt: every live regime draws a topology
    and session from its own generator (in lane order), then the
    measurement sequence — probe legs, tracking convergence, the header
    exchange — runs through the lockstep kernels of
    :mod:`repro.core.ensemble`, which consume each session's generator in
    exactly its sequential order.  A regime finishes on its first usable
    co-sender estimate or after ``max_attempts`` tries.
    """

    stacked = True

    def __init__(
        self, target_snr_db: float, seed: int, params: OFDMParams, max_attempts: int
    ) -> None:
        self.target_snr_db = target_snr_db
        self.rng = _regime_rng(target_snr_db, seed)
        self.after = None
        self.params = params
        self.max_attempts = max_attempts
        self.attempts = 0
        self.profiles: dict[str, np.ndarray] | None = None

    @property
    def finished(self) -> bool:
        """Done on the first usable estimate or when attempts run out."""
        return self.profiles is not None or self.attempts >= self.max_attempts

    @classmethod
    def advance_lanes(cls, lanes: list["_RegimeLane"]) -> None:
        """One placement attempt per live regime; measurement runs batched."""
        from repro.core.ensemble import (
            converge_tracking_batch,
            measure_delays_batch,
            run_header_exchanges_batch,
        )

        sessions = []
        for lane in lanes:
            topo = JointTopology.from_snrs(
                lane.rng,
                lead_rx_snr_db=lane.target_snr_db,
                cosender_rx_snr_db=[lane.target_snr_db],
                lead_cosender_snr_db=[20.0],
                params=lane.params,
            )
            sessions.append(
                SourceSyncSession(topo, SourceSyncConfig(params=lane.params), rng=lane.rng)
            )
        measure_delays_batch(sessions)
        converge_tracking_batch(sessions, rounds=3)
        outcomes = run_header_exchanges_batch(
            sessions, repeats=1, apply_tracking_feedback=False
        )
        for lane, per_repeat in zip(lanes, outcomes):
            lane.attempts += 1
            channels = per_repeat[0].channels
            if channels is not None:
                lane.profiles = _profiles_from_channels(channels, lane.params)

    def result(self) -> dict[str, np.ndarray] | None:
        """The regime's profile dict (None when every attempt failed)."""
        return self.profiles


def measure_profiles_batched(
    targets: list[float],
    seed: int = 16,
    params: OFDMParams = DEFAULT_PARAMS,
    max_attempts: int = 5,
) -> list[dict[str, np.ndarray] | None]:
    """Profiles for every target regime at once, one result per target."""
    lanes = [_RegimeLane(target, seed, params, max_attempts) for target in targets]
    return LockstepScheduler().run(lanes)


@experiment(
    name="fig16",
    description="Per-subcarrier SNR of each sender and of the SourceSync joint transmission",
    config=Config,
    presets={"smoke": {}, "quick": {}, "full": {}},
    tags=("phy", "diversity"),
    summary_keys={
        "{regime}_single_flatness_db": "per-subcarrier SNR standard deviation of the better single sender in the {regime} regime",
        "{regime}_sourcesync_flatness_db": "per-subcarrier SNR standard deviation of the joint transmission in the {regime} regime",
        "{regime}_gain_db": "joint-transmission mean SNR gain (dB) over the senders' average in the {regime} regime",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate Fig. 16(a-c): per-subcarrier SNR in the three regimes."""
    params = config.params
    series: dict[str, list[float]] = {"subcarrier_index": list(range(params.n_occupied_subcarriers))}
    summary: dict[str, float] = {}
    if config.batched:
        batched = measure_profiles_batched(
            list(REGIME_TARGET_SNR_DB.values()),
            seed=config.seed, params=params, max_attempts=config.max_attempts,
        )
        per_regime = dict(zip(REGIME_TARGET_SNR_DB, batched))
    for regime, target in REGIME_TARGET_SNR_DB.items():
        if config.batched:
            profiles = per_regime[regime]
        else:
            profiles = measure_profiles(
                target, seed=config.seed, params=params, max_attempts=config.max_attempts
            )
        if profiles is None:
            continue
        for key, values in profiles.items():
            series[f"{regime}_{key}"] = values.tolist()
        single_flatness = 0.5 * (
            flatness_db(profiles["sender1_snr_db"]) + flatness_db(profiles["sender2_snr_db"])
        )
        joint_flatness = flatness_db(profiles["sourcesync_snr_db"])
        summary[f"{regime}_single_flatness_db"] = single_flatness
        summary[f"{regime}_sourcesync_flatness_db"] = joint_flatness
        summary[f"{regime}_gain_db"] = float(
            np.mean(profiles["sourcesync_snr_db"])
            - 0.5 * (np.mean(profiles["sender1_snr_db"]) + np.mean(profiles["sender2_snr_db"]))
        )
    return ExperimentResult(
        name="fig16",
        description="Per-subcarrier SNR of each sender and of the SourceSync joint transmission",
        series=series,
        summary=summary,
        paper_reference={
            "claim": "SourceSync improves per-subcarrier SNR and yields a flatter profile than either sender",
            "figure": "Fig. 16(a)-(c)",
        },
    )


SPEC = _run.spec
