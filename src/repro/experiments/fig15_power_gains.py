"""Figure 15: power gains of joint transmission across SNR regimes.

Two senders and a receiver are placed so that the individual sender-receiver
links fall in a low (<6 dB), medium (6-12 dB) or high (>12 dB) SNR regime;
the experiment compares the average SNR across subcarriers when each sender
transmits alone against the joint SourceSync transmission.  The paper
reports a 2-3 dB gain in every regime (two equal-power senders add up to
3 dB of received power).

The measurement is taken exactly the way the paper's receiver would take
it: from the per-sender channel estimates of a received joint-frame header
(lead preamble + co-sender training), so the whole synchronization and
estimation path is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.snr import SNR_REGIMES
from repro.channel.awgn import linear_to_db
from repro.core import JointTopology, SourceSyncSession, SourceSyncConfig
from repro.core.ensemble import (
    converge_tracking_batch,
    measure_delays_batch,
    run_header_exchanges_batch,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["Config", "SPEC", "REGIME_TARGET_SNR_DB"]


@dataclass(frozen=True)
class Config:
    """Parameters of the Fig. 15 reproduction.

    Every placement of every regime draws from its own spawned generator,
    and all placements advance in lockstep through the batched joint-frame
    core path.
    """

    n_placements: int = 4
    seed: int = 15
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if self.n_placements < 1:
            raise ValueError("n_placements must be >= 1")

#: Representative average link SNRs for each regime of §8.2.
REGIME_TARGET_SNR_DB = {"low": 4.0, "medium": 9.0, "high": 16.0}


def _snr_from_channel(channel_power: np.ndarray, noise_var: float) -> float:
    """Average SNR in dB from per-subcarrier channel power and noise."""
    return float(linear_to_db(np.mean(channel_power) / max(noise_var, 1e-15)))


def _placement_session(
    target_snr_db: float, rng: np.random.Generator, params: OFDMParams
) -> SourceSyncSession:
    """Build one placement's session from that placement's own generator."""
    snr_a = target_snr_db + float(rng.uniform(-1.5, 1.5))
    snr_b = target_snr_db + float(rng.uniform(-1.5, 1.5))
    topo = JointTopology.from_snrs(
        rng,
        lead_rx_snr_db=snr_a,
        cosender_rx_snr_db=[snr_b],
        lead_cosender_snr_db=[20.0],
        params=params,
    )
    return SourceSyncSession(topo, SourceSyncConfig(params=params), rng=rng)


def _regime_values(
    channels_list: list,
    params: OFDMParams,
) -> tuple[list[float], list[float], list[np.ndarray]]:
    """Fold per-placement header channel estimates into the Fig. 15 metrics."""
    single: list[float] = []
    joint: list[float] = []
    profiles: list[np.ndarray] = []
    for channels in channels_list:
        if channels is None:
            continue
        lead_power = np.abs(channels.lead.on_bins(params.occupied_bins())) ** 2
        single.append(_snr_from_channel(lead_power, channels.noise_var))
        co_list = [ch for ch in channels.cosenders if ch is not None]
        if co_list:
            co_power = np.abs(co_list[0].on_bins(params.occupied_bins())) ** 2
            single.append(_snr_from_channel(co_power, channels.noise_var))
            joint_power = lead_power + co_power
        else:
            joint_power = lead_power
        joint.append(_snr_from_channel(joint_power, channels.noise_var))
        profiles.append(channels.per_subcarrier_snr_db())
    return single, joint, profiles


def _placement_rngs(
    target_snr_db: float, n_placements: int, seed: int
) -> list[np.random.Generator]:
    """One spawned generator per placement of the regime at ``target_snr_db``."""
    root = np.random.SeedSequence((seed, int(target_snr_db * 10)))
    return [np.random.default_rng(child) for child in root.spawn(n_placements)]


@experiment(
    name="fig15",
    description="Average SNR of single sender vs SourceSync joint transmission per SNR regime",
    config=Config,
    presets={
        "smoke": {"n_placements": 1},
        "quick": {"n_placements": 3},
        "full": {"n_placements": 10},
    },
    tags=("phy", "diversity"),
    summary_keys={
        "min_gain_db": "smallest joint-over-single average SNR gain (dB) across the regimes (paper: 2-3 dB)",
        "max_gain_db": "largest joint-over-single average SNR gain (dB) across the regimes",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate Fig. 15: average SNR, single sender vs SourceSync, per regime.

    Every placement of *every* regime advances in one lockstep group; each
    placement's session measures its delays, converges its tracking loop
    and reads the per-sender channels of one header exchange.
    """
    regimes = list(SNR_REGIMES.keys())
    cells = [
        (regime, _placement_session(REGIME_TARGET_SNR_DB[regime], rng, config.params))
        for regime in regimes
        for rng in _placement_rngs(REGIME_TARGET_SNR_DB[regime], config.n_placements, config.seed)
    ]
    sessions = [session for _, session in cells]
    measure_delays_batch(sessions)
    converge_tracking_batch(sessions, rounds=3)
    outcomes = run_header_exchanges_batch(sessions, apply_tracking_feedback=False)
    per_regime: dict[str, tuple[list[float], list[float], list[np.ndarray]]] = {}
    for regime in regimes:
        channels_list = [
            outcome.channels
            for (cell_regime, _), outcome in zip(cells, outcomes)
            if cell_regime == regime
        ]
        per_regime[regime] = _regime_values(channels_list, config.params)
    single_means: list[float] = []
    joint_means: list[float] = []
    gains: list[float] = []
    for regime in regimes:
        single, joint, _ = per_regime[regime]
        single_mean = float(np.mean(single)) if single else float("nan")
        joint_mean = float(np.mean(joint)) if joint else float("nan")
        single_means.append(single_mean)
        joint_means.append(joint_mean)
        gains.append(joint_mean - single_mean)
    return ExperimentResult(
        name="fig15",
        description="Average SNR of single sender vs SourceSync joint transmission per SNR regime",
        series={
            "regime": regimes,
            "single_sender_snr_db": single_means,
            "sourcesync_snr_db": joint_means,
            "gain_db": gains,
        },
        summary={
            "min_gain_db": float(np.nanmin(gains)),
            "max_gain_db": float(np.nanmax(gains)),
        },
        paper_reference={
            "claim": "SourceSync improves average SNR by 2-3 dB in the low, medium and high regimes",
            "figure": "Fig. 15",
        },
    )


SPEC = _run.spec
