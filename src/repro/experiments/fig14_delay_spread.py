"""Figure 14: time-domain delay spread of a single sender's channel.

The paper plots ``|H|^2`` against tap index for one transmitter's channel at
the WiGLAN platform's 128 MHz sampling rate, showing roughly 15 significant
taps — which is why SourceSync still needs a ~15-sample CP even with perfect
synchronization (the CP has to cover the channel's own multipath spread).

We reproduce the figure from the WiGLAN-rate multipath profile
(:data:`repro.channel.multipath.WIGLAN_PROFILE`), averaging the tap powers
of many channel realisations and reporting how many taps remain significant.

The whole Monte-Carlo ensemble is drawn with one batched generator call
(:func:`repro.experiments.batch.draw_tap_ensemble`), which consumes the RNG
stream in the same order as the per-realisation loop it replaced, so the
seeded channel realisations are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.multipath import WIGLAN_PROFILE, MultipathProfile
from repro.experiments.batch import draw_tap_ensemble
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment

__all__ = ["Config", "SPEC", "average_tap_powers", "count_significant_taps"]


@dataclass(frozen=True)
class Config:
    """Parameters of the Fig. 14 reproduction."""

    profile: MultipathProfile = WIGLAN_PROFILE
    n_realizations: int = 200
    n_taps_plotted: int = 70
    seed: int = 14

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.n_taps_plotted < 1:
            raise ValueError("n_taps_plotted must be >= 1")


def average_tap_powers(
    profile: MultipathProfile = WIGLAN_PROFILE,
    n_realizations: int = 200,
    n_taps_plotted: int = 70,
    seed: int = 14,
) -> np.ndarray:
    """Average ``|h_k|^2`` over channel realisations, padded to the plot length."""
    ensemble = draw_tap_ensemble(profile, n_realizations, np.random.default_rng(seed))
    tap_powers = np.abs(ensemble.taps[:, :n_taps_plotted]) ** 2
    powers = np.zeros(n_taps_plotted)
    powers[: tap_powers.shape[1]] = tap_powers.mean(axis=0)
    return powers


def count_significant_taps(tap_powers: np.ndarray, threshold_fraction: float = 0.02) -> int:
    """Number of taps holding more than a threshold fraction of the peak power."""
    tap_powers = np.asarray(tap_powers, dtype=np.float64)
    if tap_powers.size == 0:
        return 0
    peak = tap_powers.max()
    if peak <= 0:
        return 0
    significant = np.nonzero(tap_powers >= threshold_fraction * peak)[0]
    return int(significant[-1] + 1) if significant.size else 0


@experiment(
    name="fig14",
    description="Delay spread of a single sender (|H|^2 vs tap index, 128 MHz sampling)",
    config=Config,
    presets={
        "smoke": {"n_realizations": 20},
        "quick": {"n_realizations": 100},
        "full": {"n_realizations": 1000},
    },
    tags=("channel", "phy"),
    summary_keys={
        "significant_taps": "number of channel taps above the significance threshold (paper: ~15)",
        "delay_spread_ns": "delay spread in ns implied by the significant-tap count (paper: ~117 ns)",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate Fig. 14: channel power vs tap index."""
    n_taps_plotted = config.n_taps_plotted
    powers = average_tap_powers(config.profile, config.n_realizations, n_taps_plotted, config.seed)
    n_significant = count_significant_taps(powers)
    sample_period_ns = 1e9 / 128e6  # the WiGLAN platform samples at 128 MHz
    return ExperimentResult(
        name="fig14",
        description="Delay spread of a single sender (|H|^2 vs tap index, 128 MHz sampling)",
        series={
            "tap_index": list(range(n_taps_plotted)),
            "tap_power": powers.tolist(),
        },
        summary={
            "significant_taps": float(n_significant),
            "delay_spread_ns": float(n_significant * sample_period_ns),
        },
        paper_reference={
            "claim": "the channel has around 15 significant taps (~117 ns), setting the minimum useful CP",
            "figure": "Fig. 14",
        },
    )


SPEC = _run.spec
