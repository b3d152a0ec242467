"""Ablation: Alamouti smart combining vs naive identical transmission (§6).

If two synchronized senders naively transmit the same symbols, their
signals combine with a random relative phase per subcarrier: some
subcarriers add constructively, others cancel almost completely, and the
deep fades defeat the convolutional code.  The Smart Combiner's Alamouti
coding guarantees an effective gain of ``|h1|^2 + |h2|^2`` per subcarrier
regardless of phase.

This ablation draws many random channel pairs and compares, for each
scheme, the distribution of the post-combining per-subcarrier gain and the
fraction of subcarriers that end up in a deep fade.

The channel-pair ensemble is fully batched: one generator call draws every
tap of every realisation (in the same stream order as the per-realisation
loop it replaced, so seeded results are unchanged) and the frequency
responses and combining gains are stacked array operations
(:func:`repro.experiments.batch.draw_frequency_response_ensemble`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.combining.stbc import SmartCombiner
from repro.experiments.batch import draw_frequency_response_ensemble
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["Config", "SPEC", "combining_gain_samples"]


@dataclass(frozen=True)
class Config:
    """Parameters of the §6 combining ablation."""

    n_realizations: int = 300
    deep_fade_threshold_db: float = -10.0
    seed: int = 6
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.deep_fade_threshold_db >= 0.0:
            raise ValueError("deep_fade_threshold_db must be negative")


def combining_gain_samples(
    scheme: str,
    n_realizations: int = 300,
    seed: int = 6,
    params: OFDMParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """Per-subcarrier post-combining power gains for a combining scheme.

    For the naive scheme the effective channel is ``|h1 + h2|^2`` (the
    signals superpose directly); for the Alamouti-family schemes it is
    ``|h1|^2 + |h2|^2``.
    """
    rng = np.random.default_rng(seed)
    combiner = SmartCombiner(scheme if scheme != "naive" else "replicated_alamouti")
    responses = draw_frequency_response_ensemble(n_realizations, 2, rng, params=params)
    h1, h2 = responses[:, 0, :], responses[:, 1, :]
    if scheme == "naive":
        gains = np.abs(h1 + h2) ** 2
    else:
        # combine_branch_channels broadcasts over the leading ensemble axis,
        # so the whole batch is one effective_gain call.
        gains = combiner.effective_gain([h1, h2])
    return gains.reshape(-1)


@experiment(
    name="ablation_combining",
    description="Post-combining subcarrier gain: naive identical transmission vs Alamouti",
    config=Config,
    presets={
        "smoke": {"n_realizations": 40},
        "quick": {"n_realizations": 150},
        "full": {"n_realizations": 1000},
    },
    tags=("ablation", "phy"),
    batched=True,
    summary_keys={
        "naive_deep_fade_fraction": "fraction of subcarriers in a deep fade under naive identical transmission",
        "alamouti_deep_fade_fraction": "fraction of subcarriers in a deep fade with Alamouti coding",
        "p5_gain_improvement": "5th-percentile combining-gain ratio, Alamouti over naive",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Compare naive and Alamouti combining across random channel pairs."""
    naive = combining_gain_samples("naive", config.n_realizations, config.seed, config.params)
    alamouti = combining_gain_samples(
        "replicated_alamouti", config.n_realizations, config.seed, config.params
    )
    threshold = 10.0 ** (config.deep_fade_threshold_db / 10.0)

    def stats(gains: np.ndarray) -> tuple[float, float, float]:
        return (
            float(np.mean(gains)),
            float(np.percentile(gains, 5)),
            float(np.mean(gains < threshold)),
        )

    naive_mean, naive_p5, naive_fade = stats(naive)
    ala_mean, ala_p5, ala_fade = stats(alamouti)
    return ExperimentResult(
        name="ablation_combining",
        description="Post-combining subcarrier gain: naive identical transmission vs Alamouti",
        series={
            "scheme": ["naive", "alamouti"],
            "mean_gain": [naive_mean, ala_mean],
            "p5_gain": [naive_p5, ala_p5],
            "deep_fade_fraction": [naive_fade, ala_fade],
        },
        summary={
            "naive_deep_fade_fraction": naive_fade,
            "alamouti_deep_fade_fraction": ala_fade,
            "p5_gain_improvement": ala_p5 / max(naive_p5, 1e-9),
        },
        paper_reference={
            "claim": "naive identical transmission produces destructive fades; Alamouti coding eliminates them (§6)",
            "section": "§6",
        },
    )


SPEC = _run.spec
