"""Ablation: windowed vs whole-band phase-slope delay estimation (§4.2a).

SourceSync estimates the packet-detection delay from the slope of the
channel phase across subcarriers, computed over windows narrower than the
channel's coherence bandwidth (3 MHz) and averaged.  A naive whole-band fit
unwraps the phase across deep fades and frequency-selective phase jumps,
which makes it much less reliable on multipath channels.  This ablation
quantifies that difference by injecting known delays and comparing the
error of the two estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn
from repro.channel.multipath import MultipathChannel, MultipathProfile
from repro.core.sync.detection_delay import (
    phase_slope_full_band,
    phase_slope_windowed,
    slope_to_delay_samples,
)
from repro.engine import Lane, LockstepScheduler
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.phy.equalizer import estimate_channel_ltf
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import long_training_field

__all__ = ["Config", "SPEC", "estimation_errors"]


@dataclass(frozen=True)
class Config:
    """Parameters of the §4.2 slope-estimator ablation.

    ``batched`` runs the trials as chained engine lanes on the single
    experiment generator and batches every estimate's FFT into one stacked
    transform (bit-identical to the sequential per-trial loop).
    """

    delays_samples: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    snr_db: float = 15.0
    n_trials: int = 15
    seed: int = 42
    params: OFDMParams = DEFAULT_PARAMS
    batched: bool = True

    def __post_init__(self) -> None:
        if not self.delays_samples:
            raise ValueError("delays_samples must be non-empty")
        if any(d < 0 for d in self.delays_samples):
            raise ValueError("injected delays must be >= 0 samples")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")


def _estimate_windows(
    delay: int,
    channel: MultipathChannel,
    ltf_scaled: np.ndarray,
    rng: np.random.Generator,
    params: OFDMParams,
) -> np.ndarray:
    """One estimate's noisy time-domain LTF windows (the estimate's only draws).

    Returns the two ``n_fft``-sample repetition windows *before* the FFT so
    the batched path can stack them into one transform; the noise draw is
    the single generator touch of the estimate.
    """
    shaped = channel.apply(ltf_scaled)
    padded = np.concatenate([np.zeros(delay, dtype=np.complex128), shaped])
    padded = padded + awgn(padded.size, 1.0, rng)
    reps = np.empty((2, params.n_fft), dtype=np.complex128)
    for rep in range(2):
        begin = 2 * params.cp_samples + rep * params.n_fft
        reps[rep] = padded[begin : begin + params.n_fft]
    return reps


class _SlopeTrialLane(Lane):
    """One trial's draws for the batched slope ablation.

    All trials share the experiment's single generator, so the lanes are
    chained in input order (``after=`` the previous trial) — the only form
    of generator sharing the engine allows.  Each lane draws its channel
    and every estimate's noise during (chained) setup, in exactly the
    sequential loop's order, and returns the stacked time-domain windows;
    the FFTs run once over the whole ensemble after the scheduler.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        delays_samples: tuple[float, ...],
        profile: MultipathProfile,
        ltf_scaled: np.ndarray,
        params: OFDMParams,
        after: "_SlopeTrialLane | None" = None,
    ) -> None:
        self.rng = rng
        self.after = after
        self.delays_samples = delays_samples
        self.profile = profile
        self.ltf_scaled = ltf_scaled
        self.params = params
        self.windows: np.ndarray | None = None

    def setup(self) -> None:
        """Draw the trial's channel and every estimate's noisy windows."""
        channel = MultipathChannel.random(self.profile, self.rng).normalized()
        windows = [_estimate_windows(0, channel, self.ltf_scaled, self.rng, self.params)]
        for delay in self.delays_samples:
            windows.append(
                _estimate_windows(int(delay), channel, self.ltf_scaled, self.rng, self.params)
            )
        self.windows = np.stack(windows)

    @property
    def finished(self) -> bool:
        """Trials complete during (chained) setup."""
        return self.windows is not None

    def result(self) -> np.ndarray:
        """The trial's stacked ``(1 + n_delays, 2, n_fft)`` window array."""
        return self.windows


def estimation_errors(
    delays_samples: tuple[float, ...],
    snr_db: float = 15.0,
    n_trials: int = 20,
    profile: MultipathProfile | None = None,
    seed: int = 42,
    params: OFDMParams = DEFAULT_PARAMS,
    batched: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute estimation errors (samples) of the windowed and full-band estimators.

    Each trial applies a random multipath channel and a known integer
    delay to the long training field, adds noise, estimates the channel and
    converts both slope estimates back to delays.  Because the channel has
    its own (unknown) group delay, the error is measured against the
    difference between two delayed copies of the *same* channel — exactly
    the relative quantity SourceSync relies on.

    ``batched`` routes the trials through the shared engine as chained
    lanes and computes every estimate's FFT in one stacked transform; the
    draw order and results are bit-identical to the sequential loop.
    """
    rng = np.random.default_rng(seed)
    profile = profile if profile is not None else MultipathProfile(n_taps=6, rms_delay_spread_samples=2.0)
    ltf = long_training_field(params)
    amplitude = np.sqrt(10.0 ** (snr_db / 10.0))
    windowed_errors: list[float] = []
    fullband_errors: list[float] = []

    def channel_estimate(delay: int, channel: MultipathChannel) -> np.ndarray:
        reps = _estimate_windows(delay, channel, ltf * amplitude, rng, params)
        return estimate_channel_ltf(
            np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft), params
        )

    def windowed_offset(channel_est: np.ndarray) -> float:
        slope, _ = phase_slope_windowed(channel_est, params)
        return slope_to_delay_samples(slope, params)

    def fullband_offset(channel_est: np.ndarray) -> float:
        return slope_to_delay_samples(phase_slope_full_band(channel_est, params), params)

    def record_errors(reference: np.ndarray, shifted_list: list[np.ndarray]) -> None:
        """Append one trial's per-delay errors from its channel estimates."""
        for delay, shifted in zip(delays_samples, shifted_list):
            # Delaying the signal by `delay` makes the (fixed) FFT window
            # effectively `delay` samples early, so the implied offset of the
            # shifted estimate minus the reference estimate should be -delay.
            measured_windowed = windowed_offset(shifted) - windowed_offset(reference)
            measured_fullband = fullband_offset(shifted) - fullband_offset(reference)
            windowed_errors.append(abs(measured_windowed + float(delay)))
            fullband_errors.append(abs(measured_fullband + float(delay)))

    if batched:
        lanes: list[_SlopeTrialLane] = []
        previous: _SlopeTrialLane | None = None
        for _ in range(n_trials):
            lane = _SlopeTrialLane(
                rng, delays_samples, profile, ltf * amplitude, params, after=previous
            )
            lanes.append(lane)
            previous = lane
        all_windows = LockstepScheduler().run(lanes)
        if all_windows:
            # One stacked FFT over every window of every estimate of every
            # trial; rows are bit-identical to the sequential 1-D transforms.
            stacked = np.concatenate(all_windows, axis=0)
            spectra = np.fft.fft(stacked, axis=-1) / np.sqrt(params.n_fft)
            estimates = [estimate_channel_ltf(spectra[k], params) for k in range(len(spectra))]
            n_estimates = 1 + len(delays_samples)
            for trial in range(n_trials):
                base = trial * n_estimates
                record_errors(estimates[base], estimates[base + 1 : base + n_estimates])
    else:
        for _ in range(n_trials):
            channel = MultipathChannel.random(profile, rng).normalized()
            reference = channel_estimate(0, channel)
            shifted_list = [channel_estimate(int(delay), channel) for delay in delays_samples]
            record_errors(reference, shifted_list)
    return np.asarray(windowed_errors), np.asarray(fullband_errors)


@experiment(
    name="ablation_slope",
    description="Detection-delay estimation error: 3 MHz windowed slope vs whole-band fit",
    config=Config,
    presets={
        "smoke": {"delays_samples": (2.0,), "n_trials": 2},
        "quick": {"n_trials": 8},
        "full": {"n_trials": 40},
    },
    tags=("ablation", "sync"),
    summary_keys={
        "windowed_median_error_ns": "median detection-delay estimation error (ns) of the 3 MHz windowed slope fit",
        "full_band_median_error_ns": "median estimation error (ns) of the whole-band slope fit",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Compare windowed and whole-band slope estimators on multipath channels."""
    params = config.params
    windowed, fullband = estimation_errors(
        config.delays_samples, config.snr_db, config.n_trials,
        seed=config.seed, params=params, batched=config.batched,
    )
    return ExperimentResult(
        name="ablation_slope",
        description="Detection-delay estimation error: 3 MHz windowed slope vs whole-band fit",
        series={
            "estimator": ["windowed_3mhz", "full_band"],
            "median_error_samples": [float(np.median(windowed)), float(np.median(fullband))],
            "p90_error_samples": [
                float(np.percentile(windowed, 90)),
                float(np.percentile(fullband, 90)),
            ],
        },
        summary={
            "windowed_median_error_ns": float(np.median(windowed)) * params.sample_period_ns,
            "full_band_median_error_ns": float(np.median(fullband)) * params.sample_period_ns,
        },
        paper_reference={
            "claim": "slopes are computed over 3 MHz windows (below the coherence bandwidth) and averaged (§4.2)",
            "section": "§4.2",
        },
    )


SPEC = _run.spec
