"""Packet detection and coarse/fine timing estimation.

The detector models what the paper calls *packet detection delay* (§4.2a):
a real receiver does not detect a packet at the instant its first sample
arrives at the antenna; it needs to accumulate correlation energy, and the
instant of detection varies with SNR and multipath.  SourceSync's central
measurement trick is to estimate this delay from the slope of the channel
phase across subcarriers and subtract it.

Two detectors are provided:

* :func:`detect_packet_autocorrelation` — a Schmidl & Cox style detector
  using the periodicity of the short training field.  Its detection index
  naturally lags the true packet start, giving a realistic detection delay.
* :func:`detect_packet_crosscorrelation` — a matched-filter detector against
  the known STF, used by tests as a near-ground-truth reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import short_training_field

__all__ = [
    "DetectionResult",
    "detect_packet_autocorrelation",
    "detect_packet_autocorrelation_batch",
    "detect_packet_crosscorrelation",
    "estimate_coarse_cfo",
    "estimate_coarse_cfo_rows",
    "fine_timing_ltf",
]


@dataclass(frozen=True)
class DetectionResult:
    """Result of packet detection.

    Attributes
    ----------
    detected:
        Whether a packet was found at all.
    detect_index:
        Sample index at which the detector declared a packet.  For the
        autocorrelation detector this instant *lags* the true packet start
        by the metric run length plus the correlation lag.
    start_index:
        The detector's best estimate of the first sample of the packet
        (coarse timing).  For the autocorrelation detector this is the
        first sample of the above-threshold metric run — the point where
        the correlation window first lies fully inside the training field —
        which is earlier than ``detect_index``; the cross-correlation
        detector returns its matched-filter peak.
    metric:
        Peak value of the detection metric: over the qualifying run on
        success, over everything examined on failure (the best candidate
        that still failed the threshold-run criterion).
    """

    detected: bool
    detect_index: int
    start_index: int
    metric: float


def detect_packet_autocorrelation(
    samples: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    threshold: float = 0.6,
    min_energy: float = 1e-9,
    required_run: int = 8,
) -> DetectionResult:
    """Schmidl & Cox delay-and-correlate packet detection.

    The short training field is periodic with period ``n_fft/4``; the
    detector computes the normalised autocorrelation at that lag and declares
    a packet once the metric stays above ``threshold`` for ``required_run``
    consecutive samples.  The declared index therefore *lags* the true packet
    start by a data-dependent amount — exactly the detection-delay
    variability that SourceSync must estimate and cancel — while
    ``start_index`` backs the declaration off to the beginning of the
    qualifying run, the detector's best coarse-timing estimate.

    Thin wrapper over :func:`detect_packet_autocorrelation_batch` with a
    batch of one, so scalar and ensemble detection are bit-identical.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    return detect_packet_autocorrelation_batch(
        samples[None, :], params, threshold, min_energy, required_run
    )[0]


def detect_packet_autocorrelation_batch(
    samples: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    threshold: float = 0.6,
    min_energy: float = 1e-9,
    required_run: int = 8,
) -> list[DetectionResult]:
    """Vectorised Schmidl & Cox detection over a ``(n_packets, n)`` ensemble.

    Every stage — the lag products, the sliding correlation/energy sums
    (one cumulative sum per quantity instead of per-sample convolutions),
    the threshold-run scan and the first-hit search — carries the packet
    batch axis, so an ensemble of streams is detected with a fixed number
    of numpy calls.  Rows may be zero-padded to a common length: padding
    carries no energy, so it can neither create a detection nor change a
    row's metric peak.

    Returns one :class:`DetectionResult` per row, in input order.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 2:
        raise ValueError("expected a (n_packets, n_samples) sample array")
    n_rows, n = samples.shape
    lag = params.n_fft // 4
    if n_rows == 0:
        return []
    if n < 2 * lag + required_run:
        return [DetectionResult(False, -1, -1, 0.0)] * n_rows

    # Autocorrelation and energy over a sliding window of `lag` samples;
    # the sliding sums are cumulative-sum differences along the time axis.
    lagged = np.conj(samples[:, :-lag])
    prod = np.multiply(samples[:, lag:], lagged, out=lagged)
    energy = np.abs(samples[:, lag:]) ** 2
    corr = _sliding_sum(prod, lag)
    power = _sliding_sum(energy, lag).real
    metric = np.abs(corr) / np.maximum(power, min_energy)

    # Find, per row, the first index where `required_run` consecutive
    # samples exceed the threshold and the window actually contains energy:
    # a trailing window of `required_run` samples is all-valid exactly when
    # the running count of valid samples grows by `required_run` over it,
    # which turns the per-sample scan into one cumulative sum plus one
    # argmax per row.
    valid = (metric > threshold) & (power > min_energy * lag)
    results: list[DetectionResult] = []
    if valid.shape[1] >= required_run:
        counts = np.cumsum(valid, axis=1, dtype=np.int64)
        run_counts = counts[:, required_run - 1 :].copy()
        run_counts[:, 1:] -= counts[:, :-required_run]
        hits = run_counts == required_run
        any_hit = hits.any(axis=1)
        first_hit = np.argmax(hits, axis=1)
        peak_metric = metric.max(axis=1)
        for row in range(n_rows):
            if any_hit[row]:
                idx = int(first_hit[row]) + required_run - 1
                run_start = idx - required_run + 1
                detect = idx + lag  # align to the sample position in `samples`
                run_peak = float(metric[row, run_start : idx + 1].max())
                results.append(DetectionResult(True, detect, run_start, run_peak))
            else:
                results.append(DetectionResult(False, -1, -1, float(peak_metric[row])))
        return results
    peak = metric.max(axis=1) if metric.size else np.zeros(n_rows)
    return [DetectionResult(False, -1, -1, float(peak[row])) for row in range(n_rows)]


def _sliding_sum(values: np.ndarray, width: int) -> np.ndarray:
    """Sliding-window sums of ``width`` along the last axis (cumsum based)."""
    cum = np.cumsum(values, axis=-1)
    out = cum[..., width - 1 :].copy()
    out[..., 1:] -= cum[..., :-width]
    return out


def detect_packet_crosscorrelation(
    samples: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    threshold: float = 0.5,
) -> DetectionResult:
    """Matched-filter detection against the known short training field.

    Returns the index of the strongest normalised cross-correlation peak.
    This detector knows the transmitted waveform and is therefore much more
    precise than the autocorrelation detector; the library uses it as the
    reference ("ground truth") timing in tests and experiments.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    stf = short_training_field(params)
    if samples.size < stf.size:
        return DetectionResult(False, -1, -1, 0.0)
    # normalised cross correlation
    corr = np.correlate(samples, stf, mode="valid")
    stf_energy = np.sqrt(np.sum(np.abs(stf) ** 2))
    window = np.ones(stf.size)
    sig_energy = np.sqrt(np.convolve(np.abs(samples) ** 2, window, mode="valid"))
    metric = np.abs(corr) / np.maximum(stf_energy * sig_energy, 1e-12)
    peak = int(np.argmax(metric))
    if metric[peak] < threshold:
        return DetectionResult(False, -1, -1, float(metric[peak]))
    return DetectionResult(True, peak, peak, float(metric[peak]))


def fine_timing_ltf(
    samples: np.ndarray,
    coarse_start: int,
    params: OFDMParams = DEFAULT_PARAMS,
    search: int = 48,
) -> int:
    """Refine the frame-start estimate using the long training field.

    The coarse (STF-based) detector lags the true packet start by a
    data-dependent number of samples.  A standard receiver refines timing by
    cross-correlating against the known LTF symbol; the refined start is what
    an 802.11 receiver aligns its FFT windows to.  (SourceSync additionally
    estimates the *residual* offset from the channel phase slope, §4.2.)

    Parameters
    ----------
    samples:
        Received sample stream.
    coarse_start:
        Coarse packet-start estimate (e.g. the autocorrelation detection index).
    search:
        Half-width of the search window in samples.

    Returns
    -------
    int
        Refined estimate of the index of the first packet sample.
    """
    from repro.phy.preamble import ltf_symbol, short_training_field

    samples = np.asarray(samples, dtype=np.complex128)
    reference = ltf_symbol(params)
    stf_len = short_training_field(params).size
    ltf_offset = stf_len + 2 * params.cp_samples  # first LTF repetition
    nominal = coarse_start + ltf_offset
    lo = max(nominal - search, 0)
    hi = min(nominal + search, samples.size - reference.size - params.n_fft)
    if hi <= lo:
        return int(coarse_start)
    # Correlate both LTF repetitions against every candidate offset at once:
    # the candidate windows form a (n_candidates, len(reference)) view and
    # each correlation is one matrix-vector product.
    ref_conj = np.conj(reference)
    span = np.lib.stride_tricks.sliding_window_view(
        samples[lo : hi + params.n_fft + reference.size], reference.size
    )
    n_candidates = hi + 1 - lo
    first = np.abs(span[:n_candidates] @ ref_conj)
    second = np.abs(span[params.n_fft : params.n_fft + n_candidates] @ ref_conj)
    metric = first + second
    # argmax returns the first maximum, matching the scalar scan's strict
    # "improve only on >" update rule.
    best_idx = lo + int(np.argmax(metric))
    return int(best_idx - ltf_offset)


def estimate_coarse_cfo(
    samples: np.ndarray,
    start_index: int,
    params: OFDMParams = DEFAULT_PARAMS,
    n_periods: int = 8,
) -> float | np.ndarray:
    """Coarse carrier-frequency-offset estimate from STF periodicity.

    Returns the CFO in Hz.  The estimate uses the phase of the
    autocorrelation at the STF period, averaged over ``n_periods`` periods.
    ``samples`` may carry leading batch axes (frames already aligned so the
    STF begins at ``start_index`` in every row), in which case one CFO per
    packet is returned.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    lag = params.n_fft // 4
    span = lag * n_periods
    segment = samples[..., start_index : start_index + span + lag]
    if segment.shape[-1] < span + lag:
        raise ValueError("not enough samples after start_index for CFO estimation")
    lagged = np.conj(segment[..., :-lag])
    prod = np.multiply(segment[..., lag:], lagged, out=lagged)
    angle = np.angle(prod.sum(axis=-1))
    cfo = angle / (2.0 * np.pi * lag * params.sample_period_s)
    return float(cfo) if np.ndim(cfo) == 0 else cfo


def estimate_coarse_cfo_rows(
    rows: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    mask: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    n_periods: int = 8,
) -> np.ndarray:
    """Coarse CFO of a zero-padded row ensemble with per-row start indices.

    The masked-batch counterpart of :func:`estimate_coarse_cfo` used by the
    lockstep joint-frame paths: rows where ``mask`` is False or where the
    estimation window would run past the row's true (unpadded) ``length``
    report 0.0 — mirroring the sequential callers' ``except ValueError``
    fallbacks — and all remaining rows are estimated in one stacked pass.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    starts = np.asarray(starts, dtype=np.int64)
    lag = params.n_fft // 4
    span = lag * n_periods
    cfo = np.zeros(rows.shape[0], dtype=np.float64)
    usable = np.asarray(mask, dtype=bool) & (starts + span + lag <= np.asarray(lengths))
    idx = np.nonzero(usable)[0]
    if idx.size == 0:
        return cfo
    gather = starts[idx, None] + np.arange(span + lag)[None, :]
    segments = rows[idx[:, None], gather]
    lagged = np.conj(segments[:, :-lag])
    prod = np.multiply(segments[:, lag:], lagged, out=lagged)
    angle = np.angle(prod.sum(axis=-1))
    cfo[idx] = angle / (2.0 * np.pi * lag * params.sample_period_s)
    return cfo
