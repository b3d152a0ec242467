"""Packet-detection-delay estimation from the channel phase slope (§4.2a).

A delay of ``delta`` samples between the true start of a packet and the
instant the receiver detects it shows up, after the FFT, as a linear phase
ramp across OFDM subcarriers: subcarrier ``i`` is rotated by
``2*pi*i*delta / Ns`` (Eq. 1 of the paper).  SourceSync therefore estimates
``delta`` by measuring the slope of the channel phase versus subcarrier
index.

Because real channels are only flat over their coherence bandwidth, the
slope is estimated over windows of consecutive subcarriers spanning about
3 MHz (less than the coherence bandwidth of indoor channels) and the
per-window slopes are averaged — exactly the procedure of §4.2.  The
whole-band fit is also provided for the ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.phy.equalizer import ChannelEstimate
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = [
    "phase_slope_windowed",
    "phase_slope_windowed_batch",
    "phase_slope_full_band",
    "slope_to_delay_samples",
    "delay_samples_to_slope",
]


def _slope_of_window(offsets: np.ndarray, phases: np.ndarray) -> float:
    """Least-squares slope of unwrapped phase over one subcarrier window."""
    unwrapped = np.unwrap(phases)
    centered = offsets - offsets.mean()
    denom = float(np.sum(centered**2))
    if denom <= 0:
        return 0.0
    return float(np.sum(centered * (unwrapped - unwrapped.mean())) / denom)


#: Precomputed window layouts keyed by (params, bandwidth, min size) — the
#: numerology is a frozen (hashable) dataclass, so equal numerologies share
#: one entry: window index arrays into the occupied-subcarrier vector,
#: grouped by window length so every group batches into one array operation.
_WINDOW_LAYOUT_CACHE: dict[tuple, list[tuple[np.ndarray, np.ndarray, float]]] = {}


def _window_layout(
    params: OFDMParams, window_bandwidth_hz: float, min_window: int
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Slope windows over the occupied subcarriers, grouped by window length.

    Returns a list of groups ``(indices, centered_offsets, denom)`` where
    ``indices`` is ``(n_windows, window_len)`` into the occupied-subcarrier
    vector, ``centered_offsets`` the mean-removed subcarrier offsets shared
    by every window of the group, and ``denom`` the least-squares
    denominator.  Windows never straddle the DC hole or the guard bands
    (runs of consecutive offsets are windowed independently).
    """
    offsets = params.occupied_offsets()
    key = (params, float(window_bandwidth_hz), int(min_window))
    cached = _WINDOW_LAYOUT_CACHE.get(key)
    if cached is not None:
        return cached
    window_size = max(int(round(window_bandwidth_hz / params.subcarrier_spacing_hz)), min_window)
    by_length: dict[int, list[np.ndarray]] = {}
    run_start = 0
    for idx in range(1, offsets.size + 1):
        end_of_run = idx == offsets.size or offsets[idx] != offsets[idx - 1] + 1
        if not end_of_run:
            continue
        run_len = idx - run_start
        for w0 in range(0, run_len - min_window + 1, window_size):
            w1 = min(w0 + window_size, run_len)
            if w1 - w0 < min_window:
                continue
            by_length.setdefault(w1 - w0, []).append(np.arange(run_start + w0, run_start + w1))
        run_start = idx
    groups: list[tuple[np.ndarray, np.ndarray, float]] = []
    for length, index_rows in sorted(by_length.items()):
        indices = np.stack(index_rows)
        # Consecutive offsets mean every window of this length shares the
        # same mean-removed abscissa (and therefore the same denominator).
        base = offsets[indices[0]].astype(float)
        centered = base - base.mean()
        groups.append((indices, centered, float(np.sum(centered**2))))
    _WINDOW_LAYOUT_CACHE[key] = groups
    return groups


def phase_slope_windowed(
    channel: ChannelEstimate | np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    window_bandwidth_hz: float = 3e6,
    min_window: int = 2,
) -> tuple[float, int]:
    """Average phase slope (radians per subcarrier) over coherence-bandwidth windows.

    Parameters
    ----------
    channel:
        A :class:`ChannelEstimate` or a raw length-``n_fft`` complex response.
    window_bandwidth_hz:
        Width of each slope-estimation window; the paper uses 3 MHz, which is
        below the coherence bandwidth of indoor channels.
    min_window:
        Minimum number of subcarriers per window.

    Thin wrapper over :func:`phase_slope_windowed_batch` with a batch of
    one (all windows of the response are still processed as stacked array
    operations rather than a per-window Python loop).

    Returns
    -------
    (slope, n_windows)
        Mean slope in radians per subcarrier index, and the number of
        windows that contributed.
    """
    response = channel.response if isinstance(channel, ChannelEstimate) else np.asarray(channel)
    slopes, n_windows = phase_slope_windowed_batch(
        response[None, :], params, window_bandwidth_hz, min_window
    )
    return float(slopes[0]), int(n_windows[0])


def phase_slope_windowed_batch(
    responses: np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    window_bandwidth_hz: float = 3e6,
    min_window: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed phase slopes of a ``(n_channels, n_fft)`` response ensemble.

    The slope windows are precomputed per numerology and grouped by length,
    so the unwrap / least-squares fit / power weighting of *every* window of
    *every* channel runs as a handful of stacked array operations — the hot
    path of probe processing, misalignment measurement and joint-frame
    acquisition.

    Returns ``(slopes, n_windows)`` arrays of shape ``(n_channels,)``;
    channels whose windows all lack energy report slope 0 with 0 windows,
    matching :func:`phase_slope_windowed`.
    """
    responses = np.asarray(responses)
    if responses.ndim != 2:
        raise ValueError("expected a (n_channels, n_fft) response ensemble")
    n_channels = responses.shape[0]
    offsets = params.occupied_offsets()
    values = responses[:, params.offset_to_fft_bin(offsets)]

    weighted = np.zeros(n_channels, dtype=np.float64)
    weight_sum = np.zeros(n_channels, dtype=np.float64)
    n_windows = np.zeros(n_channels, dtype=np.int64)
    for indices, centered, denom in _window_layout(params, window_bandwidth_hz, min_window):
        window_vals = values[:, indices]  # (n_channels, n_windows, length)
        power = np.mean(np.abs(window_vals) ** 2, axis=-1)
        unwrapped = np.unwrap(np.angle(window_vals), axis=-1)
        if denom <= 0:
            slopes = np.zeros(power.shape)
        else:
            demeaned = unwrapped - unwrapped.mean(axis=-1, keepdims=True)
            slopes = (demeaned @ centered) / denom
        usable = power > 1e-18
        weighted += np.sum(np.where(usable, slopes * power, 0.0), axis=-1)
        weight_sum += np.sum(np.where(usable, power, 0.0), axis=-1)
        n_windows += np.sum(usable, axis=-1)
    slopes_out = np.where(weight_sum > 0, weighted / np.maximum(weight_sum, 1e-300), 0.0)
    return slopes_out, n_windows


def phase_slope_full_band(
    channel: ChannelEstimate | np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
) -> float:
    """Whole-band phase slope fit (the naive alternative used for ablation).

    In a frequency-selective channel the per-subcarrier channel phases are
    not aligned across the band, so unwrapping over the whole band is
    unreliable; the paper's windowed estimator avoids this.
    """
    response = channel.response if isinstance(channel, ChannelEstimate) else np.asarray(channel)
    offsets = params.occupied_offsets()
    values = response[params.offset_to_fft_bin(offsets)]
    order = np.argsort(offsets)
    return _slope_of_window(offsets[order].astype(float), np.angle(values[order]))


def slope_to_delay_samples(slope_rad_per_subcarrier: float, params: OFDMParams = DEFAULT_PARAMS) -> float:
    """Convert a phase slope to a detection delay via Eq. 1 of the paper.

    A positive delay (FFT window placed ``delta`` samples after the true
    packet start) produces a phase ramp of ``+2*pi*i*delta/Ns`` on subcarrier
    offset ``i`` with this library's FFT conventions, matching Fig. 5 of the
    paper, so the delay is ``slope * Ns / (2*pi)``.
    """
    return slope_rad_per_subcarrier * params.n_fft / (2.0 * np.pi)


def delay_samples_to_slope(delay_samples: float, params: OFDMParams = DEFAULT_PARAMS) -> float:
    """Inverse of :func:`slope_to_delay_samples` (useful in tests)."""
    return 2.0 * np.pi * delay_samples / params.n_fft
