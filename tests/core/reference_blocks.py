"""Scalar channel and probe building blocks: the oracle of the batched kernels.

``src/`` propagates, combines and probes only through its batched kernels:
:func:`repro.channel.composite.propagate_rows`,
:func:`repro.channel.composite.combine_ensemble_at_receiver` and the
lockstep probe and CFO waves of :mod:`repro.core.ensemble`.  This module
keeps the straightforward one-waveform-at-a-time form of each of them, so
that the tests can compare the kernels against it and the per-frame
orchestration of ``reference_session.py`` can run on it:

* :func:`propagate` applies one :class:`~repro.channel.composite.Link` to
  one waveform through its two stages, :func:`fractional_delay` and
  :func:`apply_cfo`; :func:`combine_at_receiver` superimposes several such
  contributions at one receiver and adds noise;
* :func:`probe_leg` receives one probe, and :func:`measure_propagation_delay`
  times probe/response exchanges (§4.2c, Eq. 2) with it;
* :func:`measure_cfo` averages the short-training-field CFO estimate over a
  few probes (§5), and :func:`apply_cfo_correction` removes an estimated
  offset from a received stream;
* :func:`estimate_detection_delay` turns one channel estimate's windowed
  phase slope into a detection delay (§4.2a), and
  :func:`measure_misalignment` turns a lead and its co-senders' channels
  into a misalignment report (§4.5), as the batched phase-slope fit of the
  joint receiver's header stage does for a stack of frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn
from repro.channel.composite import Link, Transmission
from repro.core.sync.detection_delay import phase_slope_windowed, slope_to_delay_samples
from repro.core.sync.probe import ProbeLegResult, _acquisition_backoff, probe_waveform
from repro.core.sync.tracking import MisalignmentReport
from repro.hardware.frontend import RadioFrontend
from repro.phy.detection import detect_packet_autocorrelation, estimate_coarse_cfo
from repro.phy.equalizer import ChannelEstimate, estimate_channel_ltf
from repro.phy.params import DEFAULT_PARAMS, OFDMParams
from repro.phy.preamble import preamble, short_training_field
from repro.rng import require_rng


# ----------------------------------------------------------------------
# Detection delay and misalignment from one channel estimate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectionDelayEstimate:
    """Result of a phase-slope detection-delay estimate.

    Attributes
    ----------
    delay_samples:
        Estimated delay between the packet's first sample and the FFT window
        the receiver actually used, in (fractional) samples.
    slope_rad_per_subcarrier:
        The underlying phase slope.
    n_windows:
        Number of subcarrier windows averaged.
    """

    delay_samples: float
    slope_rad_per_subcarrier: float
    n_windows: int

    def delay_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> float:
        """Delay converted to nanoseconds for the given numerology."""
        return self.delay_samples * params.sample_period_ns


def estimate_detection_delay(
    channel: ChannelEstimate | np.ndarray,
    params: OFDMParams = DEFAULT_PARAMS,
    window_bandwidth_hz: float = 3e6,
) -> DetectionDelayEstimate:
    """Estimate the packet-detection delay from a channel estimate.

    The channel estimate must have been computed using the FFT window implied
    by the (possibly late) detection instant; the returned delay is the
    offset of that window from the true packet start, in samples.
    """
    slope, n_windows = phase_slope_windowed(channel, params, window_bandwidth_hz)
    delay = slope_to_delay_samples(slope, params)
    return DetectionDelayEstimate(
        delay_samples=delay,
        slope_rad_per_subcarrier=slope,
        n_windows=n_windows,
    )


def measure_misalignment(
    lead_channel: ChannelEstimate,
    cosender_channels: list[ChannelEstimate],
    params: OFDMParams = DEFAULT_PARAMS,
) -> MisalignmentReport:
    """Measure sender misalignment from per-sender channel estimates.

    Both channels must be estimated from the *same* receiver FFT-window
    placement (which they are, inside the joint frame), so the difference of
    their phase-slope offsets is exactly the relative misalignment of the
    senders, independent of where the receiver put its window.
    """
    lead_offset = estimate_detection_delay(lead_channel, params).delay_samples
    co_offsets = tuple(
        estimate_detection_delay(ch, params).delay_samples for ch in cosender_channels
    )
    misalignments = tuple(lead_offset - off for off in co_offsets)
    return MisalignmentReport(
        lead_offset_samples=float(lead_offset),
        cosender_offsets_samples=co_offsets,
        misalignments_samples=misalignments,
    )


# ----------------------------------------------------------------------
# Propagation and the composite channel
# ----------------------------------------------------------------------
def fractional_delay(samples: np.ndarray, delay_samples: float, pad: int = 0) -> np.ndarray:
    """Delay a sample stream by a possibly fractional number of samples.

    Implemented in the frequency domain so sub-sample delays are represented
    exactly.  The output is ``pad`` samples longer than the input plus the
    integer part of the delay, with leading (near-)zeros.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if delay_samples < 0:
        raise ValueError("delay must be non-negative; advance the other signals instead")
    total = samples.size + int(np.ceil(delay_samples)) + pad
    n_fft = int(2 ** np.ceil(np.log2(max(total, 2))))
    spectrum = np.fft.fft(samples, n_fft)
    freqs = np.fft.fftfreq(n_fft)
    ramp = np.exp(-2j * np.pi * freqs * delay_samples)
    shifted = np.multiply(spectrum, ramp, out=ramp)
    return np.fft.ifft(shifted)[:total]


def apply_cfo(
    samples: np.ndarray,
    cfo_hz: float,
    sample_rate_hz: float,
    initial_phase: float = 0.0,
    start_sample: int = 0,
) -> np.ndarray:
    """Rotate a sample stream by a carrier frequency offset.

    ``initial_phase`` is the carrier phase at sample index ``start_sample``,
    the absolute index of the first sample, so that concatenated segments
    rotate continuously.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    n = np.arange(start_sample, start_sample + samples.size)
    phase = 2.0 * np.pi * cfo_hz * n / sample_rate_hz + initial_phase
    rotation = np.exp(1j * phase)
    return np.multiply(samples, rotation, out=rotation)


def apply_cfo_correction(samples: np.ndarray, cfo_hz: float, sample_period_s: float) -> np.ndarray:
    """Remove a carrier frequency offset from a sample stream."""
    samples = np.asarray(samples, dtype=np.complex128)
    n = np.arange(samples.size)
    ramp = np.exp(-2j * np.pi * cfo_hz * n * sample_period_s)
    return np.multiply(samples, ramp, out=ramp)


def propagate(link: Link, samples: np.ndarray, start_sample: float = 0.0) -> tuple[np.ndarray, float]:
    """Apply ``link`` to a transmitted waveform that starts at ``start_sample``.

    Returns ``(waveform, start)``: this sender's contribution at the
    receiver's antenna, starting at integer sample ``start`` of the
    simulation timeline.  The fractional part of delay + start is realised
    inside the waveform by :func:`fractional_delay`, and the CFO rotation
    is referenced to the receiver's absolute timeline.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    total_delay = float(start_sample) + float(link.delay_samples)
    integer_delay = int(np.floor(total_delay))
    fractional = total_delay - integer_delay

    shaped = link.channel.apply(samples * link.gain)
    if fractional > 1e-9:
        shaped = fractional_delay(shaped, fractional)
    rotated = apply_cfo(
        shaped,
        link.cfo_hz,
        link.sample_rate_hz,
        initial_phase=link.initial_phase,
        start_sample=integer_delay,
    )
    return rotated, float(integer_delay)


def combine_at_receiver(
    transmissions: list[Transmission],
    noise_power: float = 0.0,
    rng: np.random.Generator | None = None,
    total_length: int | None = None,
    leading_silence: int = 0,
) -> np.ndarray:
    """Superimpose concurrent transmissions at a receiver and add noise (§5).

    ``total_length`` defaults to just covering the last contribution and
    is grown to cover it; ``leading_silence`` noise-only samples precede
    time zero of the timeline.
    """
    contributions: list[tuple[int, np.ndarray]] = []
    end = 0
    for tx in transmissions:
        waveform, start = propagate(tx.link, tx.samples, tx.start_sample)
        start_idx = int(start) + leading_silence
        contributions.append((start_idx, waveform))
        end = max(end, start_idx + waveform.size)
    length = total_length if total_length is not None else end
    length = max(length, end)
    received = np.zeros(length, dtype=np.complex128)
    for start_idx, waveform in contributions:
        received[start_idx : start_idx + waveform.size] += waveform
    if noise_power > 0:
        received += awgn(length, noise_power, require_rng(rng, "combine_at_receiver"))
    return received


# ----------------------------------------------------------------------
# Probe legs and the propagation-delay measurement (§4.2c)
# ----------------------------------------------------------------------
def probe_leg(
    link: Link,
    frontend: RadioFrontend,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    params: OFDMParams = DEFAULT_PARAMS,
    leading_silence: int = 80,
    waveform: np.ndarray | None = None,
) -> ProbeLegResult:
    """Receive one probe over a link at the waveform level.

    Returns the true and estimated detection delays at the receiving node.
    The true delay is measured from the (fractional) arrival time of the
    first probe sample; the estimate is what the node derives from the
    channel phase slope of the probe's long training field.  ``waveform``
    defaults to a bare preamble; the lead sender's synchronization header
    models a co-sender receiving an actual joint frame's header (§4.3).
    """
    waveform = probe_waveform(params) if waveform is None else np.asarray(waveform, np.complex128)
    contribution, integer_start = propagate(link, waveform, start_sample=0.0)
    total_len = leading_silence + int(integer_start) + contribution.size + 40
    received = np.zeros(total_len, dtype=np.complex128)
    offset = leading_silence + int(integer_start)
    received[offset : offset + contribution.size] += contribution
    received += awgn(total_len, noise_power, rng)

    detection = detect_packet_autocorrelation(received, params)
    if not detection.detected:
        return ProbeLegResult(False, 0.0, 0.0, link.snr_db(noise_power))

    # Standard receiver-side CFO correction from the short training field.
    try:
        cfo_hz = estimate_coarse_cfo(received, detection.start_index, params)
    except ValueError:
        cfo_hz = 0.0
    received = apply_cfo_correction(received, cfo_hz, params.sample_period_s)

    # Front-end pipeline latency adds to the correlator's own lag.
    snr_db = link.snr_db(noise_power)
    extra = frontend.detection_delay_samples(snr_db, rng)
    detect_instant = detection.detect_index + extra

    true_arrival = leading_silence + link.delay_samples
    true_delay = float(detect_instant - true_arrival)

    # LTF FFT windows placed from the (late) detection instant, backed off
    # into the guard interval.
    backoff = _acquisition_backoff(params)
    stf_len = short_training_field(params).size
    assumed_start = int(round(detect_instant))
    ltf_start = assumed_start + stf_len + 2 * params.cp_samples - backoff
    ltf_syms = np.empty((2, params.n_fft), dtype=np.complex128)
    for rep in range(2):
        begin = ltf_start + rep * params.n_fft
        chunk = received[begin : begin + params.n_fft]
        if chunk.size < params.n_fft:
            return ProbeLegResult(False, true_delay, 0.0, snr_db)
        ltf_syms[rep] = np.fft.fft(chunk) / np.sqrt(params.n_fft)
    channel = estimate_channel_ltf(ltf_syms, params)
    estimate = estimate_detection_delay(channel, params)
    # The node knows it backed the window off; it reports the offset of its
    # detection instant from the true packet start.
    estimated_delay = float(estimate.delay_samples) + backoff + (detect_instant - assumed_start)
    return ProbeLegResult(True, true_delay, estimated_delay, snr_db)


@dataclass(frozen=True)
class PropagationDelayEstimate:
    """One-way propagation delay estimate from a probe/response exchange."""

    valid: bool
    one_way_delay_samples: float
    true_one_way_delay_samples: float
    forward_leg: ProbeLegResult | None = None
    reverse_leg: ProbeLegResult | None = None

    @property
    def error_samples(self) -> float:
        """Estimation error in samples."""
        return self.one_way_delay_samples - self.true_one_way_delay_samples

    def error_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> float:
        """Estimation error in nanoseconds."""
        return self.error_samples * params.sample_period_ns


def measure_propagation_delay(
    forward_link: Link,
    reverse_link: Link,
    frontend_a: RadioFrontend,
    frontend_b: RadioFrontend,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    params: OFDMParams = DEFAULT_PARAMS,
    n_probes: int = 1,
) -> PropagationDelayEstimate:
    """Measure the one-way propagation delay between two nodes (Eq. 2).

    Node A probes node B over ``forward_link``; B responds over
    ``reverse_link``.  Both estimate their detection delays with the
    phase-slope method, so A can isolate the two-way propagation delay and
    halve it.  ``n_probes`` exchanges are averaged (§4.2c).
    """
    if n_probes < 1:
        raise ValueError("n_probes must be at least 1")
    estimates = []
    last_fwd: ProbeLegResult | None = None
    last_rev: ProbeLegResult | None = None
    true_one_way = 0.5 * (forward_link.delay_samples + reverse_link.delay_samples)
    for _ in range(n_probes):
        fwd = probe_leg(forward_link, frontend_b, rng, noise_power, params)
        rev = probe_leg(reverse_link, frontend_a, rng, noise_power, params)
        last_fwd, last_rev = fwd, rev
        if not (fwd.detected and rev.detected):
            continue
        # The turnaround and deliberate wait are counted in local clock
        # ticks, so they cancel and are omitted here.
        round_trip_minus_known = (
            forward_link.delay_samples
            + fwd.true_detection_delay
            + reverse_link.delay_samples
            + rev.true_detection_delay
        )
        two_way = round_trip_minus_known - fwd.estimated_detection_delay - rev.estimated_detection_delay
        estimates.append(two_way / 2.0)
    if not estimates:
        return PropagationDelayEstimate(False, 0.0, true_one_way, last_fwd, last_rev)
    return PropagationDelayEstimate(
        valid=True,
        one_way_delay_samples=float(np.mean(estimates)),
        true_one_way_delay_samples=float(true_one_way),
        forward_leg=last_fwd,
        reverse_leg=last_rev,
    )


# ----------------------------------------------------------------------
# CFO measurement (§5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CfoEstimate:
    """A measured carrier-frequency offset between two nodes."""

    valid: bool
    cfo_hz: float
    true_cfo_hz: float

    @property
    def error_hz(self) -> float:
        """Estimation error in Hz."""
        return self.cfo_hz - self.true_cfo_hz


def measure_cfo(
    link: Link,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    params: OFDMParams = DEFAULT_PARAMS,
    n_probes: int = 4,
) -> CfoEstimate:
    """Measure a sender's CFO relative to a receiver from probe preambles.

    Averages the short-training-field autocorrelation estimate over
    ``n_probes`` probes; a probe that is not detected, or whose estimation
    window does not fit, is skipped.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be at least 1")
    estimates = []
    waveform = preamble(params)
    for _ in range(n_probes):
        contribution, start = propagate(link, waveform, start_sample=0.0)
        lead_in = 60
        total = lead_in + int(start) + contribution.size + 20
        received = np.zeros(total, dtype=np.complex128)
        offset = lead_in + int(start)
        received[offset : offset + contribution.size] += contribution
        received += awgn(total, noise_power, rng)
        detection = detect_packet_autocorrelation(received, params)
        if not detection.detected:
            continue
        try:
            estimates.append(estimate_coarse_cfo(received, detection.start_index, params))
        except ValueError:
            continue
    if not estimates:
        return CfoEstimate(False, 0.0, link.cfo_hz)
    return CfoEstimate(True, float(np.mean(estimates)), link.cfo_hz)
