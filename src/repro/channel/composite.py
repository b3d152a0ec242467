"""Per-link channel emulation and multi-sender signal combination.

This module is the glue between individual channel impairments and the
SourceSync experiments: a :class:`Link` bundles everything that happens to a
signal between one sender and one receiver (path-loss gain, multipath,
carrier-frequency offset, propagation delay).  :func:`propagate_rows` is the
one propagation kernel: it applies link ``i`` to waveform ``i`` for a stack
of waveforms.  The composite channel of §5 of the paper is
:func:`combine_ensemble_at_receiver`: for each trial of an ensemble it sums
the contributions of several concurrent senders at a receiver and adds
thermal noise.

For Monte-Carlo link ensembles, :func:`link_ensemble_for_snr` draws all link
realisations of a batch with one generator call and
:func:`propagate_ensemble` carries a whole ``(n_packets, n_samples)``
ensemble through per-packet links with one batched noise draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.awgn import awgn, awgn_ensemble, db_to_linear
from repro.channel.multipath import (
    DEFAULT_PROFILE,
    MultipathChannel,
    MultipathEnsemble,
    MultipathProfile,
    rayleigh_taps_batch,
)
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.rng import require_rng

__all__ = [
    "Link",
    "Transmission",
    "combine_ensemble_at_receiver",
    "link_for_snr",
    "link_ensemble_for_snr",
    "propagate_ensemble",
    "propagate_rows",
]


@dataclass
class Link:
    """Everything the medium does to one sender's signal on its way to one receiver.

    Attributes
    ----------
    channel:
        Small-scale multipath channel realisation (block fading).
    gain:
        Scalar amplitude gain from path loss / shadowing.
    delay_samples:
        One-way propagation delay in (possibly fractional) samples.
    cfo_hz:
        Carrier-frequency offset of the sender relative to the receiver.
    initial_phase:
        Carrier phase offset at simulation time zero.
    sample_rate_hz:
        Baseband sample rate used to convert the CFO into per-sample rotation.
    """

    channel: MultipathChannel
    gain: float = 1.0
    delay_samples: float = 0.0
    cfo_hz: float = 0.0
    initial_phase: float = 0.0
    sample_rate_hz: float = 20e6

    def received_power(self) -> float:
        """Average received power for a unit-power transmitted signal."""
        return float(self.gain**2 * self.channel.average_power())

    def snr_db(self, noise_power: float) -> float:
        """Average SNR this link delivers over the given noise power."""
        return float(10.0 * np.log10(max(self.received_power() / max(noise_power, 1e-30), 1e-30)))


@dataclass
class Transmission:
    """One sender's contribution to a received waveform."""

    link: Link
    samples: np.ndarray = field(repr=False)
    start_sample: float = 0.0


def propagate_rows(
    links: list[Link],
    samples: np.ndarray,
    start_samples: np.ndarray | list[float] | float = 0.0,
) -> list[tuple[np.ndarray, float]]:
    """Apply link ``i`` to row ``i`` with the per-row stages batched.

    Each row is scaled by its link's gain and convolved with its channel
    taps (a single C call per row); the integer part of start + delay
    becomes the row's integer start, and the fractional part is realised
    inside the waveform by a frequency-domain delay.  That FFT pair, the
    expensive stage, is batched across all rows that transform at the same
    power-of-two FFT size.  Finally each row is rotated by its link's CFO,
    referenced to the receiver's absolute timeline, through one stacked
    complex exponential.  Each row is bit-identical to the scalar
    two-stage form kept as the test oracle (``propagate`` in
    ``tests/core/reference_blocks.py``).

    ``samples`` is ``(n_rows, n_samples)`` (equal-length rows); returns one
    ``(waveform, integer_start)`` pair per row.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 2 or samples.shape[0] != len(links):
        raise ValueError("samples must have shape (n_links, n_samples)")
    n_rows = samples.shape[0]
    starts = np.broadcast_to(
        np.asarray(start_samples, dtype=np.float64), (n_rows,)
    )

    # Each row as shaped by its link, replaced by its delayed form and
    # dropped once its rotated row is built.
    delayed: list[np.ndarray | None] = []
    integer_delays = np.zeros(n_rows, dtype=np.int64)
    fractionals = np.zeros(n_rows, dtype=np.float64)
    for i, link in enumerate(links):
        total_delay = float(starts[i]) + float(link.delay_samples)
        integer_delays[i] = int(np.floor(total_delay))
        fractionals[i] = total_delay - integer_delays[i]
        delayed.append(link.channel.apply(samples[i] * link.gain))

    # Fractional delays, grouped by the FFT size the scalar path would pick.
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n_rows):
        if fractionals[i] <= 1e-9:
            continue
        total = delayed[i].size + int(np.ceil(fractionals[i]))
        n_fft = int(2 ** np.ceil(np.log2(max(total, 2))))
        groups.setdefault((n_fft, delayed[i].size), []).append(i)
    for (n_fft, size), rows in groups.items():
        block = np.stack([delayed[i] for i in rows])
        spectrum = np.fft.fft(block, n_fft, axis=-1)
        del block
        # The delay ramp is built in one buffer, and the spectrum is delayed
        # and inverted in place; spectrum stays the left operand.
        arg = -2j * np.pi * np.fft.fftfreq(n_fft)
        shift = np.multiply(arg[None, :], fractionals[rows][:, None])
        np.exp(shift, out=shift)
        np.multiply(spectrum, shift, out=spectrum)
        del shift
        np.fft.ifft(spectrum, axis=-1, out=spectrum)
        for row_pos, i in enumerate(rows):
            delayed[i] = spectrum[row_pos, : size + int(np.ceil(fractionals[i]))]

    # CFO rotation referenced to each row's absolute receiver timeline.
    lengths = np.array([wave.size for wave in delayed], dtype=np.int64)
    max_len = int(lengths.max(initial=0))
    cfo = np.array([link.cfo_hz for link in links])
    phase0 = np.array([link.initial_phase for link in links])
    rate = np.array([link.sample_rate_hz for link in links])
    n = integer_delays[:, None] + np.arange(max_len)[None, :]
    phase = 2.0 * np.pi * cfo[:, None] * n / rate[:, None] + phase0[:, None]
    rotation = np.exp(1j * phase)
    rotated = []
    for i in range(n_rows):
        rotated.append((delayed[i] * rotation[i, : lengths[i]], float(integer_delays[i])))
        delayed[i] = None
    return rotated


def combine_ensemble_at_receiver(
    trials: list[tuple[list[Transmission], int | None]],
    noise_power: float | list[float],
    rngs: np.random.Generator | list[np.random.Generator],
    leading_silence: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite-channel superposition for an ensemble of independent trials.

    Each trial is one ``(transmissions, total_length)`` pair, the
    concurrent senders of one joint frame.  Every trial's contributions
    are superimposed on its own receiver timeline, which starts with
    ``leading_silence`` noise-only samples and is ``total_length`` long
    (default: just covering the last contribution; grown to cover it).
    Per-trial noise is drawn from that trial's own generator, in trial
    order and at the trial's own (unpadded) length, so an ensemble of N
    trials consumes each generator's stream exactly as N trials of one.
    Each trial is bit-identical to the scalar one-trial combine kept as
    the test oracle in ``tests/core/reference_blocks.py``.

    Returns ``(rows, lengths)``: a zero-padded ``(n_trials, max_len)``
    array of received waveforms plus each trial's true length.  The padding
    carries no energy and no noise.
    """
    n_trials = len(trials)
    if not isinstance(rngs, list):
        rngs = [rngs] * n_trials
    if len(rngs) != n_trials:
        raise ValueError("need one generator per trial")
    powers = (
        list(noise_power) if isinstance(noise_power, (list, tuple)) else [noise_power] * n_trials
    )
    # Propagate every transmission of every trial, batching the per-row
    # stages across equal-length waveforms (headers with headers, training
    # slots with training slots) — bit-identical to per-call propagation.
    by_length: dict[int, list[tuple[int, int]]] = {}
    for t, (transmissions, _) in enumerate(trials):
        for k, tx in enumerate(transmissions):
            by_length.setdefault(np.asarray(tx.samples).shape[-1], []).append((t, k))
    propagated: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
    for _, members in by_length.items():
        links = [trials[t][0][k].link for t, k in members]
        rows = np.stack([trials[t][0][k].samples for t, k in members])
        starts_rows = [trials[t][0][k].start_sample for t, k in members]
        for (t, k), result in zip(members, propagate_rows(links, rows, starts_rows)):
            propagated[(t, k)] = result

    staged: list[list[tuple[int, np.ndarray]]] = []
    lengths = np.zeros(n_trials, dtype=np.int64)
    for t, (transmissions, total_length) in enumerate(trials):
        contributions: list[tuple[int, np.ndarray]] = []
        end = 0
        for k in range(len(transmissions)):
            waveform, start = propagated[(t, k)]
            start_idx = int(start) + leading_silence
            contributions.append((start_idx, waveform))
            end = max(end, start_idx + waveform.size)
        staged.append(contributions)
        lengths[t] = max(total_length if total_length is not None else end, end)
    rows = np.zeros((n_trials, int(lengths.max(initial=0))), dtype=np.complex128)
    for t, contributions in enumerate(staged):
        for start_idx, waveform in contributions:
            rows[t, start_idx : start_idx + waveform.size] += waveform
        if powers[t] > 0:
            rows[t, : lengths[t]] += awgn(int(lengths[t]), powers[t], rngs[t])
    return rows, lengths


def link_for_snr(
    snr_db: float,
    noise_power: float = 1.0,
    profile: MultipathProfile = DEFAULT_PROFILE,
    rng: np.random.Generator | None = None,
    delay_samples: float = 0.0,
    cfo_hz: float = 0.0,
    params: OFDMParams = DEFAULT_PARAMS,
) -> Link:
    """Construct a random multipath link delivering a target average SNR.

    The multipath realisation is normalised to unit power and the link gain
    is set so that a unit-power transmitted waveform arrives with the
    requested average SNR over the given noise power.
    """
    rng = require_rng(rng, "link_for_snr")
    channel = MultipathChannel.random(profile, rng).normalized()
    gain = float(np.sqrt(db_to_linear(snr_db) * noise_power))
    initial_phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return Link(
        channel=channel,
        gain=gain,
        delay_samples=delay_samples,
        cfo_hz=cfo_hz,
        initial_phase=initial_phase,
        sample_rate_hz=params.bandwidth_hz,
    )


def link_ensemble_for_snr(
    snr_db: float,
    n_links: int,
    noise_power: float = 1.0,
    profile: MultipathProfile = DEFAULT_PROFILE,
    rng: np.random.Generator | None = None,
    delay_samples: float = 0.0,
    cfo_hz: float = 0.0,
    params: OFDMParams = DEFAULT_PARAMS,
) -> list[Link]:
    """Draw an ensemble of independent random links at a target average SNR.

    All tap realisations come from one :func:`rayleigh_taps_batch` call and
    all initial phases from one uniform draw, so drawing an ensemble of N
    links costs two generator calls instead of 2N.  (The stream order
    differs from N sequential :func:`link_for_snr` calls — taps first, then
    phases — which matters only if the caller interleaves other draws.)
    """
    rng = require_rng(rng, "link_ensemble_for_snr")
    ensemble = MultipathEnsemble(rayleigh_taps_batch(profile, n_links, rng)).normalized()
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_links)
    gain = float(np.sqrt(db_to_linear(snr_db) * noise_power))
    return [
        Link(
            channel=ensemble.channel(i),
            gain=gain,
            delay_samples=delay_samples,
            cfo_hz=cfo_hz,
            initial_phase=float(phases[i]),
            sample_rate_hz=params.bandwidth_hz,
        )
        for i in range(n_links)
    ]


def propagate_ensemble(
    links: list[Link],
    samples: np.ndarray,
    noise_power: float = 0.0,
    rng: np.random.Generator | None = None,
    leading_silence: int = 0,
    total_length: int | None = None,
) -> np.ndarray:
    """Send packet ``i`` of an ensemble through link ``i`` and add noise.

    The link-level counterpart of :func:`combine_ensemble_at_receiver`:
    instead of superimposing many senders at one receiver, each row of
    ``samples`` is an independent packet observed through its own link
    realisation (the typical link-level BER/PER ensemble).  The rows
    propagate through :func:`propagate_rows`, and the noise for the whole
    ensemble is one batched draw in per-packet order (:func:`awgn_ensemble`).

    Returns a ``(n_packets, length)`` array of received waveforms, where
    ``length`` is ``total_length`` grown, if necessary, to cover the last
    contribution.
    """
    waveforms: list[tuple[int, np.ndarray]] = []
    end = 0
    for waveform, start in propagate_rows(links, samples):
        start_idx = int(start) + leading_silence
        waveforms.append((start_idx, waveform))
        end = max(end, start_idx + waveform.size)
    length = max(total_length if total_length is not None else end, end)
    received = np.zeros((len(links), length), dtype=np.complex128)
    for i, (start_idx, waveform) in enumerate(waveforms):
        received[i, start_idx : start_idx + waveform.size] = waveform
    if noise_power > 0:
        received += awgn_ensemble(
            len(links), length, noise_power, require_rng(rng, "propagate_ensemble")
        )
    return received
