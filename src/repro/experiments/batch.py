"""Ensemble runner: simulate whole packet ensembles per numpy call.

The Monte-Carlo-heavy experiments (delay-spread averaging, last-hop
placements, combining ablations, link-level PER sweeps) all share the same
shape: N independent trials of the same pipeline.  This module provides the
batched building blocks that turn those N Python iterations into stacked
array operations:

* :func:`run_packet_ensemble` — the full PHY pipeline (batched transmit ->
  per-packet channel -> batched noise -> batched receive) for an ensemble
  of packets, the workhorse behind link-level packet-error-rate estimates
  and the batched-vs-per-packet smoke benchmark
  (``benchmarks/bench_batch_pipeline.py``);
* :func:`draw_tap_ensemble` — all multipath realisations of an ensemble in
  one generator call (used by ``fig14_delay_spread``);
* :func:`draw_frequency_response_ensemble` — batched normalised frequency
  responses on the occupied bins (used by ``ablation_combining``).

Per-trial seeding, chunked sharding and process-pool scheduling live in
the shared engine (:func:`repro.engine.run_chunks`,
:func:`repro.engine.run_seed_chunks`).

Determinism: the batched draws reproduce the exact generator-stream order
of the per-trial loops they replace wherever possible (see
:func:`repro.channel.multipath.rayleigh_taps_batch` and
:func:`repro.channel.awgn.awgn_ensemble`), so converted experiments keep
their seeded results.  The speedup methodology for the smoke benchmark is
wall-clock over identical workloads: the per-packet path runs the
single-packet API N times, the batched path runs the batch API once, both
from identical inputs, and the decoded payloads are asserted equal before
timing is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.awgn import awgn_ensemble, db_to_linear
from repro.channel.composite import link_ensemble_for_snr, propagate_ensemble
from repro.channel.multipath import (
    MultipathEnsemble,
    MultipathProfile,
    DEFAULT_PROFILE,
    rayleigh_taps_batch,
)
from repro.phy import bits as bitutils
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.receiver import ReceiveResult, Receiver
from repro.phy.transmitter import Transmitter

__all__ = [
    "EnsembleResult",
    "run_packet_ensemble",
    "draw_tap_ensemble",
    "draw_frequency_response_ensemble",
]


@dataclass
class EnsembleResult:
    """Outcome of one batched packet-ensemble simulation."""

    n_packets: int
    snr_db: float
    rate_mbps: float
    crc_ok: np.ndarray = field(repr=False)  #: (n_packets,) bool
    detected: np.ndarray = field(repr=False)  #: (n_packets,) bool
    payload_ok: np.ndarray = field(repr=False)  #: (n_packets,) bool
    results: list[ReceiveResult] = field(repr=False, default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        """Fraction of packets decoded with a passing CRC."""
        if self.n_packets == 0:
            return 0.0
        return float(np.mean(self.crc_ok))

    @property
    def packet_error_rate(self) -> float:
        """Fraction of packets that failed detection or CRC."""
        return 1.0 - self.delivery_ratio


def run_packet_ensemble(
    n_packets: int,
    payload_bytes: int = 100,
    snr_db: float = 15.0,
    rate_mbps: float = 6.0,
    profile: MultipathProfile | None = None,
    seed: int | np.random.Generator = 0,
    params: OFDMParams = DEFAULT_PARAMS,
    genie_timing: bool = True,
    leading_silence: int = 32,
    batched: bool = True,
) -> EnsembleResult:
    """Push an ensemble of random packets through the full PHY pipeline.

    One call encodes ``n_packets`` random payloads with
    :meth:`Transmitter.transmit_batch`, sends each through its own channel
    realisation (flat Rayleigh-free AWGN when ``profile`` is ``None``, an
    independent multipath link per packet otherwise), adds noise referenced
    to each packet's own signal power, and decodes everything with
    :meth:`Receiver.receive_batch`.

    Parameters
    ----------
    genie_timing:
        When True the receiver is told the true frame start (the usual
        setting for PER-vs-SNR curves); when False it runs detection.
    batched:
        When False, run the identical workload through the single-packet
        APIs instead (one transmit/receive per packet).  The two paths
        produce identical decoded payloads under the same seed; the flag
        exists so benchmarks and tests can compare them.
    """
    # The empty-ensemble guard comes first so a zero-packet call consumes no
    # RNG stream (payload draws happen after it): callers interleaving
    # ensembles of varying sizes under one seed see stable draws.
    if n_packets == 0:
        return EnsembleResult(
            0, snr_db, rate_mbps,
            crc_ok=np.zeros(0, bool), detected=np.zeros(0, bool),
            payload_ok=np.zeros(0, bool), results=[],
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    payloads = [bitutils.random_payload(payload_bytes, rng) for _ in range(n_packets)]
    transmitter = Transmitter(params)
    receiver = Receiver(params)

    noise_power = 1.0
    gain = float(np.sqrt(db_to_linear(snr_db) * noise_power))

    if batched:
        batch = transmitter.transmit_batch(payloads, rate_mbps)
        if profile is None:
            silence = np.zeros((n_packets, leading_silence), dtype=np.complex128)
            clean = np.concatenate([silence, batch.samples * gain], axis=1)
            received = clean + _ensemble_noise(rng, clean.shape, noise_power)
        else:
            links = link_ensemble_for_snr(
                snr_db, n_packets, noise_power, profile, rng, params=params
            )
            received = propagate_ensemble(
                links, batch.samples, noise_power, rng, leading_silence=leading_silence
            )
        starts = leading_silence if genie_timing else None
        results = receiver.receive_batch(received, batch.config, start_indices=starts)
        config = batch.config
    else:
        results = []
        config = None
        if profile is None:
            links = [None] * n_packets
        else:
            links = link_ensemble_for_snr(
                snr_db, n_packets, noise_power, profile, rng, params=params
            )
        for i, payload in enumerate(payloads):
            frame = transmitter.transmit(payload, rate_mbps)
            config = frame.config
            if profile is None:
                silence = np.zeros(leading_silence, dtype=np.complex128)
                clean = np.concatenate([silence, frame.samples * gain])
                received = clean + _ensemble_noise(rng, (1, clean.size), noise_power)[0]
            else:
                received = propagate_ensemble(
                    [links[i]], frame.samples[None, :], noise_power, rng,
                    leading_silence=leading_silence,
                )[0]
            start = leading_silence if genie_timing else None
            results.append(receiver.receive(received, config, start_index=start))

    crc_ok = np.array([r.crc_ok for r in results], dtype=bool)
    detected = np.array([r.detected for r in results], dtype=bool)
    payload_ok = np.array(
        [r.crc_ok and r.payload == p for r, p in zip(results, payloads)], dtype=bool
    )
    return EnsembleResult(
        n_packets=n_packets,
        snr_db=snr_db,
        rate_mbps=rate_mbps,
        crc_ok=crc_ok,
        detected=detected,
        payload_ok=payload_ok,
        results=results,
    )


def _ensemble_noise(
    rng: np.random.Generator, shape: tuple[int, int], noise_power: float
) -> np.ndarray:
    """Per-packet-ordered AWGN block (kept private to pin the draw order)."""
    return awgn_ensemble(shape[0], shape[1], noise_power, rng)


def draw_tap_ensemble(
    profile: MultipathProfile = DEFAULT_PROFILE,
    n_realizations: int = 100,
    rng: np.random.Generator | int | None = None,
    normalized: bool = True,
) -> MultipathEnsemble:
    """All multipath realisations of a Monte-Carlo ensemble in one call."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ensemble = MultipathEnsemble(rayleigh_taps_batch(profile, n_realizations, rng))
    return ensemble.normalized() if normalized else ensemble


def draw_frequency_response_ensemble(
    n_realizations: int,
    n_channels_per_realization: int,
    rng: np.random.Generator,
    profile: MultipathProfile = DEFAULT_PROFILE,
    params: OFDMParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """Normalised frequency responses on the occupied bins, fully batched.

    Returns a complex array of shape
    ``(n_realizations, n_channels_per_realization, n_occupied)``.  The
    underlying Gaussian draw has shape
    ``(n_realizations * n_channels_per_realization, 2, n_taps)``, whose C
    order matches a nested per-realisation / per-channel loop of
    :meth:`MultipathChannel.random` draws — so seeded experiments keep
    their exact channel realisations after batching.
    """
    total = n_realizations * n_channels_per_realization
    taps = rayleigh_taps_batch(profile, total, rng)
    power = np.sum(np.abs(taps) ** 2, axis=1)
    taps = taps / np.sqrt(power)[:, None]
    responses = np.fft.fft(taps, params.n_fft, axis=-1)
    bins = params.occupied_bins()
    return responses[:, bins].reshape(
        n_realizations, n_channels_per_realization, bins.size
    )
