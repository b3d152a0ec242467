"""The batched propagation and combine kernels against their scalar oracle.

:func:`propagate_rows` is the only propagation kernel in ``src/`` and
:func:`combine_ensemble_at_receiver` the only combine; both promise that
each row (each trial) is bit-identical to the scalar one-waveform form that
``tests/core/reference_blocks.py`` keeps.  These tests hold them to that
promise byte for byte, on links with random gains and taps, integer and
fractional delays, nonzero starts and CFO, and hold
:func:`propagate_ensemble` to its per-row form.  A memory test bounds the
transient of :func:`propagate_rows` on a joint-frame-sized wave.
"""

import tracemalloc

import numpy as np
import pytest

from repro.channel.awgn import awgn_ensemble
from repro.channel.composite import (
    Link,
    Transmission,
    combine_ensemble_at_receiver,
    propagate_ensemble,
    propagate_rows,
)
from repro.channel.multipath import MultipathChannel
from tests.core.reference_blocks import combine_at_receiver, propagate


def _random_links(rng, n):
    """Links with random taps, gains, phases and CFOs; every third delay is whole."""
    links = []
    for i in range(n):
        n_taps = int(rng.integers(1, 12))
        taps = (rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)) / np.sqrt(2 * n_taps)
        delay = float(rng.integers(0, 40)) if i % 3 == 0 else float(rng.uniform(0.0, 40.0))
        links.append(
            Link(
                channel=MultipathChannel(taps),
                gain=float(rng.uniform(0.1, 3.0)),
                delay_samples=delay,
                cfo_hz=float(rng.uniform(-120e3, 120e3)),
                initial_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
        )
    return links


def _random_waveforms(rng, n, length):
    return rng.normal(size=(n, length)) + 1j * rng.normal(size=(n, length))


def _starts(rng, n):
    """Zero, whole and fractional start samples, in turn."""
    return [
        (0.0, float(rng.integers(1, 300)), float(rng.uniform(0.0, 300.0)))[i % 3]
        for i in range(n)
    ]


def _per_row_propagate_ensemble(links, samples, noise_power, rng, leading_silence, total_length):
    """:func:`propagate_ensemble` as a per-row loop over the scalar ``propagate``."""
    waveforms = []
    end = 0
    for link, row in zip(links, samples):
        waveform, start = propagate(link, row)
        start_idx = int(start) + leading_silence
        waveforms.append((start_idx, waveform))
        end = max(end, start_idx + waveform.size)
    length = max(total_length if total_length is not None else end, end)
    received = np.zeros((samples.shape[0], length), dtype=np.complex128)
    for i, (start_idx, waveform) in enumerate(waveforms):
        received[i, start_idx : start_idx + waveform.size] = waveform
    if noise_power > 0:
        received += awgn_ensemble(samples.shape[0], length, noise_power, rng)
    return received


class TestPropagateRowsKernelOracle:
    @pytest.mark.parametrize("length", [64, 250, 1000])
    def test_kernel_oracle_propagate_rows_rows_equal_scalar_propagate(self, length):
        rng = np.random.default_rng(length)
        links = _random_links(rng, 30)
        samples = _random_waveforms(rng, len(links), length)
        starts = _starts(rng, len(links))
        rows = propagate_rows(links, samples, starts)
        whole = 0
        fft_sizes = set()
        for link, row, start, (waveform, integer_start) in zip(links, samples, starts, rows):
            expected, expected_start = propagate(link, row, start)
            assert integer_start == expected_start
            assert waveform.dtype == expected.dtype and waveform.shape == expected.shape
            assert waveform.tobytes() == expected.tobytes()
            total_delay = start + link.delay_samples
            if total_delay == np.floor(total_delay):
                whole += 1
            else:
                size = length + link.channel.n_taps - 1 + int(np.ceil(total_delay % 1.0))
                fft_sizes.add(int(2 ** np.ceil(np.log2(size))))
        # Both delay stages ran: whole delays skip the FFT pair, and the
        # fractional rows spanned more than one FFT size where they could.
        assert whole >= 3
        assert len(fft_sizes) >= (2 if length == 250 else 1)

    def test_kernel_oracle_propagate_rows_fractional_wave_transient(self):
        """An 8-row wave of 2872 samples whose rows share a tap count and all
        need a fractional delay, so they form one FFT block of 4096 points:
        the FFT pair runs in place, so the kernel's transient stays within
        2.5 MiB, and every row still equals the scalar form byte for byte."""
        rng = np.random.default_rng(2872)
        links = _random_links(rng, 8)
        for link in links:
            taps = rng.normal(size=8) + 1j * rng.normal(size=8)
            link.channel = MultipathChannel(taps / 4.0)
            link.delay_samples = float(rng.uniform(0.1, 0.9)) + float(rng.integers(0, 40))
        samples = _random_waveforms(rng, len(links), 2872)
        propagate_rows(links, samples)  # warm caches untraced
        tracemalloc.start()
        try:
            rows = propagate_rows(links, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20
        for link, row, (waveform, integer_start) in zip(links, samples, rows):
            expected, expected_start = propagate(link, row)
            assert integer_start == expected_start
            assert waveform.tobytes() == expected.tobytes()


class TestCombineEnsembleKernelOracle:
    @staticmethod
    def _trials(rng, n_trials):
        trials, powers = [], []
        for t in range(n_trials):
            n_tx = int(rng.integers(1, 4))
            links = _random_links(rng, n_tx)
            transmissions = [
                Transmission(
                    link=link,
                    samples=_random_waveforms(rng, 1, int(rng.choice([160, 320, 400])))[0],
                    start_sample=start,
                )
                for link, start in zip(links, _starts(rng, n_tx))
            ]
            total_length = (None, 200, 1200)[t % 3]
            trials.append((transmissions, total_length))
            powers.append(0.0 if t % 4 == 3 else float(rng.uniform(0.01, 2.0)))
        return trials, powers

    @pytest.mark.parametrize("leading_silence", [0, 60])
    @pytest.mark.parametrize("shared_rng", [False, True], ids=["per_trial_rng", "shared_rng"])
    def test_kernel_oracle_combine_trials_equal_scalar_combine(self, leading_silence, shared_rng):
        rng = np.random.default_rng(100 + leading_silence + shared_rng)
        trials, powers = self._trials(rng, 9)
        seeds = range(500, 500 + len(trials))
        if shared_rng:
            batch_rngs = np.random.default_rng(42)
            scalar_rngs = [np.random.default_rng(42)] * len(trials)
        else:
            batch_rngs = [np.random.default_rng(seed) for seed in seeds]
            scalar_rngs = [np.random.default_rng(seed) for seed in seeds]
        rows, lengths = combine_ensemble_at_receiver(
            trials, powers, batch_rngs, leading_silence=leading_silence
        )
        assert rows.shape == (len(trials), lengths.max())
        for t, ((transmissions, total_length), power) in enumerate(zip(trials, powers)):
            expected = combine_at_receiver(
                transmissions,
                noise_power=power,
                rng=scalar_rngs[t],
                total_length=total_length,
                leading_silence=leading_silence,
            )
            assert lengths[t] == expected.size
            assert rows[t, : lengths[t]].tobytes() == expected.tobytes()
            assert not rows[t, lengths[t] :].any()
        if shared_rng:
            assert batch_rngs.bit_generator.state == scalar_rngs[0].bit_generator.state
        else:
            for a, b in zip(batch_rngs, scalar_rngs):
                assert a.bit_generator.state == b.bit_generator.state


class TestPropagateEnsembleKernelOracle:
    @pytest.mark.parametrize(
        "noise_power, leading_silence, total_length",
        [(0.0, 0, None), (0.5, 60, None), (0.5, 0, 2000), (1.0, 30, 10)],
    )
    def test_kernel_oracle_propagate_ensemble_equals_per_row_form(
        self, noise_power, leading_silence, total_length
    ):
        rng = np.random.default_rng(7)
        links = _random_links(rng, 20)
        samples = _random_waveforms(rng, len(links), 480)
        got = propagate_ensemble(
            links, samples, noise_power, np.random.default_rng(3), leading_silence, total_length
        )
        expected = _per_row_propagate_ensemble(
            links, samples, noise_power, np.random.default_rng(3), leading_silence, total_length
        )
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
