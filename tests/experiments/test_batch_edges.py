"""Edge cases of the ensemble runner: empty ensembles and seeded trials."""

import numpy as np
import pytest

from repro.experiments.batch import run_packet_ensemble


class TestEmptyEnsemble:
    def test_zero_packets_returns_empty_result(self):
        result = run_packet_ensemble(0, seed=7)
        assert result.n_packets == 0
        assert result.delivery_ratio == 0.0
        assert result.packet_error_rate == 1.0
        assert result.crc_ok.size == 0
        assert result.results == []

    def test_zero_packets_consumes_no_rng(self):
        """Regression: the empty-ensemble guard must come before any draw,
        so interleaving empty ensembles leaves a shared generator untouched."""
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        run_packet_ensemble(0, seed=rng_a)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        first = run_packet_ensemble(2, payload_bytes=16, seed=rng_a, genie_timing=True)
        second = run_packet_ensemble(2, payload_bytes=16, seed=rng_b, genie_timing=True)
        assert [r.payload for r in first.results] == [r.payload for r in second.results]

    def test_zero_leading_silence_decodes(self):
        result = run_packet_ensemble(
            3, payload_bytes=24, snr_db=25.0, seed=5, genie_timing=True, leading_silence=0
        )
        assert result.delivery_ratio == 1.0


def test_fig17_jobs_overrides_are_deterministic():
    from repro.experiments import registry

    spec = registry.get("fig17")
    base = spec.run(spec.make_config("smoke"))
    pooled = spec.run(spec.make_config("smoke", {"jobs": 2}))
    assert base.summary == pooled.summary


def test_fig18_jobs_overrides_are_deterministic():
    """The lockstep topology ensemble shards across processes without drift."""
    from repro.experiments import registry

    spec = registry.get("fig18")
    base = spec.run(spec.make_config("smoke"))
    pooled = spec.run(spec.make_config("smoke", {"jobs": 2}))
    assert base.summary == pooled.summary


def _square_chunk(children, offset):
    """Module-level chunk body so run_seed_chunks can pickle it."""
    return [offset + np.random.default_rng(child).integers(0, 1000) for child in children]


def test_run_seed_chunks_negative_trials_rejected():
    from repro.engine import run_seed_chunks

    with pytest.raises(ValueError, match="non-negative"):
        run_seed_chunks(_square_chunk, -1, 0, 1, 100)


def _indexed_chunk(children):
    """Module-level chunk body: each trial's spawn index and one draw."""
    return [
        (child.spawn_key[-1], float(np.random.default_rng(child).random())) for child in children
    ]


class TestRunSeedChunksTrialOrder:
    """Results come back in trial order and equal a per-trial run in any order."""

    def test_results_in_trial_order(self):
        from repro.engine import run_seed_chunks

        for jobs, chunk_size in ((1, None), (1, 2), (2, None), (3, 4)):
            results = run_seed_chunks(_indexed_chunk, 6, 11, jobs, chunk_size=chunk_size)
            assert [i for i, _ in results] == list(range(6)), (jobs, chunk_size)

    def test_order_independent_under_same_seed(self):
        """Running each trial alone, in reverse order, reproduces the ensemble."""
        from repro.engine import run_seed_chunks

        forward = run_seed_chunks(_indexed_chunk, 8, 42, 1, chunk_size=3)
        children = np.random.SeedSequence(42).spawn(8)
        shuffled = [_indexed_chunk([children[i]])[0] for i in reversed(range(8))]
        assert sorted(shuffled) == forward

    def test_process_pool_identical_to_sequential_across_seed_blocks(self):
        """Default shards spanning several seed blocks: the pool changes nothing."""
        from repro.engine import run_seed_chunks, scheduler

        n_trials = 2 * scheduler.SEED_BLOCK + 3
        sequential = run_seed_chunks(_indexed_chunk, n_trials, 3, 1)
        parallel = run_seed_chunks(_indexed_chunk, n_trials, 3, 2)
        assert sequential == parallel
        assert [i for i, _ in sequential] == list(range(n_trials))


def test_run_seed_chunks_matches_unchunked():
    from repro.engine import run_seed_chunks

    single = run_seed_chunks(_square_chunk, 7, 5, 1, 100)
    pooled = run_seed_chunks(_square_chunk, 7, 5, 3, 100)
    assert single == pooled
    assert len(single) == 7


class TestSeedChunkSize:
    """Explicit chunk_size caps shard width without changing any output."""

    def test_every_chunk_size_matches_unchunked(self):
        from repro.engine import run_seed_chunks

        reference = run_seed_chunks(_square_chunk, 9, 13, 1, 7)
        for chunk_size in (1, 2, 4, 9, 50):
            capped = run_seed_chunks(_square_chunk, 9, 13, 1, 7, chunk_size=chunk_size)
            assert capped == reference, chunk_size

    def test_chunk_size_with_process_pool(self):
        from repro.engine import run_seed_chunks

        reference = run_seed_chunks(_square_chunk, 8, 21, 1, 0)
        pooled = run_seed_chunks(_square_chunk, 8, 21, 3, 0, chunk_size=3)
        assert pooled == reference

    def test_zero_trials(self):
        from repro.engine import run_seed_chunks

        assert run_seed_chunks(_square_chunk, 0, 1, 1, 0, chunk_size=4) == []

    def test_invalid_chunk_size_rejected(self):
        from repro.engine import run_seed_chunks

        with pytest.raises(ValueError, match="chunk_size"):
            run_seed_chunks(_square_chunk, 4, 1, 1, 0, chunk_size=0)


def test_fig18_chunk_topologies_is_deterministic():
    """Capping the lockstep lane width cannot change seeded results."""
    from repro.experiments import registry

    spec = registry.get("fig18")
    base = spec.run(spec.make_config("smoke"))
    capped = spec.run(spec.make_config("smoke", {"chunk_topologies": 1}))
    assert base.summary == capped.summary
