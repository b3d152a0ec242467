"""Batched-vs-sequential equivalence of the lockstep mesh-ensemble engine.

The engine's contract is *bit identity*: a lockstep ensemble over lanes
``[l1, ..., ln]`` produces exactly the :class:`ExorResult` /
:class:`SinglePathResult` values of running each lane's sequential
simulation to completion under the same seeds.  The sequential ExOR side
is the reference event loop of ``tests/routing/reference_mesh.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.propagation import PathLossModel
from repro.experiments.fig18_opportunistic import random_relay_topology
from repro.net.topology import Testbed
from repro.routing.ensemble import (
    ExorLane,
    prime_testbeds_lockstep,
    simulate_exor_ensemble,
    simulate_single_path_ensemble,
)
from repro.routing.exor import ExorConfig
from repro.routing.single_path import simulate_single_path
from tests.routing.reference_mesh import simulate_exor, simulate_exor_sourcesync


def _spawned(n, seed):
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]


def _relay_testbeds(n, seed):
    rngs = _spawned(n, seed)
    return [(random_relay_topology(rng), rng) for rng in rngs]


def _lossy_line_testbeds(n, seed, span_m=260.0):
    """Ultra-lossy meshes whose transfers stall before the round limit."""
    rngs = _spawned(n, seed)
    loss = PathLossModel(exponent=3.6, reference_loss_db=47.0, shadowing_sigma_db=3.0)
    positions = [(0.0, 0.0), (span_m, 0.0), (0.35 * span_m, 6.0), (0.65 * span_m, -6.0)]
    return [
        (Testbed.from_positions(positions, rng=rng, path_loss=loss), rng) for rng in rngs
    ]


def _assert_results_equal(batched, sequential):
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert got == expected  # dataclass equality covers every field bit-for-bit


class TestExorEnsembleEquivalence:
    @pytest.mark.parametrize("sender_diversity", [False, True])
    def test_bit_identical_to_per_topology_loop(self, sender_diversity):
        config = ExorConfig(batch_size=12, sender_diversity=sender_diversity)
        sequential = [
            simulate_exor(tb, 0, 1, 12.0, [2, 3, 4], config=config, rng=rng)
            for tb, rng in _relay_testbeds(6, seed=42)
        ]
        lanes = [
            ExorLane(tb, 0, 1, 12.0, [2, 3, 4], config, rng)
            for tb, rng in _relay_testbeds(6, seed=42)
        ]
        batched = simulate_exor_ensemble(lanes)
        _assert_results_equal(batched, sequential)

    def test_both_schemes_share_one_generator_per_lane(self):
        """ExOR then ExOR+SourceSync on the same topologies, as fig18 runs them."""
        config = ExorConfig(batch_size=10)
        sequential = []
        for tb, rng in _relay_testbeds(5, seed=7):
            exor = simulate_exor(tb, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            joint = simulate_exor_sourcesync(tb, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            sequential.append((exor, joint))
        pairs = _relay_testbeds(5, seed=7)
        exor_batched = simulate_exor_ensemble(
            [ExorLane(tb, 0, 1, 6.0, [2, 3, 4], config, rng) for tb, rng in pairs]
        )
        joint_config = replace(config, sender_diversity=True)
        joint_batched = simulate_exor_ensemble(
            [ExorLane(tb, 0, 1, 6.0, [2, 3, 4], joint_config, rng) for tb, rng in pairs]
        )
        _assert_results_equal(exor_batched, [e for e, _ in sequential])
        _assert_results_equal(joint_batched, [j for _, j in sequential])

    @pytest.mark.parametrize("sender_diversity", [False, True])
    def test_stalled_transfer_equivalence(self, sender_diversity):
        """Topologies whose forwarding stalls (no progress) before max_rounds."""
        config = ExorConfig(batch_size=8, max_rounds=30, sender_diversity=sender_diversity)
        sequential = [
            simulate_exor(tb, 0, 1, 6.0, [2, 3], config=config, rng=rng)
            for tb, rng in _lossy_line_testbeds(4, seed=11)
        ]
        batched = simulate_exor_ensemble(
            [
                ExorLane(tb, 0, 1, 6.0, [2, 3], config, rng)
                for tb, rng in _lossy_line_testbeds(4, seed=11)
            ]
        )
        _assert_results_equal(batched, sequential)
        # The scenario must actually exercise the stall path: at least one
        # transfer gives up with missing packets before the round limit.
        assert any(
            r.rounds < config.max_rounds and r.delivered_packets < r.total_packets
            for r in sequential
        )

    def test_empty_relays_equivalence(self):
        """No candidate forwarders: the source is the only (last) priority entry."""
        config = ExorConfig(batch_size=6)
        rngs = _spawned(3, 5)
        loss = PathLossModel(exponent=3.2, reference_loss_db=42.0, shadowing_sigma_db=4.0)
        make = lambda rng: Testbed.from_positions(
            [(0.0, 0.0), (70.0, 0.0)], rng=rng, path_loss=loss
        )
        sequential = [
            simulate_exor(make(rng), 0, 1, 6.0, [], config=config, rng=rng) for rng in rngs
        ]
        rngs = _spawned(3, 5)
        batched = simulate_exor_ensemble(
            [ExorLane(make(rng), 0, 1, 6.0, [], config, rng) for rng in rngs]
        )
        _assert_results_equal(batched, sequential)
        assert all(r.forwarders == (0,) for r in batched)

    def test_shared_testbed_mixed_rates_equivalence(self):
        """One topology carrying lanes at two rates primes its links once.

        Regression test: collecting a shared testbed twice inside one
        lockstep priming pass would re-draw its link realisations and
        silently diverge from the sequential path.
        """
        config = ExorConfig(batch_size=8)
        sequential = []
        for tb, rng in _relay_testbeds(3, seed=77):
            rng2 = np.random.default_rng(1000)
            low = simulate_exor(tb, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            high = simulate_exor(tb, 0, 1, 12.0, [2, 3, 4], config=config, rng=rng2)
            sequential.append((low, high))
        lanes = []
        for tb, rng in _relay_testbeds(3, seed=77):
            rng2 = np.random.default_rng(1000)
            lanes.append(ExorLane(tb, 0, 1, 6.0, [2, 3, 4], config, rng))
            lanes.append(ExorLane(tb, 0, 1, 12.0, [2, 3, 4], config, rng2))
        batched = simulate_exor_ensemble(lanes)
        expected = [result for pair in sequential for result in pair]
        _assert_results_equal(batched, expected)

    def test_shared_generator_rejected(self):
        rng = np.random.default_rng(0)
        testbeds = [random_relay_topology(np.random.default_rng(s)) for s in (1, 2)]
        lanes = [
            ExorLane(tb, 0, 1, 6.0, [2, 3, 4], ExorConfig(batch_size=4), rng)
            for tb in testbeds
        ]
        with pytest.raises(ValueError, match="share a generator"):
            simulate_exor_ensemble(lanes)

    def test_foreign_after_lane_rejected(self):
        pairs = _relay_testbeds(2, seed=3)
        config = ExorConfig(batch_size=4)
        outsider = ExorLane(pairs[0][0], 0, 1, 6.0, [2, 3, 4], config, pairs[0][1])
        lane = ExorLane(
            pairs[1][0], 0, 1, 6.0, [2, 3, 4], config, pairs[1][1], after=outsider
        )
        with pytest.raises(ValueError, match="same ensemble call"):
            simulate_exor_ensemble([lane])


class TestHeterogeneousLanes:
    """Mixed batch-size / topology-size / retry-depth lanes in one schedule."""

    def test_mixed_batch_sizes_and_retry_depths(self):
        """Per-lane configs differ in every knob the scheduler touches."""
        configs = [
            ExorConfig(batch_size=4, retry_limit_last_hop=2),
            ExorConfig(batch_size=24, retry_limit_last_hop=8, sender_diversity=True),
            ExorConfig(batch_size=12, retry_limit_last_hop=5, max_rounds=6),
            ExorConfig(batch_size=17, sender_diversity=True),
        ]
        sequential = [
            simulate_exor(tb, 0, 1, 12.0, [2, 3, 4], config=config, rng=rng)
            for (tb, rng), config in zip(_relay_testbeds(4, seed=91), configs)
        ]
        batched = simulate_exor_ensemble(
            [
                ExorLane(tb, 0, 1, 12.0, [2, 3, 4], config, rng)
                for (tb, rng), config in zip(_relay_testbeds(4, seed=91), configs)
            ]
        )
        _assert_results_equal(batched, sequential)
        assert len({r.total_packets for r in batched}) == len(configs)

    def test_mixed_topology_sizes(self):
        """Lanes over 2-relay, 3-relay and 5-relay meshes advance together."""
        relay_counts = [2, 3, 5, 3]
        rngs = _spawned(4, seed=92)
        config = ExorConfig(batch_size=10, sender_diversity=True)

        def build(rng, n_relays):
            return random_relay_topology(rng, n_relays=n_relays)

        sequential = []
        for rng, n_relays in zip(_spawned(4, seed=92), relay_counts):
            tb = build(rng, n_relays)
            relays = [n for n in tb.node_ids if n not in (0, 1)]
            sequential.append(
                simulate_exor(tb, 0, 1, 6.0, relays, config=config, rng=rng)
            )
        lanes = []
        for rng, n_relays in zip(rngs, relay_counts):
            tb = build(rng, n_relays)
            relays = [n for n in tb.node_ids if n not in (0, 1)]
            lanes.append(ExorLane(tb, 0, 1, 6.0, relays, config, rng))
        batched = simulate_exor_ensemble(lanes)
        _assert_results_equal(batched, sequential)
        assert len({len(r.forwarders) for r in batched}) > 1

    def test_chained_schemes_single_ensemble_call(self):
        """ExOR then ExOR+SourceSync chained on one generator, in one call."""
        config = ExorConfig(batch_size=10)
        joint_config = replace(config, sender_diversity=True)
        sequential = []
        for tb, rng in _relay_testbeds(5, seed=93):
            exor = simulate_exor(tb, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            joint = simulate_exor_sourcesync(tb, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            sequential.append((exor, joint))
        lanes = []
        for tb, rng in _relay_testbeds(5, seed=93):
            exor_lane = ExorLane(tb, 0, 1, 6.0, [2, 3, 4], config, rng)
            joint_lane = ExorLane(
                tb, 0, 1, 6.0, [2, 3, 4], joint_config, rng, after=exor_lane
            )
            lanes.extend([exor_lane, joint_lane])
        results = simulate_exor_ensemble(lanes)
        batched = [(results[2 * i], results[2 * i + 1]) for i in range(5)]
        for got, expected in zip(batched, sequential):
            assert got == expected

    def test_chained_lane_primes_in_stream_order(self):
        """A chained lane on a *different unprimed testbed* sharing the
        generator must draw its link realisations after the predecessor's
        last draw, not during the up-front batched priming."""
        config = ExorConfig(batch_size=8)

        def build_pair(seed):
            rng = np.random.default_rng(seed)
            first = random_relay_topology(rng)
            second = random_relay_topology(rng)
            return first, second, rng

        sequential = []
        for seed in (201, 202, 203):
            first, second, rng = build_pair(seed)
            r1 = simulate_exor(first, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            r2 = simulate_exor(second, 0, 1, 6.0, [2, 3, 4], config=config, rng=rng)
            sequential.append((r1, r2))
        lanes = []
        for seed in (201, 202, 203):
            first, second, rng = build_pair(seed)
            lane1 = ExorLane(first, 0, 1, 6.0, [2, 3, 4], config, rng)
            lane2 = ExorLane(second, 0, 1, 6.0, [2, 3, 4], config, rng, after=lane1)
            lanes.extend([lane1, lane2])
        results = simulate_exor_ensemble(lanes)
        batched = [(results[2 * i], results[2 * i + 1]) for i in range(3)]
        for got, expected in zip(batched, sequential):
            assert got == expected

    def test_heterogeneous_single_path_lanes(self):
        """Mixed batch sizes through the single-path ensemble."""
        sizes = [5, 14, 9]
        sequential = [
            simulate_single_path(tb, 0, 1, 6.0, n_packets=n, rng=rng)
            for (tb, rng), n in zip(_relay_testbeds(3, seed=95), sizes)
        ]
        batched = simulate_single_path_ensemble(
            [
                ExorLane(tb, 0, 1, 6.0, [2, 3, 4], ExorConfig(batch_size=n), rng)
                for (tb, rng), n in zip(_relay_testbeds(3, seed=95), sizes)
            ]
        )
        _assert_results_equal(batched, sequential)


class TestSinglePathEnsembleEquivalence:
    def test_bit_identical_and_stream_preserving(self):
        """Same results as the scalar loop, and the generator ends in the same state."""
        config = ExorConfig(batch_size=9)
        sequential = []
        tails = []
        for tb, rng in _relay_testbeds(5, seed=21):
            sequential.append(
                simulate_single_path(tb, 0, 1, 6.0, n_packets=9, rng=rng)
            )
            tails.append(rng.random(4).tolist())  # downstream draws must match too
        pairs = _relay_testbeds(5, seed=21)
        testbeds = [tb for tb, _ in pairs]
        prime_testbeds_lockstep(testbeds, config.probe_rate_mbps, config.payload_bytes)
        batched = simulate_single_path_ensemble(
            [ExorLane(tb, 0, 1, 6.0, [2, 3, 4], config, rng) for tb, rng in pairs]
        )
        _assert_results_equal(batched, sequential)
        for (_, rng), tail in zip(pairs, tails):
            assert rng.random(4).tolist() == tail

    def test_disconnected_pair_consumes_no_draws(self):
        config = ExorConfig(batch_size=5)
        rng = np.random.default_rng(3)
        testbed = Testbed.from_positions([(0, 0), (5000, 0)], rng=rng)
        [result] = simulate_single_path_ensemble(
            [ExorLane(testbed, 0, 1, 6.0, [], config, rng)]
        )
        assert result.throughput_mbps == 0.0
        assert result.delivered_packets == 0
        rng2 = np.random.default_rng(3)
        testbed2 = Testbed.from_positions([(0, 0), (5000, 0)], rng=rng2)
        expected = simulate_single_path(testbed2, 0, 1, 6.0, n_packets=5, rng=rng2)
        assert result == expected
        assert rng.random() == rng2.random()
