"""Link-dynamics determinism: burst processes, link-local recovery, engines.

The contract under test (see :mod:`repro.channel.dynamics`): fault
injection only *modulates* delivery probabilities — it never changes how
many uniforms a phase consumes or in which order — so every execution
plan (lockstep engine, the sequential oracle of
``tests/routing/reference_mesh.py``, any chunk width, process pools,
``sweep --resume``) stays bit-identical under one seed, with or without
dynamics attached.

This module is part of the ROADMAP quick-check group
(``-k "smoke or joint_batch or exor_ensemble or sweep_fault or traffic_load
or link_dynamics"``).
"""

from functools import partial

import numpy as np
import pytest

import repro.routing.ensemble
import repro.routing.link_local
from repro.channel.dynamics import (
    FIRST_SLOTS,
    GilbertElliott,
    LinkDynamics,
    LossRateGrid,
    link_order,
    materialise_trajectory,
    trajectory_from_states,
    trajectory_from_uniforms,
)
from repro.experiments import registry
from repro.experiments.fig18_opportunistic import random_relay_topology
from repro.experiments.runner import run_sweep
from repro.experiments.supervisor import RetryPolicy
from repro.lint.ledger import compare_runs
from repro.net.mac import MacTiming
from repro.net.topology import Testbed
from repro.phy.rates import rate_for_mbps
from repro.routing.ensemble import LinkLocalLane, simulate_link_local_ensemble
from repro.routing.link_local import LinkLocalConfig, simulate_link_local
from repro.traffic import (
    SCHEMES,
    mice_elephants,
    poisson_workload,
    relay_mesh,
    simulate_flow_services,
)
from tests.routing.reference_mesh import serve_flows

#: A bursty process deep enough that recovery schemes visibly diverge.
_GE = GilbertElliott.from_burst(3.0, 0.25, bad_multiplier=0.1)

#: Small horizon exercises the slot-wrap path in every multi-packet test.
_DYNAMICS = LinkDynamics(
    gilbert_elliott=_GE,
    grid=LossRateGrid((6.0, 24.0), (0.02, 0.1)),
    horizon_slots=32,
)

_MIX = mice_elephants(mice_packets=1, elephant_packets=4, elephant_fraction=0.3)


class TestGilbertElliott:
    def test_from_burst_roundtrip(self):
        process = GilbertElliott.from_burst(8.0, 0.2)
        assert process.mean_burst_slots() == pytest.approx(8.0)
        assert process.stationary_bad_fraction() == pytest.approx(0.2)

    def test_infeasible_burst_fraction_rejected(self):
        """burst 1 slot at 90% bad needs p_good_to_bad = 9 — impossible."""
        with pytest.raises(ValueError, match="p_good_to_bad > 1"):
            GilbertElliott.from_burst(1.0, 0.9)

    def test_absorbing_bad_state_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=0.5, p_bad_to_good=0.0)

    def test_stationary_fraction_converges(self):
        process = GilbertElliott.from_burst(4.0, 0.3)
        uniforms = np.random.default_rng(0).random((20_000, 4))
        states = process.evolve_states(uniforms)
        assert states[:, 0].tolist().count(True) > 0  # bursts actually occur
        assert float(states.mean()) == pytest.approx(0.3, abs=0.02)

    def test_mean_burst_length_converges(self):
        process = GilbertElliott.from_burst(4.0, 0.2)
        states = process.evolve_states(np.random.default_rng(1).random((60_000, 1)))[:, 0]
        # Lengths of maximal bad runs: diff of the padded state sequence
        # marks burst starts (+1) and ends (-1).
        padded = np.concatenate(([False], states, [False])).astype(np.int8)
        edges = np.flatnonzero(np.diff(padded))
        lengths = edges[1::2] - edges[0::2]
        assert float(lengths.mean()) == pytest.approx(4.0, rel=0.1)

    def test_stacked_lanes_bit_identical_to_each_alone(self):
        """The kernel is comparison-only: leading axes evolve independently."""
        uniforms = np.random.default_rng(2).random((3, 200, 5))
        stacked = _GE.evolve_states(uniforms)
        for lane in range(3):
            np.testing.assert_array_equal(stacked[lane], _GE.evolve_states(uniforms[lane]))


def _loop_states(process, uniforms):
    """Reference per-slot scan: the Markov chain written out slot by slot."""
    u = np.asarray(uniforms)
    states = np.empty(u.shape, dtype=bool)
    states[..., 0, :] = u[..., 0, :] < process.stationary_bad_fraction()
    for t in range(1, u.shape[-2]):
        previous = states[..., t - 1, :]
        states[..., t, :] = np.where(
            previous, u[..., t, :] >= process.p_bad_to_good, u[..., t, :] < process.p_good_to_bad
        )
    return states


class TestLoopFreeKernel:
    """``evolve_states`` against the per-slot loop it replaces."""

    @pytest.mark.parametrize("burst", [1.0, 2.0, 8.0, 32.0])
    def test_matches_per_slot_loop_across_burst_lengths(self, burst):
        process = GilbertElliott.from_burst(burst, 0.3 if burst > 1.0 else 0.4)
        uniforms = np.random.default_rng(int(burst)).random((700, 9))
        np.testing.assert_array_equal(process.evolve_states(uniforms), _loop_states(process, uniforms))

    @pytest.mark.parametrize(
        "process",
        [
            GilbertElliott(0.0, 0.3),  # p = 0: never fails after slot 0
            GilbertElliott(1.0, 0.3),  # p = 1: a good link always fails
            GilbertElliott(0.2, 1.0),  # r = 1: bad lasts exactly one slot
            GilbertElliott(1.0, 1.0),  # every slot flips
        ],
        ids=["p0", "p1", "r1", "p1r1"],
    )
    def test_matches_per_slot_loop_at_edge_probabilities(self, process):
        uniforms = np.random.default_rng(5).random((300, 7))
        np.testing.assert_array_equal(process.evolve_states(uniforms), _loop_states(process, uniforms))

    def test_single_slot_is_the_stationary_sample(self):
        uniforms = np.random.default_rng(6).random((1, 40))
        np.testing.assert_array_equal(_GE.evolve_states(uniforms), _loop_states(_GE, uniforms))

    def test_stacked_leading_axes_match_the_loop(self):
        uniforms = np.random.default_rng(7).random((2, 3, 130, 4))
        np.testing.assert_array_equal(_GE.evolve_states(uniforms), _loop_states(_GE, uniforms))

    def test_flip_parity_survives_long_runs_of_flips(self):
        """More than 255 flips in a row (the parity counter wraps)."""
        process = GilbertElliott(1.0, 1.0)
        uniforms = np.full((600, 2), 0.5)
        uniforms[0] = (0.9, 0.1)  # one link starts good, one bad
        np.testing.assert_array_equal(process.evolve_states(uniforms), _loop_states(process, uniforms))

    def test_rejects_blocks_without_a_slot_axis(self):
        with pytest.raises(ValueError):
            _GE.evolve_states(np.zeros(5))


class TestLossRateGrid:
    def test_interpolates_and_clamps(self):
        grid = LossRateGrid((6.0, 12.0), (0.1, 0.3))
        assert grid.loss_rate_for(9.0) == pytest.approx(0.2)
        assert grid.loss_rate_for(1.0) == pytest.approx(0.1)  # clamped low
        assert grid.loss_rate_for(54.0) == pytest.approx(0.3)  # clamped high

    def test_validation(self):
        with pytest.raises(ValueError):
            LossRateGrid((6.0, 12.0), (0.1,))
        with pytest.raises(ValueError):
            LossRateGrid((12.0, 6.0), (0.1, 0.3))


class TestTrajectory:
    def test_grid_only_spec_consumes_no_entropy(self):
        dynamics = LinkDynamics(grid=LossRateGrid((6.0, 12.0), (0.1, 0.3)))
        assert dynamics.draw_state_uniforms(np.random.default_rng(0), 6) is None
        trajectory = materialise_trajectory(dynamics, [0, 1, 2], 9.0, rng=None)
        # Every multiplier is the constant grid factor 1 - 0.2.
        assert trajectory.pair_multiplier(5, 0, 2) == pytest.approx(0.8)

    def test_slots_wrap_at_the_horizon(self):
        trajectory = materialise_trajectory(
            _DYNAMICS, [0, 1, 2], 12.0, np.random.default_rng(3)
        )
        horizon = _DYNAMICS.horizon_slots
        for slot in (0, 7, horizon - 1):
            assert trajectory.pair_multiplier(slot, 0, 1) == (
                trajectory.pair_multiplier(slot + horizon, 0, 1)
            )

    def test_accessors_agree_and_joint_senders_take_the_best_link(self):
        dynamics = LinkDynamics(
            gilbert_elliott=GilbertElliott(0.5, 0.5, bad_multiplier=0.25), horizon_slots=2
        )
        states = np.zeros((2, 6), dtype=bool)
        states[0, link_order([0, 1, 2]).index((0, 2))] = True  # link 0→2 bad at slot 0
        trajectory = trajectory_from_states(dynamics, [0, 1, 2], 12.0, states)
        assert trajectory.pair_multiplier(0, 0, 2) == 0.25
        np.testing.assert_array_equal(trajectory.rows(0, 2, 0, [2])[:, 0], [0.25, 1.0])
        # A joint (0, 1) transmission towards 2 rides the best sender's state.
        np.testing.assert_array_equal(
            trajectory.receiver_multipliers(0, [0, 1], [2]), [1.0]
        )

    def test_link_order_is_all_ordered_pairs(self):
        assert link_order([3, 5]) == [(3, 5), (5, 3)]

    @pytest.mark.parametrize("build", ["uniforms", "states"])
    def test_wrong_block_shape_is_rejected(self, build):
        nodes = [0, 1, 2]
        for shape in ((_DYNAMICS.horizon_slots, 5), (_DYNAMICS.horizon_slots - 1, 6), (6,)):
            block = np.zeros(shape, dtype=bool if build == "states" else np.float64)
            with pytest.raises(ValueError, match="horizon_slots, n\\*\\(n-1\\)"):
                if build == "states":
                    trajectory_from_states(_DYNAMICS, nodes, 12.0, block)
                else:
                    trajectory_from_uniforms(_DYNAMICS, nodes, 12.0, block)

    def test_compact_storage_is_one_byte_per_slot_and_link(self):
        """A new trajectory holds only its first block, one byte per slot and
        link plus the self-link column; a read past it decodes the rest."""
        dynamics = LinkDynamics(gilbert_elliott=_GE, horizon_slots=3 * FIRST_SLOTS)
        trajectory = materialise_trajectory(dynamics, [4, 7, 9], 12.0, np.random.default_rng(8))
        assert trajectory.multipliers.dtype == np.uint8
        assert trajectory.multipliers.shape == (FIRST_SLOTS, 7)
        trajectory.pair_multiplier(FIRST_SLOTS - 1, 4, 7)
        assert trajectory.multipliers.shape == (FIRST_SLOTS, 7)
        trajectory.pair_multiplier(FIRST_SLOTS, 4, 7)
        assert trajectory.multipliers.shape == (3 * FIRST_SLOTS, 7)
        assert trajectory.pending is None


#: Past the first block and then some: growth, and a wrap beyond it.
_LONG = 3 * FIRST_SLOTS + 5


class TestStreamPosition:
    """The lazy draw leaves the lane generator exactly where the whole block would."""

    nodes = [4, 7, 9]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.random.Generator(np.random.PCG64(21)),
            lambda: np.random.Generator(np.random.PCG64DXSM(21)),
            lambda: np.random.Generator(np.random.MT19937(21)),
            lambda: np.random.Generator(np.random.Philox(21)),
        ],
        ids=["pcg64", "pcg64dxsm", "mt19937", "philox"],
    )
    @pytest.mark.parametrize("pending_half", [False, True], ids=["aligned", "pending-half"])
    def test_generator_state_matches_the_whole_block_draw(self, make, pending_half):
        dynamics = LinkDynamics(gilbert_elliott=_GE, grid=_GRID, horizon_slots=_LONG)
        lazy, eager = make(), make()
        if pending_half:
            lazy.integers(0, 10)
            eager.integers(0, 10)
            if "has_uint32" in lazy.bit_generator.state:
                assert lazy.bit_generator.state["has_uint32"] == 1
        trajectory = materialise_trajectory(dynamics, self.nodes, 12.0, lazy)
        block = eager.random((_LONG, 6))
        np.testing.assert_equal(lazy.bit_generator.state, eager.bit_generator.state)
        assert lazy.integers(0, 10, 5).tolist() == eager.integers(0, 10, 5).tolist()
        assert lazy.random() == eager.random()
        # The trajectory is the one the whole block gives.
        oracle = trajectory_from_states(dynamics, self.nodes, 12.0, _loop_states(_GE, block))
        for src in self.nodes:
            receivers = [node for node in self.nodes if node != src]
            np.testing.assert_array_equal(
                trajectory.rows(0, _LONG, src, receivers), oracle.rows(0, _LONG, src, receivers)
            )


def _dense_cube(dynamics, node_ids, rate_mbps, uniforms):
    """Oracle: the dense ``(slot, src, dst)`` multiplier cube, self links 1."""
    n = len(node_ids)
    cube = np.ones((dynamics.horizon_slots, n, n))
    if dynamics.gilbert_elliott is not None:
        process = dynamics.gilbert_elliott
        flat = np.where(
            _loop_states(process, uniforms), process.bad_multiplier, process.good_multiplier
        )
        index = {node: k for k, node in enumerate(node_ids)}
        for column, (a, b) in enumerate(link_order(node_ids)):
            cube[:, index[a], index[b]] = flat[:, column]
    if dynamics.grid is not None:
        cube = cube * (1.0 - dynamics.grid.loss_rate_for(rate_mbps))
    return cube


_GRID = LossRateGrid((6.0, 24.0), (0.02, 0.1))


class TestLazyAccessors:
    """Every accessor against a dense cube built from the per-slot loop."""

    nodes = [10, 3, 7, 5]

    def build(self, dynamics, seed=9):
        n_links = len(self.nodes) * (len(self.nodes) - 1)
        uniforms = dynamics.draw_state_uniforms(np.random.default_rng(seed), n_links)
        trajectory = materialise_trajectory(
            dynamics, self.nodes, 12.0, np.random.default_rng(seed)
        )
        cube = _dense_cube(dynamics, self.nodes, 12.0, uniforms)
        return trajectory, cube

    def at(self, cube, slot, src, dst):
        index = {node: k for k, node in enumerate(self.nodes)}
        return cube[slot % cube.shape[0], index[src], index[dst]]

    @pytest.mark.parametrize(
        "dynamics",
        [
            LinkDynamics(gilbert_elliott=_GE, horizon_slots=24),
            LinkDynamics(grid=_GRID, horizon_slots=24),
            LinkDynamics(gilbert_elliott=_GE, grid=_GRID, horizon_slots=24),
            LinkDynamics(gilbert_elliott=_GE, horizon_slots=_LONG),
            LinkDynamics(gilbert_elliott=_GE, grid=_GRID, horizon_slots=_LONG),
        ],
        ids=["ge", "grid", "ge+grid", "ge-long", "ge+grid-long"],
    )
    def test_every_accessor_matches_the_dense_cube(self, dynamics):
        trajectory, cube = self.build(dynamics)
        horizon = dynamics.horizon_slots
        # Slots past the horizon wrap; rows straddle the wrap point.
        for slot in (0, 5, horizon - 1, horizon, 3 * horizon + 2):
            for src in self.nodes:
                for dst in self.nodes:
                    if src != dst:
                        assert trajectory.pair_multiplier(slot, src, dst) == (
                            self.at(cube, slot, src, dst)
                        )
        receivers = [3, 5, 10]
        block = trajectory.rows(horizon - 3, 7, 7, receivers)
        assert block.shape == (7, 3)
        for k in range(7):
            for r, node in enumerate(receivers):
                assert block[k, r] == self.at(cube, horizon - 3 + k, 7, node)
        assert trajectory.rows(0, 4, 7, []).shape == (4, 0)
        assert trajectory.rows(5, 0, 7, receivers).shape == (0, 3)
        for slot in (1, horizon + 1):
            joint = trajectory.receiver_multipliers(slot, [10, 7], receivers)
            expected = [
                max(self.at(cube, slot, 10, node), self.at(cube, slot, 7, node))
                for node in receivers
            ]
            np.testing.assert_array_equal(joint, expected)
            single = trajectory.receiver_multipliers(slot, [3], [5, 7])
            np.testing.assert_array_equal(
                single, [self.at(cube, slot, 3, 5), self.at(cube, slot, 3, 7)]
            )

    def test_a_sender_that_also_receives_reads_the_self_level(self):
        """Self links read 1 × grid, as the dense cube's diagonal did."""
        dynamics = LinkDynamics(gilbert_elliott=_GE, grid=_GRID, horizon_slots=16)
        trajectory, cube = self.build(dynamics)
        factor = 1.0 - _GRID.loss_rate_for(12.0)
        joint = trajectory.receiver_multipliers(4, [3, 7], [3, 5])
        np.testing.assert_array_equal(
            joint,
            [
                max(factor, self.at(cube, 4, 7, 3)),
                max(self.at(cube, 4, 3, 5), self.at(cube, 4, 7, 5)),
            ],
        )
        assert trajectory.pair_multiplier(9, 5, 5) == factor
        np.testing.assert_array_equal(trajectory.rows(14, 4, 5, [5])[:, 0], [factor] * 4)

    @pytest.mark.parametrize(
        "first_read",
        [
            lambda t: t.rows(FIRST_SLOTS - 3, 7, 7, [3, 5]),
            lambda t: t.rows(_LONG - 3, 7, 10, [7]),
            lambda t: t.pair_multiplier(FIRST_SLOTS, 3, 5),
            lambda t: t.pair_multiplier(2 * _LONG - 1, 5, 3),
            lambda t: t.receiver_multipliers(FIRST_SLOTS + 9, [10, 3], [5, 7]),
            lambda t: t.rows(FIRST_SLOTS - 1, 0, 7, [3, 5]),
        ],
        ids=["rows-across-prefix", "rows-across-wrap", "pair-past-prefix",
             "pair-wrapped-last", "joint-past-prefix", "rows-empty"],
    )
    def test_growth_decodes_every_slot_as_the_dense_cube(self, first_read):
        """Whichever read first reaches past the first block, every slot then
        reads as the per-slot loop's cube, before, across and past the prefix."""
        dynamics = LinkDynamics(gilbert_elliott=_GE, grid=_GRID, horizon_slots=_LONG)
        trajectory, cube = self.build(dynamics)
        first_read(trajectory)
        for slot in range(_LONG):
            for src in self.nodes:
                receivers = [node for node in self.nodes if node != src]
                np.testing.assert_array_equal(
                    trajectory.receiver_multipliers(slot, [src], receivers),
                    [self.at(cube, slot, src, node) for node in receivers],
                )

    def test_read_order_cannot_change_a_multiplier(self):
        """Evaluating columns alone or together gives the same floats."""
        dynamics = LinkDynamics(gilbert_elliott=_GE, grid=_GRID, horizon_slots=40)
        together, _ = self.build(dynamics)
        alone, _ = self.build(dynamics)
        receivers = [3, 5, 10]
        block = together.rows(0, 40, 7, receivers)
        for r, node in enumerate(receivers):
            column = [alone.pair_multiplier(slot, 7, node) for slot in range(40)]
            np.testing.assert_array_equal(block[:, r], column)


def _close_pair_testbed(seed):
    """Two nodes near enough that the direct link is essentially lossless."""
    return Testbed.from_positions([(0.0, 0.0), (12.0, 0.0)], rng=np.random.default_rng(seed))


class TestLinkLocalRecovery:
    def test_strong_link_delivers_everything(self):
        result = simulate_link_local(
            _close_pair_testbed(4), 0, 1, 12.0, n_packets=20, rng=np.random.default_rng(5)
        )
        assert result.delivered_packets == result.total_packets == 20
        assert result.delivery_ratio == 1.0
        assert result.e2e_retries == 0
        assert result.route == (0, 1)

    def test_dead_links_exhaust_every_budget_exactly(self):
        """Multiplier-0 dynamics kill every attempt: the scheme must spend
        its full local budget per pass, degrade to end-to-end recovery, and
        charge each deterministic backoff wait — all with exact counts."""
        config = LinkLocalConfig(
            local_retry_limit=3,
            e2e_retry_limit=2,
            timeout_fraction=0.25,
            backoff_factor=2.0,
            dynamics=LinkDynamics(
                gilbert_elliott=GilbertElliott(0.5, 0.5, good_multiplier=0.0, bad_multiplier=0.0),
                horizon_slots=16,
            ),
        )
        testbed = _close_pair_testbed(4)
        n_packets = 5
        result = simulate_link_local(
            testbed, 0, 1, 12.0, n_packets=n_packets, config=config,
            rng=np.random.default_rng(6),
        )
        passes = n_packets * config.e2e_passes
        assert result.delivered_packets == 0
        assert result.transmissions == passes * config.attempts_per_hop
        assert result.local_retransmissions == passes * config.local_retry_limit
        assert result.e2e_retries == n_packets * config.e2e_retry_limit
        per_attempt_us = MacTiming(params=testbed.params).single_transaction_us(
            config.payload_bytes, rate_for_mbps(12.0)
        )
        backoff_us = (
            config.timeout_fraction
            * per_attempt_us
            * sum(config.backoff_factor**k for k in range(config.local_retry_limit))
        )
        assert result.elapsed_us == pytest.approx(
            result.transmissions * per_attempt_us + passes * backoff_us
        )

    def test_degenerate_route_consumes_no_entropy(self):
        """src == dst: no transfer, and the trajectory draw must not happen
        (otherwise the flow's later schemes would shift their streams)."""
        rng = np.random.default_rng(7)
        config = LinkLocalConfig(dynamics=_DYNAMICS)
        result = simulate_link_local(
            _close_pair_testbed(4), 0, 0, 12.0, n_packets=3, config=config, rng=rng
        )
        assert result.delivered_packets == result.transmissions == 0
        assert rng.random() == np.random.default_rng(7).random()

    def test_ensemble_bit_identical_to_sequential(self):
        """The ensemble entry point replays the per-lane sequential calls."""
        config = LinkLocalConfig(local_retry_limit=2, e2e_retry_limit=1, dynamics=_DYNAMICS)

        def testbeds(seed):
            rngs = [
                np.random.default_rng(child)
                for child in np.random.SeedSequence(seed).spawn(5)
            ]
            return [(random_relay_topology(rng), rng) for rng in rngs]

        sequential = [
            simulate_link_local(tb, 0, 1, 12.0, n_packets=15, config=config, rng=rng)
            for tb, rng in testbeds(42)
        ]
        batched = simulate_link_local_ensemble(
            [
                LinkLocalLane(tb, 0, 1, 12.0, 15, config, rng)
                for tb, rng in testbeds(42)
            ]
        )
        assert batched == sequential
        # The scenario must exercise both recovery tiers somewhere.
        assert any(r.local_retransmissions > 0 for r in sequential)
        assert any(r.e2e_retries > 0 for r in sequential)


def _serve(workload, factory, **kwargs):
    return simulate_flow_services(workload, factory, dst=1, **kwargs)


class TestTrafficUnderDynamics:
    """All four schemes, served over a faulty mesh, across execution plans."""

    def setup_method(self):
        self.workload = poisson_workload(5, 0.2, _MIX, 12.0, 256, seed=21)
        self.factory = partial(relay_mesh, 17, n_relays=2)

    def test_lockstep_matches_sequential(self):
        lockstep = _serve(self.workload, self.factory, dynamics=_DYNAMICS)
        sequential = serve_flows(self.workload, self.factory, dst=1, dynamics=_DYNAMICS)
        assert lockstep == sequential
        for scheme in SCHEMES:
            assert [s.flow_index for s in lockstep[scheme]] == list(range(5))

    def test_chunk_width_cannot_change_results(self):
        reference = _serve(self.workload, self.factory, dynamics=_DYNAMICS)
        for chunk_flows in (1, 2, 5, 50):
            chunked = _serve(
                self.workload, self.factory, dynamics=_DYNAMICS, chunk_flows=chunk_flows
            )
            assert chunked == reference, chunk_flows

    def test_process_pool_identical_to_in_process(self):
        assert _serve(self.workload, self.factory, dynamics=_DYNAMICS, jobs=2) == (
            _serve(self.workload, self.factory, dynamics=_DYNAMICS, jobs=1)
        )

    def test_enabling_link_local_leaves_earlier_schemes_untouched(self):
        """link_local is LAST in the canonical order, so serving the full
        four-scheme set must reproduce the three-scheme serve bit for bit —
        the invariant that keeps fig19's pinned results valid."""
        full = _serve(self.workload, self.factory, dynamics=_DYNAMICS)
        subset = _serve(
            self.workload,
            self.factory,
            dynamics=_DYNAMICS,
            schemes=("single_path", "exor", "sourcesync"),
        )
        assert {scheme: full[scheme] for scheme in subset} == subset


class TestDrawLedgerAudit:
    def test_trajectory_draw_sits_at_the_same_stream_position(self):
        """Audited value streams of the lockstep and sequential serves must
        be identical — the dynamics draw consumes the same uniforms at the
        same offset in both engines (merged draws aside, which the ledger's
        chunking-independent comparison ignores).  One flow keeps the audit
        meaningful: the ledger concatenates draws across *all* generators in
        call order, and multi-flow lockstep legitimately interleaves lanes.
        """
        workload = poisson_workload(1, 0.2, _MIX, 12.0, 256, seed=33)
        factory = partial(relay_mesh, 17, n_relays=2)
        diff = compare_runs(
            lambda: simulate_flow_services(
                workload, factory, dst=1, schemes=("exor", "sourcesync"), dynamics=_DYNAMICS,
            ),
            lambda: serve_flows(
                workload, factory, dst=1, schemes=("exor", "sourcesync"), dynamics=_DYNAMICS,
            ),
        )
        assert diff.identical, diff.report()
        assert diff.result_a == diff.result_b


def _eager_from_uniforms(dynamics, node_ids, rate_mbps, rng):
    """Oracle builder: the whole uniform block drawn up front."""
    n_links = len(node_ids) * (len(node_ids) - 1)
    uniforms = dynamics.draw_state_uniforms(rng, n_links)
    return trajectory_from_uniforms(dynamics, node_ids, rate_mbps, uniforms)


def _eager_from_loop(dynamics, node_ids, rate_mbps, rng):
    """Oracle builder: the whole block, decoded by the per-slot loop."""
    n_links = len(node_ids) * (len(node_ids) - 1)
    uniforms = dynamics.draw_state_uniforms(rng, n_links)
    states = None if uniforms is None else _loop_states(dynamics.gilbert_elliott, uniforms)
    return trajectory_from_states(dynamics, node_ids, rate_mbps, states)


#: The modules that build lane trajectories, by their imported name.
_TRAJECTORY_CALLERS = (repro.routing.link_local, repro.routing.ensemble)


class TestEagerOracle:
    @pytest.mark.parametrize("build", [_eager_from_uniforms, _eager_from_loop],
                             ids=["uniforms", "loop"])
    def test_fig20_smoke_matches_whole_block_trajectories(self, monkeypatch, build):
        """fig20 ``smoke`` gives the same bytes when every trajectory is drawn
        as a whole block up front — and some trajectory does grow, so the
        saved-state re-draw is exercised.  Afterwards every lazy trajectory,
        read over its whole horizon, equals its whole-block twin."""
        spec = registry.get("fig20_link_dynamics")
        config = spec.make_config("smoke")
        built = {"lazy": [], "eager": []}

        def recording(kind, builder):
            def wrapped(*args):
                built[kind].append(builder(*args))
                return built[kind][-1]
            return wrapped

        for module in _TRAJECTORY_CALLERS:
            monkeypatch.setattr(
                module, "materialise_trajectory", recording("lazy", materialise_trajectory)
            )
        lazy = spec.run(config).to_json()
        assert any(len(t.multipliers) > FIRST_SLOTS for t in built["lazy"])
        for module in _TRAJECTORY_CALLERS:
            monkeypatch.setattr(module, "materialise_trajectory", recording("eager", build))
        assert spec.run(config).to_json() == lazy
        assert len(built["lazy"]) == len(built["eager"])
        for a, b in zip(built["lazy"], built["eager"]):
            nodes = sorted({src for src, _ in a.columns})
            for src in nodes:
                np.testing.assert_array_equal(
                    a.rows(0, a.horizon_slots, src, nodes), b.rows(0, b.horizon_slots, src, nodes)
                )


#: Near-zero backoff keeps any supervised retry cheap in tests.
_FAST = RetryPolicy(backoff_base_s=0.01, backoff_jitter=0.1)


class TestFig20Sweep:
    def test_fault_grid_resumes_byte_identical(self, tmp_path):
        """The link-dynamics experiment sweeps through the fault-tolerant
        engine: a resume serves pure cache hits and a fresh run of the same
        grid produces byte-identical artifacts."""
        grid = {"seed": [1, 2]}
        first_dir, clean_dir = tmp_path / "first", tmp_path / "clean"
        first = run_sweep(
            "fig20_link_dynamics", grid, preset="smoke", policy=_FAST, run_dir=first_dir
        )
        assert [o.status for o in first.outcomes] == ["completed", "completed"]
        resumed = run_sweep(
            "fig20_link_dynamics", grid, preset="smoke", policy=_FAST, run_dir=first_dir
        )
        assert [o.status for o in resumed.outcomes] == ["cached", "cached"]
        clean = run_sweep(
            "fig20_link_dynamics", grid, preset="smoke", policy=_FAST, run_dir=clean_dir
        )
        for res, cln in zip(resumed.outcomes, clean.outcomes):
            assert res.job.key == cln.job.key
            assert resumed.cache.path_for(res.job.key).read_bytes() == (
                clean.cache.path_for(cln.job.key).read_bytes()
            )
