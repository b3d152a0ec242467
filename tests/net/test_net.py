"""Tests for the network substrate: topology, ETX, MAC timing, event scheduler."""

import numpy as np
import pytest

from repro.channel.multipath import DEFAULT_PROFILE, MultipathProfile
from repro.net import (
    CsmaState,
    EventScheduler,
    MacTiming,
    MeshNode,
    Packet,
    Testbed,
    best_route,
    etx_graph,
    etx_to_destination,
    forwarder_order,
    link_etx,
    prime_delivery_caches,
)
from repro.phy.rates import rate_for_mbps


@pytest.fixture(scope="module")
def line_testbed():
    """Four nodes on a line: 0 -- 2 -- 3 -- 1 with a long, weak 0-1 link.

    Shadowing is disabled so the link-quality ordering follows distance
    deterministically.
    """
    from repro.channel.propagation import PathLossModel

    rng = np.random.default_rng(0)
    return Testbed.from_positions(
        [(0, 0), (90, 0), (30, 0), (60, 0)],
        rng=rng,
        path_loss=PathLossModel(shadowing_sigma_db=0.0),
    )


class TestNodesAndPackets:
    def test_distance(self):
        a, b = MeshNode(0, 0.0, 0.0), MeshNode(1, 3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_random_node_in_area(self):
        rng = np.random.default_rng(1)
        node = MeshNode.random(5, rng, area_m=30.0)
        assert 0 <= node.x <= 30 and 0 <= node.y <= 30

    def test_packet_sequence_increases(self):
        a = Packet(src=0, dst=1)
        b = Packet(src=0, dst=1)
        assert b.seq > a.seq
        assert a.payload_bits == 1460 * 8

    def test_packet_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, payload_bytes=0)


class TestTestbed:
    def test_snr_decreases_with_distance(self, line_testbed):
        near = line_testbed.link_average_snr_db(0, 2)
        far = line_testbed.link_average_snr_db(0, 1)
        assert near > far

    def test_snr_is_reciprocal_and_cached(self, line_testbed):
        assert line_testbed.link_average_snr_db(0, 2) == line_testbed.link_average_snr_db(2, 0)
        assert line_testbed.link_average_snr_db(0, 2) == line_testbed.link_average_snr_db(0, 2)

    def test_profiles_are_directional_but_stable(self, line_testbed):
        forward = line_testbed.link_profile(0, 2)
        again = line_testbed.link_profile(0, 2)
        assert np.array_equal(forward, again)
        assert forward.size == line_testbed.params.n_occupied_subcarriers

    def test_delivery_probability_ordering(self, line_testbed):
        good = line_testbed.delivery_probability(0, 2, 6.0)
        bad = line_testbed.delivery_probability(0, 1, 6.0)
        assert good > bad

    def test_joint_delivery_at_least_best_single(self, line_testbed):
        single = max(
            line_testbed.delivery_probability(2, 1, 12.0),
            line_testbed.delivery_probability(3, 1, 12.0),
        )
        joint = line_testbed.joint_delivery_probability([2, 3], 1, 12.0)
        assert joint >= single - 1e-9

    def test_self_link_rejected(self, line_testbed):
        with pytest.raises(ValueError):
            line_testbed.delivery_probability(0, 0, 6.0)
        with pytest.raises(ValueError):
            line_testbed.joint_delivery_probability([1], 1, 6.0)

    def test_attempt_delivery_is_bernoulli(self, line_testbed):
        rng = np.random.default_rng(2)
        outcomes = [line_testbed.attempt_delivery(0, 2, 6.0, 1460, rng) for _ in range(100)]
        prob = line_testbed.delivery_probability(0, 2, 6.0)
        assert abs(np.mean(outcomes) - prob) < 0.2

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            Testbed(nodes=[MeshNode(0, 0, 0), MeshNode(0, 1, 1)])

    def test_random_testbed(self):
        rng = np.random.default_rng(3)
        tb = Testbed.random(6, rng)
        assert len(tb.node_ids) == 6


class TestEtx:
    def test_link_etx_formula(self):
        assert link_etx(0.5, 0.5) == pytest.approx(4.0)
        assert link_etx(0.0, 1.0) == float("inf")

    def test_graph_and_best_route(self, line_testbed):
        graph = etx_graph(line_testbed)
        route = best_route(graph, 0, 1)
        assert route is not None
        assert route[0] == 0 and route[-1] == 1
        # The multi-hop route through the intermediate nodes must be chosen
        # over the weak direct link (if the direct link is usable at all).
        assert len(route) >= 3

    def test_etx_distance_ordering(self, line_testbed):
        graph = etx_graph(line_testbed)
        distances = etx_to_destination(graph, 1)
        assert distances[3] < distances[2] < distances[0]

    def test_forwarder_order(self, line_testbed):
        graph = etx_graph(line_testbed)
        order = forwarder_order(graph, [2, 3], 1)
        assert order == [3, 2]

    def test_disconnected_route(self):
        rng = np.random.default_rng(4)
        tb = Testbed.from_positions([(0, 0), (5000, 0)], rng=rng)
        graph = etx_graph(tb)
        assert best_route(graph, 0, 1) is None


def _canonical_pairs(tb):
    """Directed pairs in the order lazy link draws consume a testbed generator.

    Nested (src, dst) walk over the node ids, each pair followed by its
    reverse, every directed pair once.
    """
    pairs = []
    for src in tb.node_ids:
        for dst in tb.node_ids:
            if src == dst:
                continue
            for pair in ((src, dst), (dst, src)):
                if pair not in pairs:
                    pairs.append(pair)
    return pairs


_PROFILES = [
    MultipathProfile(),
    MultipathProfile(n_taps=4, k_factor_db=6.0),
    MultipathProfile(n_taps=6, k_factor_db=0.0),
]


class TestDeliveryTables:
    def _mesh(self, seed=0, multipath_profile=DEFAULT_PROFILE):
        from repro.channel.propagation import PathLossModel

        rng = np.random.default_rng(seed)
        return Testbed.from_positions(
            [(0.0, 0.0), (85.0, 0.0), (30.0, 8.0), (55.0, -7.0)],
            rng=rng,
            path_loss=PathLossModel(exponent=3.3, reference_loss_db=43.0, shadowing_sigma_db=4.0),
            multipath_profile=multipath_profile,
        )

    def test_delivery_prob_matrix_matches_scalar_cache(self):
        tb = self._mesh(1)
        matrix = tb.delivery_prob_matrix(12.0, 1460)
        position = {node.node_id: i for i, node in enumerate(tb.nodes)}
        for a in tb.node_ids:
            for b in tb.node_ids:
                if a == b:
                    assert matrix[position[a], position[b]] == 0.0
                else:
                    assert matrix[position[a], position[b]] == tb.delivery_probability(
                        a, b, 12.0, 1460
                    )

    def test_delivery_probs_gathers_matrix_rows(self):
        """With the matrix built, a probability row is a gather from it."""
        tb = self._mesh(1)
        matrix = tb.delivery_prob_matrix(12.0, 1460)
        position = {node.node_id: i for i, node in enumerate(tb.nodes)}
        for a in tb.node_ids:
            others = [b for b in tb.node_ids if b != a]
            expected = matrix[position[a], [position[b] for b in others]]
            np.testing.assert_array_equal(tb.delivery_probs(a, others, 12.0, 1460), expected)
            np.testing.assert_array_equal(tb.delivery_probs([a], others, 12.0, 1460), expected)
            for b in others:
                assert tb.delivery_prob(a, b, 12.0, 1460) == tb.delivery_probability(a, b, 12.0, 1460)

    def test_delivery_probs_without_matrix_keeps_lazy_draw_order(self):
        """Before any matrix exists the row is lazy scalar lookups, in receiver order."""
        tb, reference = self._mesh(7), self._mesh(7)
        row = tb.delivery_probs(2, [3, 0, 1], 6.0, 1460)
        expected = [reference.delivery_probability(2, dst, 6.0, 1460) for dst in (3, 0, 1)]
        assert row.tolist() == expected
        assert tb.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_delivery_prob_matrix_is_cached(self):
        tb = self._mesh(2)
        assert tb.delivery_prob_matrix(6.0, 1460) is tb.delivery_prob_matrix(6.0, 1460)

    def test_joint_row_matches_scalar_joint_probability(self):
        tb = self._mesh(3)
        prime_delivery_caches([tb], 6.0, 1460)
        row = tb.joint_delivery_prob_row([2, 3], [0, 1], 6.0, 1460)
        fresh = self._mesh(3)
        prime_delivery_caches([fresh], 6.0, 1460)  # same canonical link realisations
        expected = [fresh.joint_delivery_probability([2, 3], d, 6.0, 1460) for d in (0, 1)]
        assert row.tolist() == expected
        assert tb.delivery_probs([2, 3], [0, 1], 6.0, 1460).tolist() == expected
        assert [tb.delivery_prob([3, 2], d, 6.0, 1460) for d in (0, 1)] == expected

    def test_joint_row_fill_respects_sender_order(self):
        """The batched row fill and the scalar memo produce one shared value."""
        tb = self._mesh(4)
        prime_delivery_caches([tb], 6.0, 1460)
        row = tb.joint_delivery_prob_row([3, 2, 0], [1], 6.0, 1460)
        # A later scalar call with any permutation hits the same cache entry.
        assert tb.joint_delivery_probability([2, 0, 3], 1, 6.0, 1460) == row[0]

    @pytest.mark.parametrize("profile", _PROFILES, ids=["rayleigh", "rician_k6_4taps", "rician_k0_6taps"])
    def test_prime_delivery_caches_matches_lazy_walk(self, profile):
        """Stacked priming equals a lazy per-link walk, generator end state included."""
        seeds = (10, 11, 12)
        primed = [self._mesh(seed, profile) for seed in seeds]
        prime_delivery_caches(primed, 6.0, 1460)
        for seed, tb in zip(seeds, primed):
            lazy = self._mesh(seed, profile)
            pairs = _canonical_pairs(lazy)
            for a, b in pairs:
                lazy.link_profile(a, b)
                lazy.delivery_probability(a, b, 6.0, 1460)
            # The generators must be in identical states afterwards ...
            assert tb.rng.bit_generator.state == lazy.rng.bit_generator.state
            for a, b in pairs:
                np.testing.assert_array_equal(tb.link_profile(a, b), lazy.link_profile(a, b))
                assert tb.delivery_probability(a, b, 6.0, 1460) == lazy.delivery_probability(
                    a, b, 6.0, 1460
                )
            # ... and every profile and probability was cached by the primer:
            # reading them all consumed no draws.
            assert tb.rng.bit_generator.state == lazy.rng.bit_generator.state

    def test_prime_delivery_caches_mixed_profiles_and_repeats(self):
        """One call over mixed profiles, with a testbed listed twice, primes each once."""
        profiles = [*_PROFILES, _PROFILES[0]]
        primed = [self._mesh(20 + k, profile) for k, profile in enumerate(profiles)]
        prime_delivery_caches([primed[0], *primed, primed[2]], 6.0, 1460)
        prime_delivery_caches(primed, 6.0, 1460)  # already primed: no draws
        for k, (tb, profile) in enumerate(zip(primed, profiles)):
            lazy = self._mesh(20 + k, profile)
            for a, b in _canonical_pairs(lazy):
                assert tb.delivery_probability(a, b, 6.0, 1460) == lazy.delivery_probability(
                    a, b, 6.0, 1460
                )
            assert tb.rng.bit_generator.state == lazy.rng.bit_generator.state

    def test_prime_delivery_caches_reuses_existing_profiles(self):
        """A second rate reuses the first rate's profiles without drawing."""
        tb, lazy = self._mesh(30), self._mesh(30)
        prime_delivery_caches([tb], 6.0, 1460)
        state = tb.rng.bit_generator.state
        prime_delivery_caches([tb], 12.0, 1460)
        assert tb.rng.bit_generator.state == state
        for a, b in _canonical_pairs(lazy):
            assert tb.delivery_probability(a, b, 12.0, 1460) == lazy.delivery_probability(
                a, b, 12.0, 1460
            )

    def test_prime_delivery_caches_failed_pass_is_not_marked_primed(self, monkeypatch):
        """A pass that raises part-way is redone in full by the next call."""
        import repro.net.topology as topology

        tb, lazy = self._mesh(40), self._mesh(40)

        def fail(*args, **kwargs):
            raise RuntimeError("EESM failed")

        with monkeypatch.context() as patch:
            patch.setattr(topology, "delivery_probabilities", fail)
            with pytest.raises(RuntimeError, match="EESM failed"):
                prime_delivery_caches([tb], 6.0, 1460)
        matrix = tb.delivery_prob_matrix(6.0, 1460)
        index = {node: k for k, node in enumerate(tb.node_ids)}
        for a, b in _canonical_pairs(lazy):
            assert matrix[index[a], index[b]] == lazy.delivery_probability(a, b, 6.0, 1460)
        assert tb.rng.bit_generator.state == lazy.rng.bit_generator.state

    def test_priming_entry_points_run_the_primer(self):
        """``Testbed.prime_delivery_cache`` and ``prime_testbeds_lockstep`` prime identically."""
        from repro.routing.ensemble import prime_testbeds_lockstep

        reference = [self._mesh(50 + k) for k in range(2)]
        prime_delivery_caches(reference, 6.0, 1460)
        single = [self._mesh(50 + k) for k in range(2)]
        for tb in single:
            tb.prime_delivery_cache(6.0, 1460)
        routed = [self._mesh(50 + k) for k in range(2)]
        prime_testbeds_lockstep(routed, 6.0, 1460)
        for ref, *others in zip(reference, single, routed):
            for tb in others:
                assert tb.rng.bit_generator.state == ref.rng.bit_generator.state
                for a, b in _canonical_pairs(ref):
                    assert tb.delivery_probability(a, b, 6.0, 1460) == ref.delivery_probability(
                        a, b, 6.0, 1460
                    )
                assert tb.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_memo_builds_once(self):
        tb = self._mesh(8)
        builds = []

        def build():
            builds.append(1)
            return ("value",)

        assert tb.memo(("demo", 1), build) == ("value",)
        assert tb.memo(("demo", 1), build) == ("value",)
        assert tb.memo(("demo", 2), build) == ("value",)
        assert len(builds) == 2

    def test_etx_graph_cache_hit(self, monkeypatch):
        """Both schemes of a topology share one ETX graph build."""
        import repro.net.etx as etx_module
        from repro.routing.exor import ExorConfig, simulate_exor
        from repro.routing.exor_sourcesync import simulate_exor_sourcesync

        builds = []
        original = etx_module._build_etx_graph

        def counting_build(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(etx_module, "_build_etx_graph", counting_build)
        tb = self._mesh(5)
        rng = np.random.default_rng(99)
        config = ExorConfig(batch_size=4)
        simulate_exor(tb, 0, 1, 6.0, [2, 3], config=config, rng=rng)
        simulate_exor_sourcesync(tb, 0, 1, 6.0, [2, 3], config=config, rng=rng)
        assert len(builds) == 1

    def test_exor_priority_cache_hit(self):
        from repro.routing.exor import ExorConfig, exor_priority

        tb = self._mesh(6)
        config = ExorConfig()
        first = exor_priority(tb, [2, 3], 0, 1, config)
        key = ("exor_priority", config.probe_rate_mbps, config.payload_bytes, (2, 3), 0, 1)
        assert tb.memo(key, lambda: pytest.fail("priority was not memoised")) == tuple(first)
        assert exor_priority(tb, [2, 3], 0, 1, config) == first


class TestMacTiming:
    def test_frame_airtime_decreases_with_rate(self):
        timing = MacTiming()
        assert timing.frame_airtime_us(1460, 54.0) < timing.frame_airtime_us(1460, 6.0)

    def test_transaction_includes_overheads(self):
        timing = MacTiming()
        frame = timing.frame_airtime_us(1460, 12.0)
        transaction = timing.single_transaction_us(1460, 12.0)
        assert transaction > frame + timing.difs_us

    def test_joint_overhead_positive_and_small(self):
        timing = MacTiming()
        overhead = timing.sourcesync_overhead_us(n_cosenders=1)
        assert 10.0 < overhead < 60.0
        joint = timing.joint_transaction_us(1460, 12.0, n_cosenders=1)
        single = timing.single_transaction_us(1460, 12.0)
        assert joint == pytest.approx(single + overhead)

    def test_joint_overhead_fraction_matches_paper_ballpark(self):
        timing = MacTiming()
        two = timing.joint_overhead_fraction(1460, 12.0, n_cosenders=1)
        five = timing.joint_overhead_fraction(1460, 12.0, n_cosenders=4)
        assert 0.01 < two < 0.03
        assert two < five < 0.06

    def test_rejects_negative_cosenders(self):
        with pytest.raises(ValueError):
            MacTiming().sourcesync_overhead_us(-1)

    def test_csma_state_accounting(self):
        state = CsmaState()
        state.account(100.0, True)
        state.account(100.0, False)
        assert state.transmissions == 2
        assert state.failures == 1
        assert state.throughput_mbps(100.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            state.account(-1.0, True)


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule_at(5.0, lambda: order.append("b"))
        sched.schedule_at(1.0, lambda: order.append("a"))
        sched.schedule_at(9.0, lambda: order.append("c"))
        sched.run()
        assert order == ["a", "b", "c"]
        assert sched.now_us == pytest.approx(9.0)

    def test_schedule_in_relative(self):
        sched = EventScheduler()
        times = []
        sched.schedule_in(2.0, lambda: times.append(sched.now_us))
        sched.run()
        assert times == [pytest.approx(2.0)]

    def test_cancelled_event_skipped(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        sched.run()
        assert fired == []

    def test_run_until(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(1.0, lambda: fired.append(1))
        sched.schedule_at(10.0, lambda: fired.append(2))
        sched.run(until_us=5.0)
        assert fired == [1]
        assert sched.now_us == pytest.approx(5.0)
        sched.run()
        assert fired == [1, 2]

    def test_cannot_schedule_in_past(self):
        sched = EventScheduler()
        sched.schedule_at(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        seen = []

        def first():
            seen.append("first")
            sched.schedule_in(1.0, lambda: seen.append("second"))

        sched.schedule_at(0.0, first)
        sched.run()
        assert seen == ["first", "second"]
