"""Tests for last-hop diversity: SampleRate, controller/association, downlink simulation.

Downlink behaviour runs on the lockstep lanes of :mod:`repro.routing.ensemble`;
their sequential oracle is ``tests/routing/reference_mesh.py``.
"""

import numpy as np
import pytest

from repro.channel.propagation import PathLossModel
from repro.lasthop import SampleRate, SourceSyncController
from repro.net.mac import MacTiming
from repro.net.topology import Testbed
from repro.phy.rates import rate_for_mbps, rates_sorted
from repro.routing.ensemble import DownlinkLane, simulate_downlink_ensemble
from tests.routing.reference_mesh import simulate_downlink


def _wlan(seed=0, client_pos=(20.0, 18.0)):
    rng = np.random.default_rng(seed)
    testbed = Testbed.from_positions(
        [(0.0, 0.0), (40.0, 0.0), client_pos],
        rng=rng,
        path_loss=PathLossModel(exponent=3.5, shadowing_sigma_db=5.0),
    )
    return testbed, rng


class TestSampleRate:
    def test_starts_at_a_valid_rate(self):
        adapter = SampleRate(rng=np.random.default_rng(0))
        assert adapter.choose_rate() in rates_sorted()

    def test_converges_down_when_high_rates_fail(self):
        rng = np.random.default_rng(1)
        adapter = SampleRate(rng=rng, sample_every=0)
        for _ in range(60):
            rate = adapter.choose_rate()
            adapter.report(rate, success=rate.mbps <= 12.0, n_attempts=1 if rate.mbps <= 12.0 else 3)
        chosen = [adapter.choose_rate().mbps for _ in range(10)]
        assert max(chosen) <= 12.0

    def test_converges_up_when_everything_succeeds(self):
        rng = np.random.default_rng(2)
        adapter = SampleRate(rng=rng)
        for _ in range(100):
            rate = adapter.choose_rate()
            adapter.report(rate, success=True)
        chosen = [adapter.choose_rate().mbps for _ in range(10)]
        assert np.median(chosen) >= 36.0

    def test_sampling_explores_other_rates(self):
        rng = np.random.default_rng(3)
        adapter = SampleRate(rng=rng, sample_every=5)
        seen = set()
        for _ in range(60):
            rate = adapter.choose_rate()
            seen.add(rate.mbps)
            adapter.report(rate, success=True)
        assert len(seen) > 1

    def test_report_validates_attempts(self):
        adapter = SampleRate(rng=np.random.default_rng(7))
        with pytest.raises(ValueError):
            adapter.report(rate_for_mbps(6.0), True, n_attempts=0)

    def test_statistics_exposed(self):
        adapter = SampleRate(rng=np.random.default_rng(4))
        rate = adapter.choose_rate()
        adapter.report(rate, True)
        stats = adapter.statistics()
        assert stats[rate.mbps][0] == 1


class TestController:
    def test_association_picks_best_lead(self):
        testbed, _ = _wlan(client_pos=(5.0, 5.0))
        controller = SourceSyncController(testbed, ap_ids=[0, 1], max_aps_per_client=2)
        association = controller.associate(2)
        assert association.lead_ap == 0  # much closer AP
        assert association.cosender_aps == (1,)
        assert association.k == 2

    def test_association_cached(self):
        testbed, _ = _wlan()
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        first = controller.association_for(2)
        second = controller.association_for(2)
        assert first is second

    def test_best_single_ap_matches_lead(self):
        testbed, _ = _wlan(client_pos=(33.0, 3.0))
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        assert controller.best_single_ap(2) == controller.associate(2).lead_ap

    def test_k_limits_ap_count(self):
        testbed, _ = _wlan()
        controller = SourceSyncController(testbed, ap_ids=[0, 1], max_aps_per_client=1)
        assert controller.associate(2).k == 1

    def test_client_cannot_be_ap(self):
        testbed, _ = _wlan()
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        with pytest.raises(ValueError):
            controller.associate(0)

    def test_requires_aps(self):
        testbed, _ = _wlan()
        with pytest.raises(ValueError):
            SourceSyncController(testbed, ap_ids=[])


class TestDownlinkSimulation:
    def test_sourcesync_beats_best_ap_for_cell_edge_client(self):
        # Client roughly equidistant and far from both APs: the combined
        # transmission supports a higher rate (the §8.3 effect).
        lanes = []
        for seed in range(4):
            testbed, rng = _wlan(seed=seed, client_pos=(20.0, 26.0))
            controller = SourceSyncController(testbed, ap_ids=[0, 1])
            best = DownlinkLane(testbed, controller, 2, "best_ap", rng, n_packets=100)
            joint = DownlinkLane(
                testbed, controller, 2, "sourcesync", rng, n_packets=100, after=best
            )
            lanes.extend([best, joint])
        results = simulate_downlink_ensemble(lanes)
        best_total = sum(r.throughput_mbps for r in results[0::2])
        joint_total = sum(r.throughput_mbps for r in results[1::2])
        assert joint_total > best_total

    def test_schemes_report_their_senders(self):
        testbed, rng = _wlan(5)
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        joint = DownlinkLane(testbed, controller, 2, "sourcesync", rng, n_packets=10)
        best = DownlinkLane(testbed, controller, 2, "best_ap", rng, n_packets=10, after=joint)
        forced = DownlinkLane(testbed, controller, 2, "single_ap:1", rng, n_packets=10, after=best)
        joint, best, forced = simulate_downlink_ensemble([joint, best, forced])
        assert len(joint.senders) == 2
        assert len(best.senders) == 1
        assert forced.senders == (1,)

    def test_unknown_scheme_rejected(self):
        testbed, rng = _wlan(6)
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        with pytest.raises(ValueError):
            simulate_downlink_ensemble([DownlinkLane(testbed, controller, 2, "beamforming", rng)])

    def test_delivery_ratio_and_counts(self):
        testbed, rng = _wlan(7)
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        [result] = simulate_downlink_ensemble(
            [DownlinkLane(testbed, controller, 2, "sourcesync", rng, n_packets=40)]
        )
        assert result.total_packets == 40
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.transmissions >= result.delivered_packets

    def test_custom_timing_respected(self):
        testbed, rng = _wlan(8)
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        timing = MacTiming(sifs_us=16.0)
        [result] = simulate_downlink_ensemble(
            [DownlinkLane(testbed, controller, 2, "sourcesync", rng, n_packets=10, timing=timing)]
        )
        assert result.total_packets == 10


class TestDownlinkEnsemble:
    """Lockstep last-hop engine vs the per-placement reference loop."""

    def _placements(self, n, seed):
        out = []
        for child in np.random.SeedSequence(seed).spawn(n):
            rng = np.random.default_rng(child)
            testbed = Testbed.from_positions(
                [(0.0, 0.0), (40.0, 0.0), (22.0, 21.0)],
                rng=rng,
                path_loss=PathLossModel(exponent=3.5, shadowing_sigma_db=5.0),
            )
            out.append((testbed, SourceSyncController(testbed, ap_ids=[0, 1]), rng))
        return out

    @pytest.mark.parametrize("scheme", ["best_ap", "sourcesync", "single_ap:1"])
    def test_bit_identical_to_sequential_downlink(self, scheme):
        sequential = [
            simulate_downlink(tb, controller, 2, scheme, n_packets=60, rng=rng)
            for tb, controller, rng in self._placements(5, seed=31)
        ]
        lanes = [
            DownlinkLane(tb, controller, 2, scheme, rng, n_packets=60)
            for tb, controller, rng in self._placements(5, seed=31)
        ]
        batched = simulate_downlink_ensemble(lanes)
        assert batched == sequential

    def test_schemes_chain_on_one_generator(self):
        sequential = []
        for tb, controller, rng in self._placements(4, seed=32):
            best = simulate_downlink(tb, controller, 2, "best_ap", n_packets=30, rng=rng)
            joint = simulate_downlink(tb, controller, 2, "sourcesync", n_packets=30, rng=rng)
            sequential.append((best, joint))
        placements = self._placements(4, seed=32)
        best_batched = simulate_downlink_ensemble(
            [DownlinkLane(tb, c, 2, "best_ap", rng, n_packets=30) for tb, c, rng in placements]
        )
        joint_batched = simulate_downlink_ensemble(
            [DownlinkLane(tb, c, 2, "sourcesync", rng, n_packets=30) for tb, c, rng in placements]
        )
        assert best_batched == [b for b, _ in sequential]
        assert joint_batched == [j for _, j in sequential]

    def test_heterogeneous_packet_counts_and_retry_limits(self):
        """Mixed n_packets / retry_limit lanes == their per-placement runs."""
        shapes = [(10, 7), (45, 3), (28, 1), (60, 5)]
        sequential = [
            simulate_downlink(tb, c, 2, "best_ap", n_packets=n, retry_limit=r, rng=rng)
            for (tb, c, rng), (n, r) in zip(self._placements(4, seed=33), shapes)
        ]
        batched = simulate_downlink_ensemble(
            [
                DownlinkLane(tb, c, 2, "best_ap", rng, n_packets=n, retry_limit=r)
                for (tb, c, rng), (n, r) in zip(self._placements(4, seed=33), shapes)
            ]
        )
        assert batched == sequential
        # Mixed counts must actually interleave lane lifetimes.
        assert len({n for n, _ in shapes}) > 1

    def test_chained_schemes_single_ensemble_call(self):
        """best_ap -> sourcesync chained on one generator, as fig17 runs them."""
        sequential = []
        for tb, controller, rng in self._placements(4, seed=34):
            best = simulate_downlink(tb, controller, 2, "best_ap", n_packets=25, rng=rng)
            joint = simulate_downlink(tb, controller, 2, "sourcesync", n_packets=25, rng=rng)
            sequential.append((best, joint))
        lanes = []
        for tb, controller, rng in self._placements(4, seed=34):
            best = DownlinkLane(tb, controller, 2, "best_ap", rng, n_packets=25)
            joint = DownlinkLane(tb, controller, 2, "sourcesync", rng, n_packets=25, after=best)
            lanes.extend([best, joint])
        results = simulate_downlink_ensemble(lanes)
        batched = [(results[2 * i], results[2 * i + 1]) for i in range(4)]
        assert batched == sequential

    def test_chained_schemes_with_mixed_packet_counts(self):
        """Chains of different lengths interleave: one lane's second scheme
        starts while another lane's first scheme is still streaming."""
        counts = [8, 40, 16]
        sequential = []
        for (tb, controller, rng), n in zip(self._placements(3, seed=35), counts):
            best = simulate_downlink(tb, controller, 2, "best_ap", n_packets=n, rng=rng)
            joint = simulate_downlink(tb, controller, 2, "sourcesync", n_packets=n, rng=rng)
            sequential.append((best, joint))
        lanes = []
        for (tb, controller, rng), n in zip(self._placements(3, seed=35), counts):
            best = DownlinkLane(tb, controller, 2, "best_ap", rng, n_packets=n)
            joint = DownlinkLane(tb, controller, 2, "sourcesync", rng, n_packets=n, after=best)
            lanes.extend([best, joint])
        results = simulate_downlink_ensemble(lanes)
        batched = [(results[2 * i], results[2 * i + 1]) for i in range(3)]
        assert batched == sequential

    def test_degenerate_packet_counts_consume_no_draws(self):
        """n_packets <= 0 lanes deliver nothing and leave the stream where
        the sequential zero-iteration loop would, so chained successors see
        identical draws."""
        for n in (0, -1):
            sequential = []
            for tb, c, rng in self._placements(2, seed=37):
                empty = simulate_downlink(tb, c, 2, "best_ap", n_packets=n, rng=rng)
                follow = simulate_downlink(tb, c, 2, "sourcesync", n_packets=12, rng=rng)
                sequential.append((empty, follow))
            lanes = []
            for tb, c, rng in self._placements(2, seed=37):
                empty = DownlinkLane(tb, c, 2, "best_ap", rng, n_packets=n)
                follow = DownlinkLane(tb, c, 2, "sourcesync", rng, n_packets=12, after=empty)
                lanes.extend([empty, follow])
            results = simulate_downlink_ensemble(lanes)
            assert [(results[2 * i], results[2 * i + 1]) for i in range(2)] == sequential

    def test_unchained_shared_generator_rejected(self):
        (tb1, c1, r1), (tb2, c2, _) = self._placements(2, seed=36)
        with pytest.raises(ValueError, match="share a generator"):
            simulate_downlink_ensemble(
                [
                    DownlinkLane(tb1, c1, 2, "best_ap", r1, n_packets=10),
                    DownlinkLane(tb2, c2, 2, "best_ap", r1, n_packets=10),
                ]
            )
