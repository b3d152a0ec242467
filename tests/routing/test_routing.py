"""Tests for single-path routing, ExOR and ExOR + SourceSync.

ExOR behaviour runs on the lockstep lanes of :mod:`repro.routing.ensemble`;
the MAC-accounting checks instrument the sequential reference loop of
``tests/routing/reference_mesh.py``, which the lanes match bit for bit.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.dynamics import GilbertElliott, LinkDynamics, materialise_trajectory
from repro.net.etx import etx_graph
from repro.net.mac import MacTiming
from repro.net.topology import Testbed
from repro.channel.propagation import PathLossModel
from repro.phy.rates import rate_for_mbps
from repro.routing import (
    ExorConfig,
    ExorLane,
    LinkLocalConfig,
    cp_increase_for_forwarders,
    simulate_exor_ensemble,
    simulate_link_local,
    simulate_single_path,
)
from repro.routing.link_local import _transfer
from tests.routing import reference_mesh


def _mesh(seed=0, lossy=True):
    rng = np.random.default_rng(seed)
    loss = PathLossModel(exponent=3.3, reference_loss_db=43.0 if lossy else 40.0, shadowing_sigma_db=4.0)
    positions = [(0.0, 0.0), (85.0, 0.0), (30.0, 8.0), (45.0, -6.0), (55.0, 10.0)]
    return Testbed.from_positions(positions, rng=rng, path_loss=loss), rng


class TestSinglePath:
    def test_delivers_over_multihop_route(self):
        testbed, rng = _mesh(1)
        result = simulate_single_path(testbed, 0, 1, 6.0, n_packets=20, rng=rng)
        assert result.delivered_packets > 0
        assert result.route[0] == 0 and result.route[-1] == 1
        assert result.throughput_mbps > 0

    def test_disconnected_pair_gives_zero(self):
        rng = np.random.default_rng(2)
        testbed = Testbed.from_positions([(0, 0), (5000, 0)], rng=rng)
        result = simulate_single_path(testbed, 0, 1, 6.0, n_packets=5, rng=rng)
        assert result.throughput_mbps == 0.0
        assert result.delivered_packets == 0

    def test_throughput_bounded_by_rate(self):
        testbed, rng = _mesh(3, lossy=False)
        result = simulate_single_path(testbed, 0, 2, 6.0, n_packets=30, rng=rng)
        assert result.throughput_mbps <= 6.0

    def test_delivery_ratio(self):
        testbed, rng = _mesh(4)
        result = simulate_single_path(testbed, 0, 1, 6.0, n_packets=10, rng=rng)
        assert 0.0 <= result.delivery_ratio <= 1.0

    @pytest.mark.parametrize("retry_limit", [0, -2])
    def test_rejects_retry_limit_below_one(self, retry_limit):
        testbed, rng = _mesh(4)
        with pytest.raises(ValueError, match="retry_limit must be >= 1"):
            simulate_single_path(testbed, 0, 1, 6.0, n_packets=5, retry_limit=retry_limit, rng=rng)


_BURSTY = LinkDynamics(gilbert_elliott=GilbertElliott.from_burst(3.0, 0.25), horizon_slots=64)


def _single_path(testbed, rng, dynamics):
    return simulate_single_path(
        testbed, 0, 1, 12.0, n_packets=15, retry_limit=3, rng=rng, dynamics=dynamics
    )


def _link_local(testbed, rng, dynamics):
    config = LinkLocalConfig(local_retry_limit=2, e2e_retry_limit=1, dynamics=dynamics)
    return simulate_link_local(testbed, 0, 1, 12.0, n_packets=15, config=config, rng=rng)


class TestOneUniformPerAttempt:
    """Both transfer schemes advance their generator by exactly one uniform
    per transmission attempt (plus the trajectory draw under dynamics)."""

    @pytest.mark.parametrize("simulate", [_single_path, _link_local])
    @pytest.mark.parametrize("dynamics", [None, _BURSTY], ids=["static", "bursty"])
    def test_generator_advances_by_transmissions(self, simulate, dynamics):
        testbed, rng = _mesh(21)
        twin_testbed, twin = _mesh(21)
        # Priming materialises the link profiles from the testbed's (shared)
        # generator; after it both generators stand at the same state.
        etx_graph(testbed, 6.0, 1460)
        etx_graph(twin_testbed, 6.0, 1460)
        assert rng.bit_generator.state == twin.bit_generator.state

        result = simulate(testbed, rng, dynamics)
        assert result.transmissions > result.delivered_packets * (len(result.route) - 1)
        if dynamics is not None:
            materialise_trajectory(dynamics, twin_testbed.node_ids, 12.0, twin)
        twin.random(result.transmissions)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestTransferLoop:
    """The one transfer loop shared by single path and link-local recovery,
    driven with certain (p = 1) and impossible (p = 0) hops so every counter
    has a closed form."""

    def test_certain_hops_take_one_attempt_each(self):
        rng = np.random.default_rng(5)
        hops = [(0, 2, 1.0), (2, 1, 1.0)]
        mac, delivered, local, e2e = _transfer(hops, 4, LinkLocalConfig(), None, 100.0, rng)
        assert (delivered, local, e2e) == (4, 0, 0)
        assert (mac.transmissions, mac.failures, mac.elapsed_us) == (8, 0, 800.0)

    def test_dead_hop_spends_local_and_end_to_end_budgets(self):
        rng = np.random.default_rng(6)
        twin = np.random.default_rng(6)
        config = LinkLocalConfig(
            local_retry_limit=2, e2e_retry_limit=1, timeout_fraction=0.5, backoff_factor=2.0
        )
        hops = [(0, 2, 1.0), (2, 1, 0.0)]
        mac, delivered, local, e2e = _transfer(hops, 3, config, None, 100.0, rng)
        # Per pass: one good first hop, then three failed attempts on the
        # dead hop after backoff waits of 50 and 100 us.  Two passes per
        # packet, one end-to-end restart between them.
        assert (delivered, local, e2e) == (0, 3 * 2 * 2, 3)
        assert (mac.transmissions, mac.failures) == (3 * 2 * 4, 3 * 2 * 3)
        assert mac.elapsed_us == 3 * 2 * (4 * 100.0 + 50.0 + 100.0)
        twin.random(mac.transmissions)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_negative_airtime_rejected_before_any_draw(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="airtime must be non-negative"):
            _transfer([(0, 1, 0.5)], 2, LinkLocalConfig(), None, -1.0, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("retry_limit", [1, 4])
    def test_single_path_charges_no_backoff_wait(self, retry_limit):
        testbed, rng = _mesh(8)
        result = simulate_single_path(
            testbed, 0, 1, 6.0, n_packets=12, retry_limit=retry_limit, rng=rng
        )
        hops = len(result.route) - 1
        assert hops >= 1
        assert result.transmissions <= 12 * hops * retry_limit
        per_attempt_us = MacTiming(params=testbed.params).single_transaction_us(
            1460, rate_for_mbps(6.0)
        )
        assert result.elapsed_us == pytest.approx(result.transmissions * per_attempt_us)


class TestExor:
    def test_config_has_no_delivery_path_switch(self):
        # One delivery path per phase: there is no scalar/matrix switch.
        assert "batched" not in {f.name for f in dataclasses.fields(ExorConfig)}
        with pytest.raises(TypeError):
            ExorConfig(batched=False)

    def test_batch_mostly_delivered(self):
        testbed, rng = _mesh(5)
        config = ExorConfig(batch_size=12)
        [result] = simulate_exor_ensemble([ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], config, rng)])
        assert result.delivery_ratio > 0.7
        assert result.throughput_mbps > 0

    def test_forwarders_ordered_and_include_source(self):
        testbed, rng = _mesh(6)
        config = ExorConfig(batch_size=8)
        [result] = simulate_exor_ensemble([ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], config, rng)])
        assert result.forwarders[-1] == 0  # source is the lowest-priority forwarder
        assert set(result.forwarders[:-1]).issubset({2, 3, 4})

    def test_no_joint_transmissions_without_diversity(self):
        testbed, rng = _mesh(7)
        config = ExorConfig(batch_size=8)
        [result] = simulate_exor_ensemble([ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], config, rng)])
        assert result.joint_transmissions == 0

    def test_exor_beats_single_path_on_lossy_mesh(self):
        # Aggregate over several topologies so per-seed noise does not flip
        # the comparison (the paper's Fig. 18 reports medians over 20).
        exor_total, single_total = 0.0, 0.0
        for seed in range(6):
            testbed, rng = _mesh(100 + seed)
            config = ExorConfig(batch_size=12)
            single = simulate_single_path(testbed, 0, 1, 6.0, n_packets=12, rng=rng)
            [exor] = simulate_exor_ensemble([ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], config, rng)])
            exor_total += exor.throughput_mbps
            single_total += single.throughput_mbps
        assert exor_total > single_total


class TestExorMacAccounting:
    def _record_mac(self, monkeypatch):
        """Capture the CsmaState instances the reference loop creates."""
        from repro.net.mac import CsmaState

        created = []

        class RecordingCsma(CsmaState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(reference_mesh, "CsmaState", RecordingCsma)
        return created

    def test_failures_counted_in_broadcast_and_forwarding(self, monkeypatch):
        """A lossy mesh records failed attempts; success means some receiver heard."""
        created = self._record_mac(monkeypatch)
        testbed, rng = _mesh(12)
        result = reference_mesh.simulate_exor(
            testbed, 0, 1, 12.0, relays=[2, 3, 4], config=ExorConfig(batch_size=12), rng=rng
        )
        (mac,) = created
        assert mac.transmissions == result.transmissions
        assert 0 < mac.failures < mac.transmissions

    def test_throughput_reads_only_elapsed_airtime(self, monkeypatch):
        """The success flag feeds CsmaState.failures alone, never throughput."""
        created = self._record_mac(monkeypatch)
        testbed, rng = _mesh(13)
        result = reference_mesh.simulate_exor(
            testbed, 0, 1, 6.0, relays=[2, 3, 4], config=ExorConfig(batch_size=10), rng=rng
        )
        (mac,) = created
        expected = result.delivered_packets * 1460 * 8 / mac.elapsed_us
        assert result.throughput_mbps == expected


class TestExorSourceSync:
    def test_joint_transmissions_used(self):
        testbed, rng = _mesh(8)
        config = ExorConfig(batch_size=10, sender_diversity=True)
        [result] = simulate_exor_ensemble([ExorLane(testbed, 0, 1, 12.0, [2, 3, 4], config, rng)])
        assert result.joint_transmissions > 0

    def test_sourcesync_at_least_as_good_as_exor_on_aggregate(self):
        # On individual topologies the synchronization overhead can cost a
        # few percent when links are already good; aggregated over several
        # topologies SourceSync must not lose more than that margin (the
        # positive gains are asserted by the Fig. 18 experiment tests).
        config = ExorConfig(batch_size=10)
        joint_config = replace(config, sender_diversity=True)
        lanes = []
        for seed in range(6):
            testbed, rng = _mesh(200 + seed)
            exor = ExorLane(testbed, 0, 1, 12.0, [2, 3, 4], config, rng)
            joint = ExorLane(testbed, 0, 1, 12.0, [2, 3, 4], joint_config, rng, after=exor)
            lanes.extend([exor, joint])
        results = simulate_exor_ensemble(lanes)
        exor_total = sum(r.throughput_mbps for r in results[0::2])
        joint_total = sum(r.throughput_mbps for r in results[1::2])
        assert joint_total >= 0.93 * exor_total

    def test_cp_increase_for_forwarders(self):
        testbed, _ = _mesh(9)
        increase = cp_increase_for_forwarders(testbed, lead=2, cosenders=[3, 4], receivers=[1])
        assert increase >= 0
        # A single receiver can always be perfectly aligned, so the increase
        # should be tiny (sub-sample rounding at most).
        assert increase <= 1

    def test_cp_increase_multi_receiver(self):
        testbed, _ = _mesh(10)
        increase = cp_increase_for_forwarders(testbed, lead=2, cosenders=[3], receivers=[1, 4])
        assert increase >= 0

    def test_cp_increase_empty_inputs(self):
        testbed, _ = _mesh(11)
        assert cp_increase_for_forwarders(testbed, 2, [], [1]) == 0
        assert cp_increase_for_forwarders(testbed, 2, [3], []) == 0
