"""Cross-module integration tests: full SourceSync scenarios end to end."""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.propagation import PathLossModel
from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.lasthop import SourceSyncController
from repro.net.topology import Testbed
from repro.phy import bits as bitutils
from repro.phy.params import DEFAULT_PARAMS as P
from repro.routing import (
    DownlinkLane,
    ExorConfig,
    ExorLane,
    simulate_downlink_ensemble,
    simulate_exor_ensemble,
    simulate_single_path,
)


class TestWaveformLevelPipeline:
    """The full PHY+sync pipeline: probes -> schedule -> joint frame -> decode."""

    def test_two_sender_joint_transmission_beats_single(self):
        rng = np.random.default_rng(7)
        topo = JointTopology.from_snrs(rng, 10.0, [10.0], lead_cosender_snr_db=[20.0])
        session = SourceSyncSession(topo, SourceSyncConfig(), rng=rng)
        session.measure_delays()
        session.converge_tracking(rounds=4)
        payload = bitutils.random_payload(120, rng)
        joint = session.run_joint_frame(payload, 12.0, genie_timing=True)
        single = session.run_single_sender_frame(payload, 12.0, genie_timing=True)
        assert joint.result.success
        assert joint.result.snr_db > single.result.snr_db + 1.5

    def test_three_senders_supported(self):
        rng = np.random.default_rng(8)
        topo = JointTopology.from_snrs(rng, 14.0, [14.0, 14.0], lead_cosender_snr_db=[22.0, 22.0])
        session = SourceSyncSession(topo, rng=rng)
        session.measure_delays()
        session.converge_tracking(rounds=4)
        payload = bitutils.random_payload(60, rng)
        outcome = session.run_joint_frame(payload, 6.0, genie_timing=True)
        assert outcome.result.success
        assert outcome.result.channels.n_active_senders >= 2

    def test_sync_error_within_paper_envelope_at_high_snr(self):
        # The Fig. 12 claim: residual synchronization error (as measured from
        # the channel slopes) stays in the tens of nanoseconds.
        rng = np.random.default_rng(9)
        topo = JointTopology.from_snrs(rng, 20.0, [20.0], lead_cosender_snr_db=[25.0])
        session = SourceSyncSession(topo, rng=rng)
        session.measure_delays()
        session.converge_tracking(rounds=6)
        residuals = []
        for _ in range(10):
            outcome = session.run_header_exchange(apply_tracking_feedback=True)
            if outcome.measured_misalignment and outcome.measured_misalignment.misalignments_samples:
                residuals.append(
                    abs(outcome.measured_misalignment.misalignments_samples[0]) * P.sample_period_ns
                )
        assert residuals
        assert np.percentile(residuals, 95) < 60.0


class TestLinkLevelScenarios:
    """The Fig. 17 / Fig. 18 style link-level scenarios."""

    def test_lasthop_and_mesh_pipelines_compose(self):
        rng = np.random.default_rng(10)
        testbed = Testbed.from_positions(
            [(0.0, 0.0), (40.0, 0.0), (18.0, 25.0), (60.0, 25.0)],
            rng=rng,
            path_loss=PathLossModel(exponent=3.5),
        )
        controller = SourceSyncController(testbed, ap_ids=[0, 1])
        [downlink] = simulate_downlink_ensemble(
            [DownlinkLane(testbed, controller, 2, "sourcesync", rng, n_packets=60)]
        )
        assert downlink.throughput_mbps >= 0.0
        assert downlink.delivered_packets <= 60

    def test_routing_schemes_rank_as_in_paper_on_average(self):
        rng = np.random.default_rng(11)
        singles, exors, joints = [], [], []
        for seed in range(5):
            topo_rng = np.random.default_rng(300 + seed)
            testbed = Testbed.from_positions(
                [(0.0, 0.0), (85.0, 0.0), (30.0, 10.0), (45.0, -8.0), (55.0, 6.0)],
                rng=topo_rng,
                path_loss=PathLossModel(exponent=3.3, reference_loss_db=42.0, shadowing_sigma_db=4.0),
            )
            config = ExorConfig(batch_size=12)
            singles.append(simulate_single_path(testbed, 0, 1, 12.0, n_packets=12, rng=rng).throughput_mbps)
            exor = ExorLane(testbed, 0, 1, 12.0, [2, 3, 4], config, rng)
            joint = ExorLane(
                testbed, 0, 1, 12.0, [2, 3, 4], replace(config, sender_diversity=True), rng,
                after=exor,
            )
            exor_result, joint_result = simulate_exor_ensemble([exor, joint])
            exors.append(exor_result.throughput_mbps)
            joints.append(joint_result.throughput_mbps)
        assert np.mean(exors) > np.mean(singles)
        assert np.mean(joints) > np.mean(exors)
