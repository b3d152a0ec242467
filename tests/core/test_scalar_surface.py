"""The scalar channel and probe blocks live only in the test oracle.

``src/`` has one propagation kernel, one combine, one probe leg and one CFO
probe, all batched; their scalar forms are ``tests/core/reference_blocks.py``.
This guard keeps the package from growing a second public copy of them,
and keeps the single-sender frame on the joint-frame orchestrator.
"""

import importlib
import inspect

import numpy as np
import pytest

from repro.channel.composite import Link
from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.core import ensemble
from repro.phy import bits as bitutils

MOVED = {
    "repro.channel": ("combine_at_receiver", "apply_cfo", "fractional_delay"),
    "repro.channel.composite": ("combine_at_receiver",),
    "repro.channel.oscillator": ("apply_cfo",),
    "repro.channel.propagation": ("fractional_delay",),
    "repro.core.sync": ("probe_leg", "measure_propagation_delay", "PropagationDelayEstimate"),
    "repro.core.sync.probe": ("probe_leg", "measure_propagation_delay", "PropagationDelayEstimate"),
    "repro.core.channel_est": ("measure_cfo", "CfoEstimate"),
    "repro.core.channel_est.cfo": ("measure_cfo", "CfoEstimate"),
    "repro.phy.receiver": ("apply_cfo_correction",),
}


@pytest.mark.parametrize("module_name", sorted(MOVED))
def test_scalar_blocks_not_exported(module_name):
    module = importlib.import_module(module_name)
    for name in MOVED[module_name]:
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert name not in getattr(module, "__all__", ()), f"{module_name}.__all__ lists {name}"


def test_link_has_no_scalar_propagate():
    assert not hasattr(Link, "propagate")


def test_single_sender_frame_has_no_sender_option():
    parameters = inspect.signature(SourceSyncSession.run_single_sender_frame).parameters
    assert list(parameters) == ["self", "payload", "rate_mbps", "genie_timing"]


def test_single_sender_frame_runs_on_the_joint_frame_orchestrator(monkeypatch):
    calls = []
    real = ensemble.run_joint_frames_batch

    def spy(sessions, jobs_per_session):
        calls.append([session.topology.n_cosenders for session in sessions])
        return real(sessions, jobs_per_session)

    monkeypatch.setattr(ensemble, "run_joint_frames_batch", spy)
    rng = np.random.default_rng(3)
    topo = JointTopology.from_snrs(rng, 18.0, [18.0], lead_cosender_snr_db=[22.0])
    session = SourceSyncSession(topo, SourceSyncConfig(), rng=rng)
    payload = bitutils.random_payload(20, rng)
    outcome = session.run_single_sender_frame(payload, 6.0, genie_timing=True)
    assert calls == [[0]]
    assert outcome.result.payload == payload
    assert session.topology.n_cosenders == 1
