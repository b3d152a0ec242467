"""Ledger-audit regression fixtures: every engine's draw stream is pinned.

Each scenario below runs one engine entry point under a
:class:`repro.lint.ledger.DrawAudit` with pinned seeds and compares the
recorded draw ledger — method, shape, value count and value digest of
every draw, in global order — against a checked-in JSON fixture under
``tests/engine/ledgers/``.  The fixtures were recorded *before* the
engines moved onto the shared ``repro.engine`` lane scheduler, so a pass
here is a mechanical proof that the migration changed no draw: equal
per-draw digests in equal order imply the concatenated value streams are
bit-identical (the ``first_value_divergence`` of the pre- and
post-migration runs is empty).

Consumer stack sites are deliberately *not* part of the fixtures: the
file:line of the code asking for a draw shifts across refactors while the
stream itself must not.

Regenerate (only when a draw-order change is intended and understood)::

    REPRO_REGEN_ENGINE_LEDGERS=1 PYTHONPATH=src python -m pytest tests/engine/test_ledger_regression.py
"""

import hashlib
import json
import os
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.lint.ledger import DrawAudit, DrawLedger

LEDGER_DIR = Path(__file__).resolve().parent / "ledgers"
_REGEN = bool(os.environ.get("REPRO_REGEN_ENGINE_LEDGERS"))


# ----------------------------------------------------------------------
# Scenarios: one per engine, pinned seeds, everything minted in-audit
# ----------------------------------------------------------------------
def _scenario_packet_ensemble() -> None:
    """Packet-ensemble engine: full PHY pipeline with multipath links."""
    from repro.channel.multipath import DEFAULT_PROFILE
    from repro.experiments.batch import run_packet_ensemble

    run_packet_ensemble(
        4, payload_bytes=16, snr_db=12.0, profile=DEFAULT_PROFILE, seed=np.random.default_rng(5)
    )


def _scenario_joint_frames() -> None:
    """Joint-frame engine: measurement phase plus a two-frame ensemble."""
    from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
    from repro.core.ensemble import JointFrameJob, measure_delays_batch, run_joint_frames_batch

    sessions = []
    for seed in (301, 302):
        rng = np.random.default_rng(seed)
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=20.0,
            cosender_rx_snr_db=[20.0],
            lead_cosender_snr_db=[25.0],
        )
        sessions.append(SourceSyncSession(topo, SourceSyncConfig(), rng=rng))
    measure_delays_batch(sessions)
    payload = b"\x5a" * 24
    jobs = [[JointFrameJob(payload, data_cp_samples=cp, genie_timing=True) for cp in (0, 8)]]
    run_joint_frames_batch(sessions, jobs * len(sessions))


def _scenario_exor_chained() -> None:
    """Mesh engine: ExOR plus chained ExOR+SourceSync lanes per topology."""
    from repro.experiments.fig18_opportunistic import random_relay_topology
    from repro.routing.ensemble import ExorLane, simulate_exor_ensemble
    from repro.routing.exor import ExorConfig

    config = ExorConfig(batch_size=8)
    joint_config = replace(config, sender_diversity=True)
    lanes = []
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        testbed = random_relay_topology(rng)
        exor = ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], config, rng)
        joint = ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], joint_config, rng, after=exor)
        lanes.extend([exor, joint])
    simulate_exor_ensemble(lanes)


def _scenario_single_path() -> None:
    """Single-path baseline: one scalar uniform per attempt, lanes in input order."""
    from repro.experiments.fig18_opportunistic import random_relay_topology
    from repro.routing.ensemble import ExorLane, simulate_single_path_ensemble
    from repro.routing.exor import ExorConfig

    config = ExorConfig(batch_size=6)
    lanes = []
    for seed in (21, 22):
        rng = np.random.default_rng(seed)
        testbed = random_relay_topology(rng)
        lanes.append(ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], config, rng))
    simulate_single_path_ensemble(lanes)


def _scenario_link_local() -> None:
    """Link-local recovery: bounded per-hop retransmission lanes."""
    from repro.experiments.fig18_opportunistic import random_relay_topology
    from repro.routing.ensemble import LinkLocalLane, simulate_link_local_ensemble
    from repro.routing.link_local import LinkLocalConfig

    config = LinkLocalConfig()
    lanes = []
    for seed in (31, 32):
        rng = np.random.default_rng(seed)
        testbed = random_relay_topology(rng)
        lanes.append(LinkLocalLane(testbed, 0, 1, 6.0, 6, config, rng))
    simulate_link_local_ensemble(lanes)


def _scenario_downlink_chained() -> None:
    """Downlink engine: best-AP then chained SourceSync per placement."""
    from repro.experiments.fig17_lasthop import _build_placement
    from repro.routing.ensemble import DownlinkLane, simulate_downlink_ensemble

    lanes = []
    for seed in (41, 42):
        rng = np.random.default_rng(seed)
        testbed, controller, client = _build_placement(rng)
        best = DownlinkLane(testbed, controller, client, "best_ap", rng, n_packets=15)
        joint = DownlinkLane(
            testbed, controller, client, "sourcesync", rng, n_packets=15, after=best
        )
        lanes.extend([best, joint])
    simulate_downlink_ensemble(lanes)


def _scenario_traffic_flows() -> None:
    """Traffic layer: flows-as-lanes over all four schemes, lockstep."""
    from repro.traffic import mice_elephants, poisson_workload, relay_mesh, simulate_flow_services

    mix = mice_elephants(mice_packets=1, elephant_packets=4, elephant_fraction=0.3)
    workload = poisson_workload(3, 0.2, mix, 12.0, 256, seed=21)
    simulate_flow_services(workload, partial(relay_mesh, 17, n_relays=2), dst=1)


SCENARIOS = {
    "packet_ensemble": _scenario_packet_ensemble,
    "joint_frames": _scenario_joint_frames,
    "exor_chained": _scenario_exor_chained,
    "single_path": _scenario_single_path,
    "link_local": _scenario_link_local,
    "downlink_chained": _scenario_downlink_chained,
    "traffic_flows": _scenario_traffic_flows,
}


# ----------------------------------------------------------------------
# Fixture plumbing
# ----------------------------------------------------------------------
def _ledger_summary(ledger: DrawLedger) -> dict:
    """JSON-able ledger view: per-draw records plus a whole-stream digest."""
    records = [
        [r.method, list(r.shape) if r.shape is not None else None, r.n_values, r.digest]
        for r in ledger.records
    ]
    chunks = [r.values for r in ledger.records if r.values is not None and r.n_values]
    stream = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
    stream_digest = hashlib.blake2b(
        np.ascontiguousarray(stream).tobytes(), digest_size=16
    ).hexdigest()
    return {
        "n_draws": len(ledger.records),
        "n_values": ledger.total_values(),
        "stream_digest": stream_digest,
        "records": records,
    }


def _record_scenario(name: str) -> dict:
    with DrawAudit(store_values=True) as audit:
        SCENARIOS[name]()
    return {"scenario": name, **_ledger_summary(audit.ledger)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_ledger_matches_fixture(name):
    """The engine's pinned-seed draw stream is byte-for-byte the recorded one."""
    path = LEDGER_DIR / f"{name}.json"
    got = _record_scenario(name)
    if _REGEN:
        LEDGER_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(got, indent=1) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing ledger fixture {path}; generate with REPRO_REGEN_ENGINE_LEDGERS=1"
    )
    expected = json.loads(path.read_text())
    for index, (want, have) in enumerate(zip(expected["records"], got["records"])):
        assert want == have, (
            f"{name}: first divergent draw #{index}: "
            f"recorded {want[0]}(shape={want[1]}, n={want[2]}, digest={want[3]}) vs "
            f"current {have[0]}(shape={have[1]}, n={have[2]}, digest={have[3]})"
        )
    assert expected["n_draws"] == got["n_draws"], (
        f"{name}: draw count changed: {expected['n_draws']} -> {got['n_draws']}"
    )
    assert expected["stream_digest"] == got["stream_digest"], (
        f"{name}: concatenated value stream diverged despite matching records"
    )
    assert expected["n_values"] == got["n_values"]
