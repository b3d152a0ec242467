"""Engine conformance: every lane class on the shared lockstep scheduler.

Registers one :class:`tests.engine.conformance.LaneCase` per lane class —
packet ensembles, joint frames, ExOR, single-path, link-local recovery,
downlink last hop and traffic flows — then runs the kit's
parametrized checks over the registry: lockstep-vs-sequential identity,
ledger audits, chained activation, empty ensembles, and chunking/jobs
invariance (including non-dividing chunk widths).  The ExOR, downlink and
traffic-flow cases take their sequential side from the reference event
loops of ``tests/routing/reference_mesh.py``.

Workloads here are deliberately tiny (a handful of packets, two lanes):
the heavy per-engine behavioural suites live next door
(``test_exor_ensemble.py``, ``test_joint_batch.py``,
``test_traffic_load.py``); this module is the *contract* layer that
any future lane must join by adding a single registration.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from tests.engine.conformance import (
    CASES,
    LaneCase,
    assert_results_close,
    assert_results_equal,
    assert_value_streams_identical,
    register,
    terminal_result_guard,
)
from tests.routing import reference_mesh


# ----------------------------------------------------------------------
# Packet ensemble (repro.experiments.batch)
# ----------------------------------------------------------------------
def _packet_run(batched: bool):
    """4 multipath packets through the PHY, batched or per-packet."""
    from repro.channel.multipath import DEFAULT_PROFILE
    from repro.experiments.batch import run_packet_ensemble

    return run_packet_ensemble(
        4, payload_bytes=16, snr_db=12.0, profile=DEFAULT_PROFILE,
        seed=np.random.default_rng(5), batched=batched,
    )


def _packet_empty():
    """A zero-packet ensemble consumes no stream and returns empty arrays."""
    from repro.experiments.batch import run_packet_ensemble

    rng, untouched = np.random.default_rng(123), np.random.default_rng(123)
    result = run_packet_ensemble(0, seed=rng)
    assert rng.bit_generator.state == untouched.bit_generator.state
    assert result.n_packets == 0 and result.results == []


register(LaneCase(
    name="packet",
    lockstep=partial(_packet_run, True),
    sequential=partial(_packet_run, False),
    compare=assert_results_close,
    audit=(partial(_packet_run, True), partial(_packet_run, False)),
    empty=_packet_empty,
))


# ----------------------------------------------------------------------
# Joint frames (repro.core.ensemble)
# ----------------------------------------------------------------------
def _joint_sessions(seeds):
    from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession

    sessions = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        topo = JointTopology.from_snrs(
            rng, lead_rx_snr_db=20.0, cosender_rx_snr_db=[20.0], lead_cosender_snr_db=[25.0]
        )
        sessions.append(SourceSyncSession(topo, SourceSyncConfig(), rng=rng))
    return sessions


def _joint_jobs():
    from repro.core.ensemble import JointFrameJob

    payload = b"\x5a" * 24
    return [JointFrameJob(payload, data_cp_samples=cp, genie_timing=True) for cp in (0, 8)]


def _joint_lockstep():
    """Two sessions' frame waves advanced in lockstep through the engine."""
    from repro.core.ensemble import measure_delays_batch, run_joint_frames_batch

    sessions = _joint_sessions((301, 302))
    measure_delays_batch(sessions)
    return run_joint_frames_batch(sessions, [_joint_jobs() for _ in sessions])


def _joint_sequential():
    """The same workload, one single-session run per lane."""
    from repro.core.ensemble import measure_delays_batch, run_joint_frames_batch

    out = []
    for seed in (301, 302):
        sessions = _joint_sessions((seed,))
        measure_delays_batch(sessions)
        out.append(run_joint_frames_batch(sessions, [_joint_jobs()])[0])
    return out


def _joint_audit(split: bool):
    """Single-session workload whose global draw order is path-independent."""
    from repro.core.ensemble import measure_delays_batch, run_joint_frames_batch

    sessions = _joint_sessions((301,))
    measure_delays_batch(sessions)
    if split:
        return [run_joint_frames_batch(sessions, [[job]])[0][0] for job in _joint_jobs()]
    return run_joint_frames_batch(sessions, [_joint_jobs()])[0]


def _joint_empty():
    """The batch API's documented empty-input contract is an error."""
    from repro.core.ensemble import run_joint_frames_batch

    with pytest.raises(ValueError, match="at least one session"):
        run_joint_frames_batch([], [])


register(LaneCase(
    name="joint_frame",
    lockstep=_joint_lockstep,
    sequential=_joint_sequential,
    compare=assert_results_close,
    audit=(partial(_joint_audit, False), partial(_joint_audit, True)),
    empty=_joint_empty,
))


# ----------------------------------------------------------------------
# ExOR mesh transfers (repro.routing.ensemble)
# ----------------------------------------------------------------------
def _exor_lanes(seeds=(7, 8)):
    from repro.experiments.fig18_opportunistic import random_relay_topology
    from repro.routing.ensemble import ExorLane
    from repro.routing.exor import ExorConfig

    config = ExorConfig(batch_size=8)
    lanes = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        lanes.append(ExorLane(random_relay_topology(rng), 0, 1, 6.0, [2, 3, 4], config, rng))
    return lanes


def _exor_lockstep():
    from repro.routing.ensemble import simulate_exor_ensemble

    return simulate_exor_ensemble(_exor_lanes())


def _exor_sequential():
    return reference_mesh.exor_lanes_in_sequence(_exor_lanes())


def _exor_chained_lockstep():
    """ExOR then ExOR+SourceSync chained on one generator and topology."""
    from repro.routing.ensemble import ExorLane, simulate_exor_ensemble

    (first,) = _exor_lanes((7,))
    joint_config = replace(first.config, sender_diversity=True)
    second = ExorLane(
        first.testbed, 0, 1, 6.0, [2, 3, 4], joint_config, first.rng, after=first
    )
    return simulate_exor_ensemble([first, second])


def _exor_chained_sequential():
    (lane,) = _exor_lanes((7,))
    exor = reference_mesh.simulate_exor(
        lane.testbed, 0, 1, 6.0, [2, 3, 4], config=lane.config, rng=lane.rng
    )
    joint = reference_mesh.simulate_exor_sourcesync(
        lane.testbed, 0, 1, 6.0, [2, 3, 4], config=lane.config, rng=lane.rng
    )
    return [exor, joint]


def _exor_chained():
    assert_results_equal(_exor_chained_lockstep(), _exor_chained_sequential())


def _exor_empty():
    from repro.routing.ensemble import simulate_exor_ensemble

    assert simulate_exor_ensemble([]) == []


register(LaneCase(
    name="exor",
    lockstep=_exor_lockstep,
    sequential=_exor_sequential,
    audit=(_exor_chained_lockstep, _exor_chained_sequential),
    chained=_exor_chained,
    empty=_exor_empty,
))


# ----------------------------------------------------------------------
# Single-path baseline (repro.routing.ensemble)
# ----------------------------------------------------------------------
def _single_path_lockstep(seeds=(21, 22)):
    from repro.routing.ensemble import simulate_single_path_ensemble

    return simulate_single_path_ensemble(_exor_lanes(seeds))


def _single_path_sequential(seeds=(21, 22)):
    from repro.routing.single_path import simulate_single_path

    return [
        simulate_single_path(
            lane.testbed, lane.src, lane.dst, lane.rate_mbps,
            n_packets=lane.config.batch_size, rng=lane.rng,
        )
        for lane in _exor_lanes(seeds)
    ]


def _single_path_empty():
    from repro.routing.ensemble import simulate_single_path_ensemble

    assert simulate_single_path_ensemble([]) == []


# The audit pair uses one lane, as downlink's does: two lanes on two
# generators would make the global draw order depend on the path.
register(LaneCase(
    name="single_path",
    lockstep=_single_path_lockstep,
    sequential=_single_path_sequential,
    audit=(partial(_single_path_lockstep, (21,)), partial(_single_path_sequential, (21,))),
    empty=_single_path_empty,
))


# ----------------------------------------------------------------------
# Link-local recovery (repro.routing.ensemble)
# ----------------------------------------------------------------------
def _link_local_lanes(seeds=(31, 32)):
    from repro.experiments.fig18_opportunistic import random_relay_topology
    from repro.routing.ensemble import LinkLocalLane
    from repro.routing.link_local import LinkLocalConfig

    config = LinkLocalConfig()
    lanes = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        lanes.append(LinkLocalLane(random_relay_topology(rng), 0, 1, 6.0, 6, config, rng))
    return lanes


def _link_local_lockstep(seeds=(31, 32)):
    from repro.routing.ensemble import simulate_link_local_ensemble

    return simulate_link_local_ensemble(_link_local_lanes(seeds))


def _link_local_sequential(seeds=(31, 32)):
    from repro.routing.link_local import simulate_link_local

    return [
        simulate_link_local(
            lane.testbed, lane.src, lane.dst, lane.rate_mbps,
            n_packets=lane.n_packets, config=lane.config, rng=lane.rng,
        )
        for lane in _link_local_lanes(seeds)
    ]


def _link_local_empty():
    from repro.routing.ensemble import simulate_link_local_ensemble

    assert simulate_link_local_ensemble([]) == []


# One-lane audit pair, as for single path.
register(LaneCase(
    name="link_local",
    lockstep=_link_local_lockstep,
    sequential=_link_local_sequential,
    audit=(partial(_link_local_lockstep, (31,)), partial(_link_local_sequential, (31,))),
    empty=_link_local_empty,
))


# ----------------------------------------------------------------------
# Downlink last hop (repro.routing.ensemble)
# ----------------------------------------------------------------------
def _downlink_lockstep(seeds=(41, 42)):
    """Best-AP then chained SourceSync per placement."""
    from repro.experiments.fig17_lasthop import _build_placement
    from repro.routing.ensemble import DownlinkLane, simulate_downlink_ensemble

    lanes = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        testbed, controller, client = _build_placement(rng)
        best = DownlinkLane(testbed, controller, client, "best_ap", rng, n_packets=15)
        joint = DownlinkLane(
            testbed, controller, client, "sourcesync", rng, n_packets=15, after=best
        )
        lanes.extend([best, joint])
    return simulate_downlink_ensemble(lanes)


def _downlink_sequential(seeds=(41, 42)):
    from repro.experiments.fig17_lasthop import _build_placement

    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        testbed, controller, client = _build_placement(rng)
        for scheme in ("best_ap", "sourcesync"):
            out.append(reference_mesh.simulate_downlink(
                testbed, controller, client, scheme, n_packets=15, rng=rng
            ))
    return out


def _downlink_empty():
    from repro.routing.ensemble import simulate_downlink_ensemble

    assert simulate_downlink_ensemble([]) == []


# The audit pair uses one placement: its two lanes chain on a single
# generator, so the global draw order is path-independent (two placements
# would interleave two independent streams differently under lockstep).
register(LaneCase(
    name="downlink",
    lockstep=_downlink_lockstep,
    sequential=_downlink_sequential,
    audit=(partial(_downlink_lockstep, (41,)), partial(_downlink_sequential, (41,))),
    chained=lambda: assert_results_equal(_downlink_lockstep((41,)), _downlink_sequential((41,))),
    empty=_downlink_empty,
))


# ----------------------------------------------------------------------
# Traffic flows (repro.traffic.service)
# ----------------------------------------------------------------------
def _traffic_run(serve=None, jobs: int = 1, chunk_flows: int = 0):
    """Three flows served by ``serve`` (default: the lockstep flow lanes)."""
    from repro.traffic import mice_elephants, poisson_workload, relay_mesh, simulate_flow_services

    mix = mice_elephants(mice_packets=1, elephant_packets=4, elephant_fraction=0.3)
    workload = poisson_workload(3, 0.2, mix, 12.0, 256, seed=21)
    return (serve or simulate_flow_services)(
        workload, partial(relay_mesh, 17, n_relays=2), dst=1,
        jobs=jobs, chunk_flows=chunk_flows,
    )


def _traffic_chunked():
    """Every sharding (jobs, dividing and non-dividing chunks) is bit-equal."""
    reference = _traffic_run()
    for jobs, chunk_flows in ((1, 1), (1, 2), (2, 2), (1, 5)):
        assert_results_equal(_traffic_run(jobs=jobs, chunk_flows=chunk_flows), reference)


def _traffic_empty():
    from repro.traffic import mice_elephants, poisson_workload, simulate_flow_services

    def exploding_factory():
        raise AssertionError("empty workload must not build the testbed")

    mix = mice_elephants(mice_packets=1, elephant_packets=4, elephant_fraction=0.3)
    workload = poisson_workload(0, 0.2, mix, 12.0, 256, seed=21)
    services = simulate_flow_services(workload, exploding_factory, dst=1)
    assert services and all(flows == [] for flows in services.values())


# No audit pair: every flow draws from its own service generator, and the
# lockstep path serves the flows scheme by scheme (all single-path
# transfers, then the interleaved ExOR lanes, then link-local) while the
# sequential path serves them flow by flow — so the global draw order
# interleaves the per-flow streams differently.  Per-flow results are
# asserted bit-identical above.
register(LaneCase(
    name="traffic_flow",
    lockstep=_traffic_run,
    sequential=partial(_traffic_run, reference_mesh.serve_flows),
    empty=_traffic_empty,
    chunked=_traffic_chunked,
))


# ----------------------------------------------------------------------
# The harness: one parametrized check per conformance axis
# ----------------------------------------------------------------------
def _cases_with(attr: str) -> list[str]:
    return [name for name, case in sorted(CASES.items()) if getattr(case, attr) is not None]


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_conformance_bit_identity(name):
    """Lockstep output equals the per-lane sequential oracle's."""
    case = CASES[name]
    compare = case.compare or assert_results_equal
    compare(case.lockstep(), case.sequential())


@pytest.mark.parametrize("name", _cases_with("audit"))
def test_engine_conformance_ledger_audit(name):
    """On an order-preserving workload, both paths draw one value stream."""
    run_a, run_b = CASES[name].audit
    assert_value_streams_identical(run_a, run_b)


@pytest.mark.parametrize("name", _cases_with("chained"))
def test_engine_conformance_chained_activation(name):
    """``after=`` chains replay back-to-back sequential runs exactly."""
    CASES[name].chained()


@pytest.mark.parametrize("name", _cases_with("empty"))
def test_engine_conformance_empty_ensemble(name):
    """Zero-lane calls keep their engine's documented empty contract."""
    CASES[name].empty()


@pytest.mark.parametrize("name", _cases_with("chunked"))
def test_engine_conformance_chunk_invariance(name):
    """Sharded execution converges bit-identically for every chunking."""
    CASES[name].chunked()


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_conformance_terminal_result(name):
    """``result`` is called once per lane and nothing is read on it after."""
    with terminal_result_guard():
        CASES[name].lockstep()


def test_engine_conformance_terminal_result_covers_lane_classes():
    """Between them the cases run every shipped lane class under the guard."""
    from repro.engine import Lane

    def subclasses(cls):
        return {sub for direct in cls.__subclasses__() for sub in {direct, *subclasses(direct)}}

    with terminal_result_guard() as seen:
        for case in CASES.values():
            case.lockstep()
    shipped = {cls for cls in subclasses(Lane) if cls.__module__.startswith("repro.")}
    assert shipped and seen == shipped


def test_engine_conformance_registry_covers_all_lanes():
    """Every lane class shipped by the engine has a conformance case."""
    assert set(CASES) == {
        "packet", "joint_frame", "exor", "single_path", "link_local",
        "downlink", "traffic_flow",
    }


def _seed_chunk_probe(children):
    """Module-level (picklable) chunk body: one uniform draw per trial."""
    return [float(np.random.default_rng(child).random()) for child in children]


def test_engine_conformance_seed_chunks_non_dividing():
    """Scheduler-level sharding: non-dividing chunk sizes are invisible."""
    from repro.engine import run_seed_chunks

    reference = run_seed_chunks(_seed_chunk_probe, 7, 99)
    assert len(reference) == 7
    for jobs, chunk_size in ((1, 2), (1, 3), (2, None), (2, 5), (3, 4), (1, 50)):
        assert run_seed_chunks(_seed_chunk_probe, 7, 99, jobs, chunk_size=chunk_size) == reference
