"""Traffic-layer determinism: workloads, flow lanes, and sweep resume.

The contract under test (see :mod:`repro.traffic.workload`): every stream
of a workload seed is an index-keyed ``SeedSequence`` child, so the
lockstep flows-as-lanes path, the per-flow sequential oracle
(``tests/routing/reference_mesh.py``), any chunk width, process-pool
sharding and ``sweep --resume`` all produce bit-identical results.

This module is part of the ROADMAP quick-check group
(``-k "smoke or joint_batch or exor_ensemble or sweep_fault or traffic_load"``).
"""

from functools import partial

import numpy as np
import pytest

from repro.experiments.runner import run_sweep, sweep_definition_from_manifest
from repro.experiments.supervisor import RetryPolicy, RunManifest
from repro.traffic import (
    SCHEMES,
    incast_mesh,
    incast_workload,
    mice_elephants,
    poisson_workload,
    relay_mesh,
    simulate_flow_services,
)
from tests.routing.reference_mesh import serve_flows

#: Small mix keeps per-flow transfers short without collapsing to one size.
_MIX = mice_elephants(mice_packets=1, elephant_packets=4, elephant_fraction=0.3)

_RATE_MBPS = 12.0
_PAYLOAD = 256


def _poisson(n_flows=5, load=0.2, seed=7):
    return poisson_workload(n_flows, load, _MIX, _RATE_MBPS, _PAYLOAD, seed=seed)


class TestWorkloadGeneration:
    def test_same_seed_reproduces_every_flow(self):
        assert _poisson(seed=11) == _poisson(seed=11)
        assert _poisson(seed=11) != _poisson(seed=12)

    def test_flow_indices_are_positional(self):
        workload = _poisson(n_flows=6)
        assert [flow.index for flow in workload.flows] == list(range(6))

    def test_common_random_numbers_across_the_load_axis(self):
        """One population seed: doubling load halves arrivals, fixes sizes."""
        low = _poisson(load=0.1, seed=3)
        high = _poisson(load=0.2, seed=3)
        np.testing.assert_allclose(high.arrivals_us(), low.arrivals_us() / 2.0)
        np.testing.assert_array_equal(high.sizes_packets(), low.sizes_packets())

    def test_incast_flows_map_to_senders_in_order(self):
        burst = incast_workload((4, 2, 9), _MIX, _RATE_MBPS, _PAYLOAD, seed=5, jitter_us=10.0)
        assert [flow.sender for flow in burst.flows] == [4, 2, 9]
        assert all(0.0 <= flow.arrival_us <= 10.0 for flow in burst.flows)

    def test_zero_jitter_incast_arrives_at_zero(self):
        burst = incast_workload((1, 2), _MIX, _RATE_MBPS, _PAYLOAD, seed=5, jitter_us=0.0)
        assert [flow.arrival_us for flow in burst.flows] == [0.0, 0.0]


class TestFlowLaneBitIdentity:
    """Lockstep flows-as-lanes vs the per-flow sequential oracle."""

    def test_poisson_lockstep_matches_sequential(self):
        """Heterogeneous arrivals *and* sizes: the lane set is ragged."""
        workload = _poisson(n_flows=5, seed=21)
        factory = partial(relay_mesh, 17, n_relays=2)
        lockstep = simulate_flow_services(workload, factory, dst=1)
        sequential = serve_flows(workload, factory, dst=1)
        assert lockstep == sequential
        for scheme in SCHEMES:
            assert [s.flow_index for s in lockstep[scheme]] == list(range(5))
            assert all(s.service_us > 0 for s in lockstep[scheme])

    def test_incast_lockstep_matches_sequential(self):
        burst = incast_workload((1, 2, 3), _MIX, _RATE_MBPS, _PAYLOAD, seed=9)
        factory = partial(incast_mesh, 13, n_senders=3, n_relays=2)
        lockstep = simulate_flow_services(burst, factory, dst=0)
        sequential = serve_flows(burst, factory, dst=0)
        assert lockstep == sequential

    def test_chunk_width_cannot_change_results(self):
        workload = _poisson(n_flows=5, seed=21)
        factory = partial(relay_mesh, 17, n_relays=2)
        reference = simulate_flow_services(workload, factory, dst=1)
        for chunk_flows in (1, 2, 5, 50):
            chunked = simulate_flow_services(workload, factory, dst=1, chunk_flows=chunk_flows)
            assert chunked == reference, chunk_flows

    def test_process_pool_identical_to_in_process(self):
        workload = _poisson(n_flows=4, seed=33)
        factory = partial(relay_mesh, 17, n_relays=2)
        assert simulate_flow_services(workload, factory, dst=1, jobs=2) == (
            simulate_flow_services(workload, factory, dst=1, jobs=1)
        )

    def test_scheme_subset_is_plan_invariant(self):
        """A flow's schemes share one service stream in canonical order, so a
        subset draws differently from the full set — but the subset itself
        must stay bit-identical across execution plans and request order."""
        workload = _poisson(n_flows=3, seed=21)
        factory = partial(relay_mesh, 17, n_relays=2)
        subset = simulate_flow_services(workload, factory, dst=1, schemes=("exor", "sourcesync"))
        reordered = simulate_flow_services(
            workload, factory, dst=1, schemes=("sourcesync", "exor")
        )
        sequential = serve_flows(workload, factory, dst=1, schemes=("exor", "sourcesync"))
        assert subset == reordered == sequential

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            simulate_flow_services(
                _poisson(n_flows=2), lambda: None, dst=1, schemes=("exor", "tcp")
            )


def _exploding_factory():
    raise AssertionError("empty workloads must not build the testbed")


class TestEmptyWorkloads:
    """The traffic layer's analogue of the zero-packet ensemble guard."""

    def test_zero_flow_workloads_are_empty(self):
        assert _poisson(n_flows=0).flows == ()
        assert incast_workload((), _MIX, _RATE_MBPS, _PAYLOAD, seed=1).flows == ()

    def test_empty_serve_touches_nothing(self):
        services = simulate_flow_services(
            _poisson(n_flows=0), _exploding_factory, dst=1
        )
        assert services == {scheme: [] for scheme in SCHEMES}


def _must_not_run(*args):
    raise AssertionError("empty ensembles must not invoke the trial body")


class TestEmptyEnsembleGuards:
    """Regression: zero-trial calls invoke nothing and consume no entropy."""

    def test_run_seed_chunks_zero_trials(self):
        from repro.engine import run_seed_chunks

        assert run_seed_chunks(_must_not_run, 0, 7, 1) == []
        assert run_seed_chunks(_must_not_run, 0, 7, 3, chunk_size=2) == []

    def test_run_seed_chunks_zero_trials_leaves_seed_sequence_untouched(self):
        from repro.engine import run_seed_chunks

        shared = np.random.SeedSequence(7)
        assert run_seed_chunks(_must_not_run, 0, shared, 1) == []
        # A later spawn must hand out the same children as a fresh sequence:
        # the zero-trial call reserved no spawn keys.
        fresh = np.random.SeedSequence(7)
        assert [c.spawn_key for c in shared.spawn(2)] == [c.spawn_key for c in fresh.spawn(2)]


#: Near-zero backoff keeps any supervised retry cheap in tests.
_FAST = RetryPolicy(backoff_base_s=0.01, backoff_jitter=0.1)


class TestSweepResume:
    def test_incast_grid_resumes_byte_identical(self, tmp_path):
        """Resume of the traffic experiment's sweep serves pure cache hits,
        and a fresh run of the same grid produces byte-identical artifacts."""
        grid = {"seed": [1, 2]}
        first_dir, clean_dir = tmp_path / "first", tmp_path / "clean"
        first = run_sweep(
            "fig19_traffic_load", grid, preset="smoke", policy=_FAST, run_dir=first_dir
        )
        assert [o.status for o in first.outcomes] == ["completed", "completed"]
        resumed = run_sweep(
            "fig19_traffic_load", grid, preset="smoke", policy=_FAST, run_dir=first_dir
        )
        assert [o.status for o in resumed.outcomes] == ["cached", "cached"]
        clean = run_sweep(
            "fig19_traffic_load", grid, preset="smoke", policy=_FAST, run_dir=clean_dir
        )
        for res, cln in zip(resumed.outcomes, clean.outcomes):
            assert res.job.key == cln.job.key
            assert resumed.cache.path_for(res.job.key).read_bytes() == (
                clean.cache.path_for(cln.job.key).read_bytes()
            )

    def test_manifest_preserves_grid_axis_order(self, tmp_path):
        """Regression: manifest records are key-sorted, which used to
        alphabetize a multi-axis grid and permute the cell order on resume."""
        manifest = RunManifest.in_dir(tmp_path)
        manifest.append_header(
            experiment="fig19_traffic_load",
            preset="smoke",
            grid={"seed": [1, 2], "n_senders": [2, 3]},  # non-alphabetical order
            fixed=None,
            cells=4,
        )
        _, grid, preset, fixed = sweep_definition_from_manifest(manifest)
        assert list(grid) == ["seed", "n_senders"]
        assert grid == {"seed": [1, 2], "n_senders": [2, 3]}
        assert preset == "smoke" and fixed is None
