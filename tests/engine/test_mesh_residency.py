"""Resident state of the mesh ensembles: seed blocks and lane release.

``run_seed_chunks`` runs independent trials in near-equal blocks of at
most :data:`repro.engine.scheduler.SEED_BLOCK`, and an ExOR lane frees its
execution state when ``result`` returns.  Neither may change an output,
and together they keep fig18's working set from growing with the number
of topologies.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import run_seed_chunks, scheduler
from repro.experiments import registry


def _seed_block_probe(children):
    """Module-level (picklable) chunk body: the chunk width and one draw per trial."""
    return [(len(children), float(np.random.default_rng(child).random())) for child in children]


def _outputs(result):
    return result.series, result.summary, result.config


@pytest.mark.parametrize(
    "n_trials, jobs", [(1, 1), (7, 1), (64, 1), (65, 1), (200, 1), (10, 4), (200, 6)]
)
def test_seed_block_default_shards_are_near_equal_and_bounded(n_trials, jobs):
    """Default seed shards: at most a block wide, near-equal, one per job or more."""
    bounds = scheduler.chunk_bounds(n_trials, jobs, None, max_width=scheduler.SEED_BLOCK)
    widths = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == n_trials
    assert widths.max() <= scheduler.SEED_BLOCK and widths.max() - widths.min() <= 1
    assert len(widths) == max(min(jobs, n_trials), -(-n_trials // scheduler.SEED_BLOCK))


def test_seed_block_run_seed_chunks_invariant(monkeypatch):
    """The block width and the job count never change a trial's draws."""
    reference = [draw for _, draw in run_seed_chunks(_seed_block_probe, 20, 99)]
    for block in (1, 3, 7):
        monkeypatch.setattr(scheduler, "SEED_BLOCK", block)
        for jobs in (1, 2):
            shards = run_seed_chunks(_seed_block_probe, 20, 99, jobs)
            assert [draw for _, draw in shards] == reference
            assert max(width for width, _ in shards) <= block


@pytest.mark.parametrize("preset", ["smoke", "quick"])
def test_seed_block_fig18_outputs_invariant(monkeypatch, preset):
    """fig18 is bit-identical for blocks of 1, 3 and 7 and with two jobs."""
    spec = registry.get("fig18")
    reference = _outputs(spec.run(spec.make_config(preset)))
    for block in (1, 3, 7):
        monkeypatch.setattr(scheduler, "SEED_BLOCK", block)
        assert _outputs(spec.run(spec.make_config(preset))) == reference
    monkeypatch.undo()
    pooled = _outputs(spec.run(spec.make_config(preset, {"jobs": 2})))
    assert pooled[:2] == reference[:2]


def _fig18_ensemble_peak(n_topologies):
    from repro.experiments.fig18_opportunistic import _run_topology_ensemble
    from repro.phy.params import DEFAULT_PARAMS

    def run():
        return _run_topology_ensemble(n_topologies, 12.0, 24, 30, DEFAULT_PARAMS)

    run()  # warm module-level caches untraced
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_seed_block_fig18_peak_independent_of_width(monkeypatch):
    """With blocks of 8, 32 topologies hold no more memory at once than 8."""
    monkeypatch.setattr(scheduler, "SEED_BLOCK", 8)
    assert _fig18_ensemble_peak(32) <= 1.25 * _fig18_ensemble_peak(8)


def test_lane_release_exor_state_freed_while_chain_runs(monkeypatch):
    """A finished ExOR lane's state is freed by reference counting alone,
    before the lane chained behind it has finished."""
    from repro.experiments.fig18_opportunistic import random_relay_topology
    from repro.routing import ensemble
    from repro.routing.ensemble import ExorLane, simulate_exor_ensemble
    from repro.routing.exor import ExorConfig

    states: dict[int, weakref.ref] = {}
    checks: list[bool] = []
    original_setup, original_advance = (
        ensemble._ExorEngineLane.setup,
        ensemble._ExorEngineLane.advance,
    )

    def setup(lane):
        original_setup(lane)
        states[id(lane.spec)] = weakref.ref(lane._state)

    def advance(lane):
        if lane.spec.after is not None:
            checks.append(states[id(lane.spec.after)]() is None)
        original_advance(lane)

    monkeypatch.setattr(ensemble._ExorEngineLane, "setup", setup)
    monkeypatch.setattr(ensemble._ExorEngineLane, "advance", advance)
    rng = np.random.default_rng(3)
    testbed = random_relay_topology(rng)
    config = ExorConfig(batch_size=24)
    first = ExorLane(testbed, 0, 1, 12.0, [2, 3, 4], config, rng)
    second = ExorLane(
        testbed, 0, 1, 12.0, [2, 3, 4], replace(config, sender_diversity=True), rng, after=first
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        simulate_exor_ensemble([first, second])
    finally:
        if enabled:
            gc.enable()
    assert checks and all(checks)
