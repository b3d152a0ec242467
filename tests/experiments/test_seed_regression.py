"""Seed audit: every experiment's RNGs hang off its config ``seed``.

Each registered experiment threads a single deterministic ``seed`` from its
``Config`` into every RNG it constructs, so a fixed preset pins the full
output.  These tests freeze one summary scalar per experiment at the
``smoke`` preset; a change here means the experiment's seeded random stream
(or its math) changed, which must be deliberate.

The pinned values were produced by ``spec.run(spec.make_config("smoke"))``
at the seeds recorded in each experiment's ``Config`` defaults.

Re-pinned with the batched joint-frame core path: the detector's
``start_index`` semantics changed (coarse start = metric-run start, which
also moves the coarse-CFO estimation window), fig12/fig15 now seed every
(SNR, topology) cell from its own spawned generator, fig13 freezes the
tracking loop during the measured CP sweep, and fig17/fig18 thread
independent per-trial seeds — all deliberate, order-independence-enabling
changes (see CHANGES.md).

The mesh experiments (fig17–fig20) run only the lockstep lanes of
:mod:`repro.routing.ensemble` and :mod:`repro.traffic.service`; with their
entry points swapped for the reference loops of
``tests/routing/reference_mesh.py`` they reproduce the lockstep output at
``smoke`` byte for byte.  The joint-frame experiments (fig12, fig13,
fig15) likewise run only the lockstep core path, whose per-frame oracle
is ``tests/core/reference_session.py`` (checked in
``tests/engine/test_joint_batch.py``).
"""

import json

import numpy as np
import pytest

from repro.experiments import registry
from tests.routing.reference_mesh import patch_sequential_mesh

#: experiment -> (summary key, value at the smoke preset's default seed).
PINNED = {
    "fig12": ("worst_p95_ns", 19.32430715464418),
    "fig13": ("baseline_cp_for_95pct_peak_ns", 1600.0),
    "fig14": ("delay_spread_ns", 109.375),
    "fig15": ("max_gain_db", 3.0451622596551253),
    "fig16": ("high_gain_db", 3.7272113453149736),
    "fig17": ("sourcesync_median_mbps", 3.040009211982553),
    "fig18": ("sourcesync_over_single_12mbps", 1.4059712716379633),
    "fig19_traffic_load": ("saturation_load_sourcesync", 0.025796375674766985),
    "fig20_link_dynamics": ("goodput_mbps_linklocal_worst", 0.4195091673563198),
    "overhead": ("two_senders_percent", 1.8108651911468814),
    "ablation_combining": ("naive_deep_fade_fraction", 0.075),
    "ablation_slope": ("windowed_median_error_ns", 3.350235425786269),
}


#: (experiment, seed override) pairs checked against the sequential oracle.
MESH_ORACLE_CASES = [
    ("fig17", None),
    ("fig18", None),
    ("fig18", 5),
    ("fig19_traffic_load", None),
    ("fig20_link_dynamics", None),
    ("fig20_link_dynamics", 5),
]


def test_every_experiment_is_pinned():
    assert set(PINNED) == set(registry.names())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_summary_scalar_pinned(name):
    key, expected = PINNED[name]
    spec = registry.get(name)
    result = spec.run(spec.make_config("smoke"))
    assert result.summary[key] == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed_override_changes_or_preserves_output_deterministically(name):
    """Same seed -> identical output; the seed is the only entropy source."""
    spec = registry.get(name)
    first = spec.run(spec.make_config("smoke", {"seed": 1234}))
    second = spec.run(spec.make_config("smoke", {"seed": 1234}))
    assert first.summary.keys() == second.summary.keys()
    for summary_key in first.summary:
        np.testing.assert_array_equal(first.summary[summary_key], second.summary[summary_key])


@pytest.mark.parametrize("name,seed", MESH_ORACLE_CASES)
def test_sequential_oracle_reproduces_default_smoke_output(name, seed, monkeypatch):
    """The reference mesh loops give the lockstep ``series``/``summary``."""
    spec = registry.get(name)
    config = spec.make_config("smoke", None if seed is None else {"seed": seed})
    lockstep = spec.run(config)
    patch_sequential_mesh(monkeypatch)
    sequential = spec.run(config)
    assert json.dumps([lockstep.series, lockstep.summary], sort_keys=True) == json.dumps(
        [sequential.series, sequential.summary], sort_keys=True
    )
