"""Smoke preset: every registered experiment end to end, in seconds.

``pytest -q tests/experiments -k smoke`` runs the whole registry at the
``smoke`` preset, including the JSON artifact round trip — the CI-grade
guarantee that every experiment stays runnable.
"""

import gc
import math

import pytest

from repro.experiments import registry
from repro.experiments.common import ExperimentResult


def _equal_or_both_nan(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


@pytest.mark.parametrize("name", [
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19_traffic_load", "fig20_link_dynamics",
    "overhead", "ablation_combining", "ablation_slope",
])
def test_smoke_preset_end_to_end(name, tmp_path):
    spec = registry.get(name)
    result = spec.run(spec.make_config("smoke"))
    assert result.name == name
    assert result.series, f"{name} produced no series"
    assert result.summary, f"{name} produced no summary"
    assert result.paper_reference, f"{name} lost its paper reference"
    assert "==" in result.report()

    restored = ExperimentResult.load(result.save(tmp_path / f"{name}.json"))
    assert restored.summary.keys() == result.summary.keys()
    for key in result.summary:
        assert _equal_or_both_nan(restored.summary[key], result.summary[key]), key

    # Docs-freshness guarantee: every summary key the experiment actually
    # produces must match one of the spec's documented key patterns (the
    # generated docs/experiments/<name>.md page is rendered from them).
    assert spec.summary_keys, f"{name} declares no summary_keys documentation"
    undocumented = [k for k in result.summary if not spec.documents_summary_key(k)]
    assert not undocumented, f"{name} summary keys missing from spec.summary_keys: {undocumented}"


@pytest.mark.parametrize("name", registry.names())
def test_smoke_run_leaves_no_cyclic_garbage(name):
    """An experiment run frees its ensembles by reference counting alone.

    Garbage that only the cyclic collector can free (a lockstep run's
    lanes, testbeds and caches held by a reference cycle) outlives the
    run and piles up under the next one.
    """
    spec = registry.get(name)
    config = spec.make_config("smoke")
    spec.run(config)  # warm module-level caches
    gc.collect()
    gc.disable()
    try:
        spec.run(config)
        assert gc.collect() == 0
    finally:
        gc.enable()
