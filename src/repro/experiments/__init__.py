"""Experiment harness: declarative, registered reproductions of the paper's evaluation.

Every figure/table of the evaluation is a registered experiment: a typed,
frozen ``Config`` dataclass, an implementation function, and ``smoke`` /
``quick`` / ``full`` presets, bound together by an
:class:`~repro.experiments.registry.ExperimentSpec` (see
:mod:`repro.experiments.registry`).  ``EXPERIMENTS.md`` at the repository
root is generated from this registry.

===================  =============================================================
experiment           reproduces
===================  =============================================================
fig12                Fig. 12 — 95th percentile synchronization error vs SNR
fig13                Fig. 13 — joint-transmission SNR vs cyclic prefix
fig14                Fig. 14 — time-domain channel delay spread
fig15                Fig. 15 — average SNR gains per SNR regime
fig16                Fig. 16 — per-subcarrier SNR profiles
fig17                Fig. 17 — last-hop throughput CDF
fig18                Fig. 18 — opportunistic routing throughput CDFs
fig19_traffic_load   §8.4 ext. — flow-level FCT and saturation vs offered load
overhead             §4.4 — synchronization overhead vs sender count
ablation_combining   §6 — naive combining vs Alamouti (design-choice ablation)
ablation_slope       §4.2 — windowed vs whole-band phase-slope estimation
===================  =============================================================

Command line
------------
The package is executable::

    python -m repro.experiments list                         # registry table
    python -m repro.experiments run --preset quick --jobs 4  # everything, in parallel
    python -m repro.experiments run fig17 --preset full --set n_placements=60
    python -m repro.experiments run --tag routing --preset smoke
    python -m repro.experiments sweep fig14 --sweep n_realizations=100,300,1000
    python -m repro.experiments report results/fig17.json    # re-print a saved run
    python -m repro.experiments report --sweep results/grid  # tidy per-cell table
    python -m repro.experiments docs                         # regenerate EXPERIMENTS.md

``run`` and ``sweep`` write one JSON artifact per run under ``results/``
(``--output-dir`` to change, ``--no-save`` to disable).  Artifacts embed
the exact config, the seed, and library/git provenance, and round-trip
through :meth:`ExperimentResult.load` — ``report`` re-prints them without
re-simulating.

``sweep`` additionally runs under the fault-tolerant sweep engine
(:mod:`repro.experiments.supervisor`): grid cells execute on supervised
worker processes with per-cell ``--timeout`` and ``--retries`` (with
exponential backoff), completed cells land in a content-addressed
artifact cache (:mod:`repro.experiments.cache`) beside an append-only
JSONL run manifest, and an interrupted or partially failed sweep resumes
with ``sweep --resume DIR`` — completed cells become cache hits and the
remainder re-executes, converging to bit-identical artifacts.

Python API
----------
::

    from repro.experiments import registry

    spec = registry.get("fig17")
    result = spec.run(spec.make_config("quick", {"n_placements": 30}))
    print(result.report())
    result.save("results/fig17.json")

    from repro.experiments.runner import run_all
    results = run_all(["fig14", "fig17"], preset="smoke", jobs=2)
"""

from repro.experiments import registry
from repro.experiments.common import ExperimentResult, format_table
from repro.experiments.registry import ExperimentSpec, experiment

# Populate the registry eagerly so `from repro.experiments import registry`
# (and the CLI/runner/benchmarks built on it) always see every experiment.
registry.load_all()

__all__ = ["ExperimentResult", "ExperimentSpec", "experiment", "format_table", "registry"]
