"""Helpers shared by the benchmark modules.

Besides the report printer, this module provides a small baseline writer:
benchmarks call :func:`write_baseline` with their headline numbers and a
``BENCH_<name>.json`` file appears in the repository root, so throughput
regressions are visible as plain-diffable artifacts regardless of whether
the session also passed pytest-benchmark's own ``--benchmark-json`` flag
(whose machine-generated output is richer but not diff-friendly).
"""

import json
import time
from pathlib import Path

from repro.experiments.common import atomic_write_text

#: Repository root (the directory that holds ``benchmarks/``).
REPO_ROOT = Path(__file__).resolve().parent.parent


def report(result) -> None:
    """Print an experiment report beneath the benchmark output."""
    print()
    print(result.report())


def baseline_path(name: str) -> Path:
    """Path of the ``BENCH_<name>.json`` baseline artifact."""
    return REPO_ROOT / f"BENCH_{name}.json"


def write_baseline(name: str, summary: dict) -> Path:
    """Write a benchmark baseline as ``BENCH_<name>.json`` in the repo root.

    ``summary`` must be JSON-serialisable.  No timestamp is embedded:
    identical results should produce identical files so the committed
    artifact only changes when the measured numbers do (callers should
    round timing fields coarsely for the same reason).
    """
    path = baseline_path(name)
    payload = {"name": name, **summary}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times and return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result
