"""Workload definitions, output digests and failure accounting.

A workload is a closed loop of *operations* — one operation is one
experiment run or one sweep cell — executed back to back in a single
process.  :func:`run_pass` runs one pass of a workload (its timed body)
and returns the pass's host time, the host time of each timed unit and
one :class:`Op` record per operation; :func:`account` turns the records
of a whole benchmark run into attempted/failed counts.

Importing this module imports nothing from ``repro``; the worker process
does that inside its measured set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Experiments each lane workload runs at the ``full`` preset, in order.
EXPERIMENTS = {
    "joint_sync": ("fig12", "fig13"),
    "mesh_flows": ("fig18", "fig17", "fig19_traffic_load"),
    "link_faults": ("fig20_link_dynamics",),
    "sweep_resume": ("fig18",),
}

WORKLOADS = tuple(EXPERIMENTS)

#: Distinct experiment seeds one benchmark run cycles through per workload.
#: A run's passes cover several inputs, so its pass time depends little
#: on which seed the run was given; each seed still runs at least twice
#: in a run (in different processes), so digests are compared.
SEEDS_PER_RUN = {"joint_sync": 3, "mesh_flows": 9, "link_faults": 1, "sweep_resume": 1}

#: The sweep workload: experiment, preset, number of grid cells (one seed
#: each) and supervisor worker processes (the box has two cores).  Cells
#: run at the ``quick`` preset (about 35 ms each), so the sweep's time is
#: mostly the supervisor, cache and manifest rather than fig18's lanes
#: (which ``mesh_flows`` measures), and a pass is short enough to repeat
#: many times in a run: eight ``full`` cells on two workers took 2.7-4.4 s
#: a pass and spread by a quarter from one run to the next.
SWEEP_EXPERIMENT = "fig18"
SWEEP_PRESET = "quick"
SWEEP_CELLS = 32
SWEEP_JOBS = 2

#: Host seconds one operation (or one whole sweep call) may take before it
#: counts as timed out.
OP_TIMEOUT_S = 60

_PLACEHOLDER = re.compile(r"\{[a-zA-Z_][a-zA-Z0-9_]*\}")


@dataclass
class Op:
    """Outcome of one operation: identity, output digest and any failure.

    ``label`` names the operation: the experiment it ran.
    """

    label: str
    seed: int
    digest: str | None = None
    error: str | None = None


#: Per-layer metrics of the sweep machinery, with units (0 on lane workloads).
SWEEP_METRICS = {
    "experiments.sweep.cold_s": "s",
    "experiments.sweep.resume_s": "s",
    "experiments.cache.hits": "count",
    "experiments.cache.mb_written": "MiB",
    "experiments.supervisor.attempts": "count",
}


@dataclass
class PassResult:
    """One pass of a workload's timed body.

    ``units`` holds one ``(label, host_s)`` pair per timed unit (an
    operation, or the whole pass of ``sweep_resume``).  ``layers`` holds
    the pass's per-layer metrics when it ran traced.
    """

    wall_s: float
    ops: list[Op] = field(default_factory=list)
    units: list[tuple[str, float]] = field(default_factory=list)
    layers: dict[str, float] | None = None


class OpTimeout(Exception):
    """Raised by the alarm handler when an operation overruns OP_TIMEOUT_S."""


def output_digest(result) -> str:
    """SHA-256 over a result's ``series``, ``summary`` and ``config``.

    ``provenance`` is left out because it embeds the git commit and host;
    everything the experiment computed is covered.
    """
    payload = json.loads(result.to_json(indent=None))
    body = {key: payload[key] for key in ("series", "summary", "config")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def missing_summary_keys(spec, summary) -> list[str]:
    """Declared ``summary_keys`` patterns that no key of ``summary`` matches."""
    missing = []
    for pattern in spec.summary_keys:
        parts = _PLACEHOLDER.split(pattern)
        regex = re.compile("[A-Za-z0-9.+-]+".join(re.escape(part) for part in parts))
        if not any(regex.fullmatch(key) for key in summary):
            missing.append(pattern)
    return missing


def check_result(label: str, spec, seed: int, result) -> Op:
    """The :class:`Op` record of one finished run: digest plus key check."""
    missing = missing_summary_keys(spec, result.summary)
    error = f"summary lacks declared keys {missing}" if missing else None
    return Op(label, seed, output_digest(result), error)


def experiment_seed(name: str, seed: int | None) -> int:
    """The ``seed`` config field a workload seed gives experiment ``name``.

    ``None`` keeps the experiment's own preset seed (used by the self-test
    that pins the fault-trajectory wrap count).
    """
    from repro.experiments import registry

    spec = registry.get(name)
    return spec.make_config("full").seed if seed is None else seed


def pass_seeds(workload: str, seed: int) -> list[int]:
    """The seeds a run with workload seed ``seed`` cycles through."""
    count = SEEDS_PER_RUN[workload]
    return [seed * count + index for index in range(count)]


def sweep_seeds(seed: int | None) -> list[int]:
    """Grid values of the sweep's ``seed`` axis for one workload seed."""
    base = experiment_seed(SWEEP_EXPERIMENT, seed)
    return [base * SWEEP_CELLS + cell for cell in range(SWEEP_CELLS)]


def operations(workload: str, seed: int | None) -> list[tuple[str, object, object]]:
    """``(label, spec, config)`` of every operation of one lane-workload pass."""
    from repro.experiments import registry

    ops = []
    for name in EXPERIMENTS[workload]:
        spec = registry.get(name)
        ops.append((name, spec, spec.make_config("full", {"seed": experiment_seed(name, seed)})))
    return ops


def setup(workload: str) -> None:
    """Imports, registry lookups and one ``smoke`` run per experiment.

    The smoke runs fill the lazy caches (codes, cached preambles, memo
    tables) so the timed passes measure steady-state work.
    """
    from repro.experiments import registry

    for name in EXPERIMENTS[workload]:
        spec = registry.get(name)
        spec.run(spec.make_config("smoke"))
    if workload == "sweep_resume":
        import repro.experiments.runner  # noqa: F401  (the sweep entry point)


def run_pass(workload: str, seed: int | None, scratch: Path, tracer=None) -> PassResult:
    """Run one pass of ``workload``; ``scratch`` holds sweep run directories.

    With a tracer installed, only the timed body is traced: the tracer is
    reset when it starts and read as soon as it ends.
    """
    if workload == "sweep_resume":
        return _sweep_pass(seed, scratch, tracer)
    todo = operations(workload, seed)
    results = []
    units = []
    if tracer is not None:
        tracer.reset()
    for label, spec, config in todo:
        start = time.perf_counter()
        try:
            with _deadline():
                out = spec.run(config)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out = exc
        host_s = time.perf_counter() - start
        results.append((label, spec, config.seed, out))
        units.append((label, host_s))
    wall_s = sum(host_s for _, host_s in units)
    layers = tracer.metrics(wall_s) if tracer is not None else None
    ops = [
        Op(label, exp_seed, error=f"{type(out).__name__}: {out}")
        if isinstance(out, Exception) else check_result(label, spec, exp_seed, out)
        for label, spec, exp_seed, out in results
    ]
    return PassResult(wall_s, ops, units, layers)


def _sweep_pass(seed: int | None, scratch: Path, tracer) -> PassResult:
    """A cold sweep into a fresh run directory, then a resume against it."""
    from repro.experiments import registry
    from repro.experiments.runner import run_sweep

    spec = registry.get(SWEEP_EXPERIMENT)
    grid = {"seed": sweep_seeds(seed)}
    run_dir = scratch / f"sweep-{os.getpid()}-{time.monotonic_ns()}"

    def timed_sweep():
        start = time.perf_counter()
        with _deadline():
            run = run_sweep(SWEEP_EXPERIMENT, grid, preset=SWEEP_PRESET, jobs=SWEEP_JOBS, run_dir=run_dir)
        return time.perf_counter() - start, run

    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    try:
        cold_s, cold = timed_sweep()
        written = sum(path.stat().st_size for path in run_dir.rglob("*") if path.is_file())
        resume_s, resume = timed_sweep()
    except Exception as exc:  # noqa: BLE001 - every cell of the pass counts as failed
        error = f"{type(exc).__name__}: {exc}"
        ops = [Op(spec.name, cell_seed, error=error) for cell_seed in grid["seed"] * 2]
        elapsed = time.perf_counter() - start
        return PassResult(elapsed, ops, [("sweep", elapsed)])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wall_s = cold_s + resume_s
    layers = tracer.metrics(wall_s) if tracer is not None else None
    ops = []
    for phase, run, wanted in (("cold", cold, {"completed", "cached"}), ("resume", resume, {"cached"})):
        for outcome in run.outcomes:
            cell_seed = outcome.job.overrides["seed"]
            if outcome.status not in wanted or outcome.result is None:
                ops.append(Op(spec.name, cell_seed, error=f"{phase} cell ended {outcome.status!r}"))
            else:
                ops.append(check_result(spec.name, spec, cell_seed, outcome.result))
    if layers is not None:
        outcomes = cold.outcomes + resume.outcomes
        layers.update({
            "experiments.sweep.cold_s": cold_s,
            "experiments.sweep.resume_s": resume_s,
            "experiments.cache.hits": sum(outcome.status == "cached" for outcome in outcomes),
            "experiments.cache.mb_written": written / 2**20,
            "experiments.supervisor.attempts": sum(len(outcome.attempts) for outcome in outcomes),
        })
    return PassResult(wall_s, ops, [("sweep", wall_s)], layers)


@contextlib.contextmanager
def _deadline():
    """Raise :class:`OpTimeout` in the block after OP_TIMEOUT_S host seconds."""

    def expire(signum, frame):
        raise OpTimeout(f"exceeded {OP_TIMEOUT_S}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(OP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def account(ops: list[dict]) -> tuple[int, int, dict[tuple[str, int], list[str]]]:
    """Attempted and failed counts over every op record of a run.

    An op fails when it raised, timed out, lacked a declared summary key or
    (for sweep cells) ended in the wrong state — and every op of an
    (label, seed) pair whose runs disagree on the output digest fails.
    Also returns the distinct digests seen per pair.
    """
    digests: dict[tuple[str, int], list[str]] = defaultdict(list)
    for op in ops:
        seen = digests[(op["label"], op["seed"])]
        if op["digest"] is not None and op["digest"] not in seen:
            seen.append(op["digest"])
    failed = sum(
        op["error"] is not None or len(digests[(op["label"], op["seed"])]) > 1
        for op in ops
    )
    return len(ops), failed, dict(digests)
