"""One workload process: set-up, timed passes and, optionally, a trace.

Started by ``run.py`` as a fresh interpreter for every process of a run,
so ``setup_s`` and ``peak_rss_mb`` describe this workload alone and not
whatever ran before it.  Prints one JSON report as its last stdout line.

Untraced mode runs passes until the pass budget is spent, cycling over
the run's pass seeds, and times the reference kernel (``reference.py``)
after every pass.  Trace mode runs the first pass seed only, without the
reference kernel, and spends half the budget on untraced passes and
half on traced ones, so
the report also carries the tracing overhead and lets the parent check
that traced and untraced outputs have the same digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from dataclasses import asdict
from pathlib import Path

import workloads
from reference import gauge
from tracer import Tracer


def run_passes(workload: str, seeds: list[int], start: int, budget_s: float, scratch: Path,
               tracer=None, gauge=None):
    """Run passes back to back for about ``budget_s`` host seconds.

    Pass ``i`` runs at ``seeds[(start + i) % len(seeds)]``.  At least one
    pass runs; another starts while it would end nearer the budget than
    stopping now does.  With a tracer, each pass is traced on its own and
    carries its per-layer metrics; with a gauge, each pass carries the
    reference-kernel times taken right after it.  The peak resident set
    is read after the first pass, before the kernel first runs, so the
    kernel's arrays never count in it.
    """
    deadline = time.monotonic() + budget_s
    passes = []
    while True:
        seed = seeds[(start + len(passes)) % len(seeds)]
        result = workloads.run_pass(workload, seed, scratch, tracer)
        record = {"seed": seed, "wall_s": result.wall_s, "units": result.units, "ops": [asdict(op) for op in result.ops]}
        if not passes:
            record["peak_rss_mb"] = peak_rss_mb()
        if gauge is not None:
            record["references"] = gauge(result.wall_s)
        if result.layers is not None:
            record["layers"] = {**dict.fromkeys(workloads.SWEEP_METRICS, 0), **result.layers}
        passes.append(record)
        if deadline - time.monotonic() < result.wall_s / 2:
            return passes


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run(args) -> dict:
    """Set up, run the passes and return the report (see module docstring)."""
    workloads.setup(args.workload)
    report = {"setup_s": time.monotonic() - args.spawned_at}
    seeds = workloads.pass_seeds(args.workload, args.seed)
    if args.trace:
        # One input throughout: counters repeat exactly from pass to pass,
        # and the overhead compares traced and untraced passes of it.
        seeds = seeds[:1]
    common = (args.workload, seeds, args.start)
    if not args.trace:
        report["passes"] = run_passes(*common, args.budget, args.scratch, gauge=gauge)
    else:
        untraced = run_passes(*common, args.budget / 2, args.scratch)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(*common, args.budget / 2, args.scratch, tracer)
        finally:
            tracer.uninstall()
        report["passes"] = untraced + traced
        report["overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced) - 1
        )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--start", type=int, default=0, help="index of the first pass seed")
    parser.add_argument("--budget", type=float, required=True, help="host seconds of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--scratch", type=Path, required=True, help="directory for sweep run dirs")
    print(json.dumps(run(parser.parse_args())))


if __name__ == "__main__":
    main()
