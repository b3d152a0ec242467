"""Repository benchmark: one workload, fresh interpreters, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload mesh_flows --seed 3 --seconds 20 --trace 0

Each run starts :data:`PROCESSES` fresh worker interpreters one after the
other (one with ``--trace 1``); each does its own set-up and then runs
passes of the workload for its share of ``--seconds``.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics untraced, the per-layer metrics
traced.  Lines before it give every metric with its unit and the output
digest of every (operation, seed).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced worker processes per run (set-up is measured once in each).
PROCESSES = 3

#: Whole-run limit, host seconds; a worker still running then is killed.
RUN_LIMIT_S = 170

#: glibc allocator settings of the workers: freed memory stays in the heap
#: and is reused, instead of going back to the OS and being faulted in
#: again.  Fresh-page faults on this kind of shared VM cost a varying
#: amount that depends on the host, and fig20 allocates about 860 MiB of
#: trajectory cubes a pass; with these settings six fig20 passes in one
#: process spread by about 7% instead of 17%.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(2**30), "MALLOC_TRIM_THRESHOLD_": str(2**30)}

#: End-to-end metrics and their units, in report order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

sys.path.insert(0, str(HERE))
from reference import REF_S  # noqa: E402
from tracer import COUNTERS, HOST_SPAN_EXPERIMENTS, LAYERS, SPANS  # noqa: E402
from workloads import SWEEP_METRICS, WORKLOADS, account  # noqa: E402


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count", f"{layer}.share": "fraction"})
    units["other.self_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    units.update(dict.fromkeys(SPANS, "s"))
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["channel.multiplier_mb"] = "MiB"
    units.update({f"experiments.{name}.host_s": "s" for name in HOST_SPAN_EXPERIMENTS})
    units.update(SWEEP_METRICS)
    return units


def spawn_worker(args, start: int, budget_s: float, trace: bool, scratch: Path, limit_at: float) -> dict:
    """Run one worker interpreter to completion and return its report.

    ``start`` is the index of the worker's first pass seed, so the workers
    of a run begin at different seeds of the run's cycle.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(MALLOC_ENV)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--start", str(start),
        "--budget", repr(budget_s),
        "--trace", str(int(trace)), "--scratch", str(scratch),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(limit_at - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} worker exceeded the {RUN_LIMIT_S}s run limit")
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def summarise(args, reports: list[dict]) -> dict:
    """Aggregate worker reports into the final result object.

    Host times are scaled to reference speed: times ``REF_S`` over the
    median of every reference-kernel time of the run.  ``wall_s`` is, per
    pass seed, the sum over the pass's timed units of each unit's fastest
    host time, then the mean over pass seeds, scaled: the minimum filters
    out short slowdowns of the host, the scaling those that last the
    whole run, and the mean over seeds evens out inputs of different
    size.  ``setup_s`` is the median over processes of the set-up time,
    scaled.  ``peak_rss_mb`` is the largest first-pass peak over the
    processes: one process's peak varies between two levels from one
    interpreter to the next (allocation order), the largest is steady.
    Per-layer values are (low) medians over the traced passes, so counts
    stay whole.
    """
    passes = [record for report in reports for record in report["passes"]]
    ops = [op for record in passes for op in record["ops"]]
    attempted, failed, digests = account(ops)
    for (label, seed), seen in sorted(digests.items()):
        flag = "  MISMATCH" if len(seen) > 1 else ""
        print(f"digest {label} seed={seed} {' '.join(seen) or '-'}{flag}")
    for message, count in Counter(op["error"] for op in ops if op["error"]).items():
        print(f"failed x{count}: {message}")
    if args.trace:
        (report,) = reports
        traced = [record["layers"] for record in passes if "layers" in record]
        values = {name: statistics.median_low(layer[name] for layer in traced) for name in traced[0]}
        values["trace.overhead_frac"] = report["overhead_frac"]
        units = per_layer_units()
    else:
        fastest: dict[tuple[int, str], float] = {}
        for record in passes:
            for label, host_s in record["units"]:
                key = (record["seed"], label)
                fastest[key] = min(host_s, fastest.get(key, math.inf))
        per_seed: dict[int, float] = defaultdict(float)
        for (seed, _), host_s in fastest.items():
            per_seed[seed] += host_s
        references = [reference_s for record in passes for reference_s in record["references"]]
        reference = statistics.median(references)
        print(f"reference kernel: median {reference * 1e3:.2f} ms over {len(references)} calls "
              f"(REF_S {REF_S * 1e3:g} ms); unscaled wall_s {statistics.fmean(per_seed.values()):.4f} s")
        values = {
            "wall_s": statistics.fmean(per_seed.values()) * REF_S / reference,
            "setup_s": statistics.median(report["setup_s"] for report in reports) * REF_S / reference,
            "peak_rss_mb": max(report["passes"][0]["peak_rss_mb"] for report in reports),
        }
        units = END_TO_END
    print(f"{args.workload}: {len(reports)} process(es), {len(passes)} pass(es)")
    print("pass seed:host_s: " + " ".join(f"{record['seed']}:{record['wall_s']:.4f}" for record in passes))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    limit_at = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        if args.trace:
            reports = [spawn_worker(args, 0, args.seconds, True, scratch, limit_at)]
        else:
            budget = args.seconds / PROCESSES
            reports = [
                spawn_worker(args, start, budget, False, scratch, limit_at)
                for start in range(PROCESSES)
            ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(summarise(args, reports)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
