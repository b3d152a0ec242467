"""Self-test of the benchmark's tracer and counters.

Run from the repository root (takes about 20 s)::

    python3 perfbench/selftest.py

Checks, each printed as PASS or FAIL (exit code 1 on any failure):

* fault-trajectory counters: with fig20's own preset seed, ``link_faults``
  reads 823 wrapped trajectory slots out of 3 072 trajectories, and
  ``mesh_flows`` and ``joint_sync`` report no trajectory work at all;
* tracer neutrality: a traced pass gives the same output digests as an
  untraced one, every layer's self time is non-negative, and the layer
  self times plus ``other.self_s`` add up to the traced wall time;
* uninstall puts every original function back;
* every trace target was found, and ``BENCHMARK.json`` declares exactly
  the metrics and units the benchmark prints.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from run import END_TO_END, per_layer_units  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

#: fig20's full preset at its own seed: wrapped slot reads and trajectories.
FIG20_PRESET_WRAPS = 823
FIG20_PRESET_TRAJECTORIES = 3072

failures: list[str] = []


def check(condition: bool, label: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'}  {label}")
    if not condition:
        failures.append(label)


def digests(result) -> list[tuple[str, int, str]]:
    return [(op.label, op.seed, op.digest) for op in result.ops]


def traced_pass(workload: str, seed: int | None, scratch: Path):
    """An untraced pass, then a traced one, of ``workload``."""
    workloads.setup(workload)
    plain = workloads.run_pass(workload, seed, scratch)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(workload, seed, scratch, tracer)
    finally:
        tracer.uninstall()
    check(not tracer.missing, f"{workload}: every trace target found {tracer.missing or ''}")
    return plain, traced


def leftover_wrappers() -> list[str]:
    """Tracer wrappers still bound in any ``repro`` module or class."""
    def wrapped(value) -> bool:
        return getattr(getattr(value, "__func__", value), "_perfbench", False)

    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == name:
                owners += [(f"{attr}.{key}", raw) for key, raw in vars(value).items()]
            found += [f"{name}.{label}" for label, raw in owners if wrapped(raw)]
    return found


def check_neutral(workload: str, plain, traced) -> None:
    layers = traced.layers
    check(digests(plain) == digests(traced), f"{workload}: traced digests equal untraced")
    check(all(op.error is None for op in plain.ops + traced.ops), f"{workload}: no operation failed")
    check(
        all(layers[f"{layer}.self_s"] >= 0 for layer in LAYERS) and layers["other.self_s"] >= -1e-6,
        f"{workload}: self times are non-negative",
    )
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["other.self_s"]
    check(math.isclose(total, traced.wall_s, rel_tol=1e-9), f"{workload}: self times add up to wall time")


def main() -> int:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        plain, traced = traced_pass("link_faults", None, scratch)
        check_neutral("link_faults", plain, traced)
        wraps = traced.layers["channel.trajectory_wraps"]
        trajectories = traced.layers["channel.trajectories"]
        check(wraps == FIG20_PRESET_WRAPS, f"link_faults: {wraps} trajectory wraps (pinned {FIG20_PRESET_WRAPS})")
        check(
            trajectories == FIG20_PRESET_TRAJECTORIES,
            f"link_faults: {trajectories} trajectories (pinned {FIG20_PRESET_TRAJECTORIES})",
        )
        for workload in ("mesh_flows", "joint_sync"):
            plain, traced = traced_pass(workload, None, scratch)
            check_neutral(workload, plain, traced)
            counts = {
                name: traced.layers[name]
                for name in ("channel.trajectories", "channel.trajectory_reads",
                             "channel.trajectory_wraps", "channel.multiplier_mb")
            }
            check(not any(counts.values()), f"{workload}: no trajectory work {counts}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check(not leftover_wrappers(), f"uninstall restores every original {leftover_wrappers()[:3]}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end_to_end matches the untraced report",
    )
    check(
        {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units(),
        "BENCHMARK.json per_layer matches the traced report",
    )
    check(
        [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads match the benchmark's",
    )
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
