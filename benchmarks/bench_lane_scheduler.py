"""Smoke benchmark: the shared lane scheduler adds no measurable overhead.

PR context: the three private lockstep engines (packet batch, joint-frame
core, mesh routing) moved onto the shared :mod:`repro.engine` scheduler.
This benchmark guards the migration's performance contract from both
ends and writes ``BENCH_lane_scheduler.json``:

* **engine speedups must hold** — fig18 (ExOR mesh ensemble) and
  fig19_traffic_load (flows-as-lanes) quick presets re-measure their
  batched-vs-sequential ratios on the migrated engine.  The recorded
  pre-migration ratios (``BENCH_exor_ensemble.json``: 2.7x quick;
  ``BENCH_traffic_load.json``: 1.5x bucket) would absorb a >5% scheduler
  overhead long before the asserted floors here (1.5x / 1.1x — the same
  loose quick-preset floor ``bench_exor_ensemble`` uses, so scheduler
  noise on loaded machines cannot fail the smoke test; typical observed
  ratios are ~2.2-2.5x and ~1.6x);
* **raw dispatch cost** — a microbench of trivial scripted lanes through
  :class:`~repro.engine.LockstepScheduler` against the same bodies run
  inline, recording the per-lane-wave overhead in microseconds (bucketed
  coarsely; typical values are single-digit).
"""

import numpy as np

from bench_utils import series_match, timed, write_baseline

from repro.engine import Lane, LockstepScheduler
from repro.experiments import registry


def _time_both(name: str, preset: str, repeats: int) -> tuple[float, float]:
    spec = registry.get(name)
    spec.run(spec.make_config("smoke"))  # warm code paths and caches
    batched_s, batched = timed(lambda: spec.run(spec.make_config(preset)), repeats=repeats)
    sequential_s, sequential = timed(
        lambda: spec.run(spec.make_config(preset, {"batched": False})), repeats=repeats
    )
    assert series_match(batched, sequential), f"{name} {preset}: paths diverge"
    return batched_s, sequential_s


class _NullLane(Lane):
    """Trivial scripted lane: fixed rounds, one tiny draw per advance."""

    def __init__(self, rng, rounds):
        self.rng = rng
        self.after = None
        self.rounds = rounds
        self.advanced = 0

    def advance(self):
        """One wave step and one scalar draw."""
        self.advanced += 1
        self.rng.random()

    @property
    def finished(self):
        """Done after the scripted number of advances."""
        return self.advanced >= self.rounds

    def result(self):
        """The number of advances taken."""
        return self.advanced


def _dispatch_overhead_us(n_lanes: int = 200, rounds: int = 5) -> float:
    """Scheduler-vs-inline cost per lane-wave on do-nothing lanes."""
    def scheduled():
        lanes = [_NullLane(np.random.default_rng(i), rounds) for i in range(n_lanes)]
        return LockstepScheduler().run(lanes)

    def inline():
        lanes = [_NullLane(np.random.default_rng(i), rounds) for i in range(n_lanes)]
        out = []
        for lane in lanes:
            while not lane.finished:
                lane.advance()
            out.append(lane.result())
        return out

    assert scheduled() == inline()
    scheduled_s, _ = timed(scheduled, repeats=5)
    inline_s, _ = timed(inline, repeats=5)
    return max(scheduled_s - inline_s, 0.0) / (n_lanes * rounds) * 1e6


def test_lane_scheduler_overhead(benchmark):
    fig18_batched, fig18_sequential = _time_both("fig18", "quick", repeats=5)
    fig19_batched, fig19_sequential = _time_both("fig19_traffic_load", "quick", repeats=3)
    overhead_us = _dispatch_overhead_us()

    fig18_ratio = fig18_sequential / fig18_batched
    fig19_ratio = fig19_sequential / fig19_batched
    print(
        f"\nfig18 quick {fig18_ratio:.2f}x, fig19 quick {fig19_ratio:.2f}x, "
        f"dispatch overhead {overhead_us:.1f} us/lane-wave"
    )

    # Coarse buckets only: raw wall-clock jitters run to run, which would
    # churn the committed file with no signal (raw numbers print above).
    write_baseline(
        "lane_scheduler",
        {
            "engine_speedup": {
                "fig18_quick": round(fig18_ratio, 1),
                "fig19_traffic_load_quick": round(fig19_ratio, 1),
            },
            "pr_floor": {"fig18_quick": 1.5, "fig19_traffic_load_quick": 1.1},
            "dispatch_overhead_us_per_lane_wave_bucket": float(
                np.ceil(overhead_us / 5.0) * 5.0
            ),
        },
    )
    # Pre-migration ratios (2.7x / 1.5x) minus a generous noise margin: a
    # shared-scheduler overhead anywhere near 5% of the quick presets
    # would still clear these floors, an engine regression would not.
    assert fig18_ratio >= 1.5, f"fig18 quick only {fig18_ratio:.2f}x faster batched"
    assert fig19_ratio >= 1.1, f"fig19 quick only {fig19_ratio:.2f}x faster lockstep"

    benchmark.pedantic(
        lambda: registry.get("fig18").run(registry.get("fig18").make_config("quick")),
        rounds=1,
        iterations=1,
    )
