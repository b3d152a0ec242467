"""Smoke benchmark: the raw dispatch cost of the shared lane scheduler.

A microbench of trivial scripted lanes through
:class:`~repro.engine.LockstepScheduler` against the same bodies run
inline records the per-lane-wave overhead in microseconds (bucketed
coarsely; typical values are single-digit) and writes
``BENCH_lane_scheduler.json``.  End-to-end engine speed is measured by
perfbench (``mesh_flows`` / ``link_faults`` ``wall_s``).
"""

import numpy as np

from bench_utils import timed, write_baseline

from repro.engine import Lane, LockstepScheduler


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
    overhead_us = _dispatch_overhead_us()
    print(f"\ndispatch overhead {overhead_us:.1f} us/lane-wave")

    # Coarse bucket only: raw wall-clock jitters run to run, which would
    # churn the committed file with no signal (the raw number prints above).
    write_baseline(
        "lane_scheduler",
        {"dispatch_overhead_us_per_lane_wave_bucket": float(np.ceil(overhead_us / 5.0) * 5.0)},
    )

    benchmark.pedantic(_dispatch_overhead_us, rounds=1, iterations=1)
