"""Reference kernel: a fixed piece of work that gauges the host's speed.

The benchmark host is shared: other tenants slow a pass by up to 2x, for
seconds or minutes at a time, and memory-heavy work more than the rest.
No statistic inside one run removes a slowdown that lasts the whole run.
So the worker times the kernel after every pass (:func:`gauge`), and
the run scales its host times by ``REF_S`` over the median kernel time:
a run made while the host runs at half speed is reported at the times
it takes on a host where the kernel takes ``REF_S``.

The kernel imports nothing from ``repro``, so a change to the program
never changes it.  It mixes the two kinds of work the workloads do:

* a Markov-state sweep over a ``(lanes, slots, links)`` array, slot by
  slot through strided views (the access pattern of fault-trajectory
  evolution, sensitive to cache and memory-bandwidth contention);
* interpreter-bound Python and small-matrix numpy (the pattern of the
  routing, net and PHY lanes).

Its arrays (about 27 MiB) are allocated and freed on every call; the
worker reads its peak resident set before the kernel first runs.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference kernel host seconds that reported times are scaled to: near the
#: kernel's median on the 2-vCPU Xeon VM (2.0 GHz) the benchmark was written on.
REF_S = 0.035

#: Share of a pass's host time spent timing the kernel after it.
SHARE = 0.1

_SHAPE = (48, 256, 128)


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    uniforms = rng.random(_SHAPE)
    states = np.empty(_SHAPE, dtype=bool)
    states[:, 0, :] = uniforms[:, 0, :] < 0.2
    for slot in range(1, _SHAPE[1]):
        states[:, slot, :] = np.where(states[:, slot - 1, :], uniforms[:, slot, :] >= 0.3, uniforms[:, slot, :] < 0.1)
    total = float(np.where(states, 0.4, 1.0).sum())
    table: dict[int, int] = {}
    acc = 0
    for index in range(30_000):
        table[index & 511] = acc
        acc = (acc + index * 7) % 1_000_003
    matrix = rng.standard_normal((32, 32))
    for _ in range(60):
        matrix = np.tanh(matrix @ matrix.T * 0.01 + matrix)
    return total + acc + float(matrix[0, 0])


def reference_s() -> float:
    """Host seconds of one call of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def gauge(pass_s: float) -> list[float]:
    """Kernel times after a pass that took ``pass_s``: about ``SHARE`` of it, at least one."""
    return [reference_s() for _ in range(max(1, round(SHARE * pass_s / REF_S)))]
