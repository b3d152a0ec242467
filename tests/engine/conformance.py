"""Lane-conformance kit: one harness proving any lane class engine-correct.

Every lockstep lane class in the reproduction registers a :class:`LaneCase`
here (see ``tests/engine/test_engine_conformance.py``), and the parametrized
harness gives it the full engine contract for free.  The lanes live in the
engine modules (:mod:`repro.experiments.batch`, :mod:`repro.core.ensemble`,
:mod:`repro.routing.ensemble`, :mod:`repro.traffic.service`); experiment
modules keep no lanes of their own.  The contract:

* **lockstep-vs-sequential bit-identity** — the lane's lockstep ensemble
  produces the results of running each lane's sequential simulation to
  completion under the same seeds (``compare=None`` demands exact
  equality; measurement-kernel lanes may supply an allclose comparator,
  matching the documented batched-receive ulp caveat);
* **ledger audit** — for workloads whose global draw order is preserved
  (single-lane or single-generator ensembles), the *flattened value
  stream* of every generator draw is identical between the two paths
  (:func:`repro.lint.ledger.compare_runs` reports no value divergence);
* **chained activation** — ``after=`` lanes sharing a generator reproduce
  the back-to-back sequential runs;
* **empty ensemble** — a zero-lane call returns ``[]`` (or preserves the
  engine's documented empty-input behaviour) without consuming entropy;
* **chunking/jobs invariance** — sharded execution converges bit-exactly
  for every chunk width and job count, including non-dividing widths;
* **terminal result** — the scheduler calls every lane's ``result``
  exactly once and reads nothing on the lane (``finished`` included)
  afterwards (:func:`terminal_result_guard`), so lanes may free their
  state there.

A case's optional probes (``chained``, ``empty``, ``chunked``) are
self-asserting callables so engines with different entry-point shapes can
express the checks naturally; ``None`` skips that probe.
"""

from __future__ import annotations

import dataclasses
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.lint.ledger import compare_runs

__all__ = [
    "LaneCase",
    "CASES",
    "register",
    "assert_results_equal",
    "assert_results_close",
    "assert_value_streams_identical",
    "terminal_result_guard",
]


@dataclass(frozen=True)
class LaneCase:
    """One lane class's registration with the conformance harness.

    ``lockstep`` and ``sequential`` run the same seeded workload through
    the engine and through the per-lane sequential oracle; ``compare``
    overrides the default exact-equality check.  ``audit`` is a
    ``(lockstep, sequential)`` pair whose *global* draw order is
    path-independent (a single lane, or lanes chained on one generator) —
    the harness runs both under a draw ledger and demands identical value
    streams.  ``chained`` / ``empty`` / ``chunked`` are self-asserting
    probes; ``None`` skips them.
    """

    name: str
    lockstep: Callable[[], object]
    sequential: Callable[[], object]
    compare: Callable[[object, object], None] | None = None
    audit: "tuple[Callable[[], object], Callable[[], object]] | None" = None
    chained: Callable[[], None] | None = None
    empty: Callable[[], None] | None = None
    chunked: Callable[[], None] | None = None


#: Registry of every lane class's conformance case, keyed by case name.
CASES: dict[str, LaneCase] = {}


def register(case: LaneCase) -> LaneCase:
    """Add ``case`` to the registry (duplicate names are a test bug)."""
    if case.name in CASES:
        raise ValueError(f"duplicate conformance case {case.name!r}")
    CASES[case.name] = case
    return case


def assert_results_equal(a, b, path: str = "result") -> None:
    """Exact structural equality: dataclasses, arrays, containers, scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
        for field in dataclasses.fields(a):
            assert_results_equal(
                getattr(a, field.name), getattr(b, field.name), f"{path}.{field.name}"
            )
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_results_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for key in a:
            assert_results_equal(a[key], b[key], f"{path}[{key}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_results_close(a, b, path: str = "result", rtol: float = 1e-9, atol: float = 1e-12) -> None:
    """Structural equality with allclose floats (batched-kernel ulp caveat).

    Integer, boolean and byte payloads must still match exactly; only
    floating/complex data is compared to ``rtol``/``atol`` — the same
    contract the batched measurement kernels have carried since they were
    introduced (stacked FFT/solve orders differ at the last ulp).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if np.issubdtype(a.dtype, np.inexact) or np.issubdtype(b.dtype, np.inexact):
            np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=path)
        else:
            np.testing.assert_array_equal(a, b, err_msg=path)
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
        for field in dataclasses.fields(a):
            assert_results_close(
                getattr(a, field.name), getattr(b, field.name),
                f"{path}.{field.name}", rtol=rtol, atol=atol,
            )
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_results_close(x, y, f"{path}[{i}]", rtol=rtol, atol=atol)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for key in a:
            assert_results_close(a[key], b[key], f"{path}[{key}]", rtol=rtol, atol=atol)
    elif isinstance(a, float) and isinstance(b, float):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=path)
    elif isinstance(a, complex) and isinstance(b, complex):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_value_streams_identical(run_a: Callable[[], object], run_b: Callable[[], object]) -> None:
    """Both runs draw the exact same flattened value stream (ledger audit).

    Record shapes may differ (one batched block vs many scalar draws), but
    the concatenation of every drawn value must match bit-for-bit — the
    engine-wide definition of a draw-preserving refactor.
    """
    diff = compare_runs(run_a, run_b)
    assert diff.value_divergence is None, (
        f"draw streams diverge at {diff.value_divergence}"
    )


@contextmanager
def terminal_result_guard() -> Iterator[set]:
    """Enforce the terminal-``result`` contract on every scheduled lane.

    While active, any attribute read on a lane whose ``result`` has
    returned raises (a second ``result`` call is such a read), and every
    :meth:`~repro.engine.LockstepScheduler.run` asserts on return that
    each of its lanes had ``result`` called exactly once.  Yields the set
    of lane classes the scheduler ran, for coverage checks.
    """
    from repro.engine import Lane, LockstepScheduler

    results: "weakref.WeakKeyDictionary[Lane, int]" = weakref.WeakKeyDictionary()
    seen: set[type] = set()
    original_run = LockstepScheduler.run

    def guarded_getattribute(lane, name):
        if results.get(lane):
            raise AssertionError(f"{type(lane).__name__}.{name} read after result()")
        value = object.__getattribute__(lane, name)
        if name != "result":
            return value

        def counted_result(*args, **kwargs):
            out = value(*args, **kwargs)
            results[lane] = results.get(lane, 0) + 1
            return out

        return counted_result

    def guarded_run(scheduler, lanes):
        out = original_run(scheduler, lanes)
        for index, lane in enumerate(lanes):
            assert results.get(lane) == 1, (
                f"lane {index} ({type(lane).__name__}): result() called "
                f"{results.get(lane, 0)} times"
            )
            seen.add(type(lane))
        return out

    Lane.__getattribute__ = guarded_getattribute
    LockstepScheduler.run = guarded_run
    try:
        yield seen
    finally:
        del Lane.__getattribute__
        LockstepScheduler.run = original_run
