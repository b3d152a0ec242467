"""RNG draw-ledger auditor: localise the first divergent draw.

The equivalence tests assert that lockstep, sequential, chunked and
resumed runs are bit-identical — but when one fails, "arrays differ"
says nothing about *where* the streams forked.  This module turns that
into a one-line localization:

* :class:`RecordingGenerator` is a ``numpy.random.Generator`` subclass
  (so ``isinstance`` checks and ``default_rng(generator)`` passthrough
  keep working) that appends one :class:`DrawRecord` per draw — method,
  argument summary, output shape/digest and the *consumer*: the first
  stack frame outside this module, i.e. the library line that asked for
  the randomness.
* :class:`DrawAudit` patches ``np.random.default_rng`` for the duration
  of a ``with`` block, so every generator an experiment mints internally
  (root seeds, ``SeedSequence.spawn`` children, per-lane streams)
  records into one shared append-only :class:`DrawLedger`.
* :func:`first_divergence` compares two ledgers draw-by-draw (for runs
  with the same call structure, e.g. an injected extra draw);
  :func:`first_value_divergence` compares the concatenated *value
  streams* instead, so a lockstep run (one size-N draw) and a sequential
  run (N size-1 draws) can be aligned even though their call shapes
  differ, and the first divergent value is mapped back to the consuming
  draw on each side.
* :func:`compare_runs` packages the whole workflow: run two callables
  (e.g. a lockstep ensemble and its sequential reference loop) under
  separate audits and report both divergence views.

Typical use, with ``make_lanes`` building fresh seeded
:class:`~repro.routing.ensemble.ExorLane` objects on every call and the
reference loops of ``tests/routing/reference_mesh.py``::

    from repro.lint.ledger import compare_runs
    from repro.routing.ensemble import simulate_exor_ensemble
    from tests.routing.reference_mesh import exor_lanes_in_sequence

    diff = compare_runs(
        lambda: simulate_exor_ensemble(make_lanes()),
        lambda: exor_lanes_in_sequence(make_lanes()),
    )
    print(diff.report())   # names the first divergent draw and its stack site
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "DrawRecord",
    "DrawLedger",
    "RecordingGenerator",
    "DrawAudit",
    "audit_run",
    "Divergence",
    "first_divergence",
    "first_value_divergence",
    "LedgerDiff",
    "compare_runs",
]

#: ``numpy.random.Generator`` methods that consume the stream.  Methods a
#: given numpy version does not provide are skipped at class-build time.
_DRAW_METHODS = (
    "random",
    "integers",
    "choice",
    "bytes",
    "shuffle",
    "permutation",
    "permuted",
    "normal",
    "standard_normal",
    "uniform",
    "exponential",
    "standard_exponential",
    "poisson",
    "binomial",
    "geometric",
    "gamma",
    "standard_gamma",
    "beta",
    "chisquare",
    "dirichlet",
    "multinomial",
    "multivariate_normal",
    "lognormal",
    "laplace",
    "logistic",
    "gumbel",
    "pareto",
    "rayleigh",
    "standard_cauchy",
    "standard_t",
    "triangular",
    "vonmises",
    "wald",
    "weibull",
    "zipf",
)

_THIS_FILE = str(Path(__file__).resolve())
#: Frame filenames can be relative (they are baked in at compile time, so
#: a module first imported through a relative ``sys.path`` entry keeps the
#: relative spelling) — match this module by suffix as well.
_THIS_FILE_SUFFIX = "/".join(("repro", "lint", "ledger.py"))


def _consumer_site() -> str:
    """``path:lineno (function)`` of the innermost frame outside this module."""
    for frame in reversed(traceback.extract_stack()):
        if frame.filename == _THIS_FILE or frame.filename.replace("\\", "/").endswith(
            _THIS_FILE_SUFFIX
        ):
            continue
        path = frame.filename
        try:
            path = str(Path(path).resolve().relative_to(Path.cwd()))
        except ValueError:
            pass
        return f"{path}:{frame.lineno} ({frame.name})"
    return "<unknown>"


def _summarise_args(args: tuple, kwargs: dict) -> str:
    """Compact, stable rendering of a draw call's arguments."""
    parts = [repr(a) if not isinstance(a, np.ndarray) else f"array{a.shape}" for a in args]
    parts += [
        f"{k}={v!r}" if not isinstance(v, np.ndarray) else f"{k}=array{v.shape}"
        for k, v in sorted(kwargs.items())
    ]
    text = ", ".join(parts)
    return text if len(text) <= 80 else text[:77] + "..."


@dataclass(frozen=True)
class DrawRecord:
    """One recorded RNG draw.

    Attributes
    ----------
    index:
        Position in the ledger (0-based, append order).
    method:
        Generator method name (``"normal"``, ``"integers"``, ...).
    args:
        Compact rendering of the call arguments (``"size=(3, 2)"``).
    shape:
        Shape of the returned array (``()`` for scalars, ``None`` for
        in-place methods like ``shuffle``).
    n_values:
        Number of scalar values the draw produced.
    digest:
        Short blake2b digest of the raw output bytes — two draws with the
        same digest produced bit-identical output.
    consumer:
        ``path:lineno (function)`` of the code that asked for the draw.
    values:
        Flattened ``float64`` copy of the output when the ledger stores
        values (needed for cross-chunking stream alignment), else None.
    """

    index: int
    method: str
    args: str
    shape: "tuple[int, ...] | None"
    n_values: int
    digest: str
    consumer: str
    values: "np.ndarray | None" = None

    def describe(self) -> str:
        """One-line human rendering: ``draw #i method(args) -> shape @ site``."""
        shape = "in-place" if self.shape is None else f"shape {self.shape}"
        return f"draw #{self.index} {self.method}({self.args}) -> {shape} at {self.consumer}"


class DrawLedger:
    """Append-only record of every draw made through recording generators."""

    def __init__(self, store_values: bool = True):
        self.store_values = store_values
        self.records: list[DrawRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def record(self, method: str, args: tuple, kwargs: dict, out: Any) -> None:
        """Append one draw (called by :class:`RecordingGenerator`)."""
        if out is None:
            arr = None
        elif isinstance(out, bytes):
            arr = np.frombuffer(out, dtype=np.uint8)
        else:
            arr = np.asarray(out)
        if arr is None:
            shape, n_values, digest, values = None, 0, "-", None
        else:
            shape = tuple(arr.shape)
            n_values = int(arr.size)
            digest = hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=8).hexdigest()
            values = None
            if self.store_values:
                flat = arr.ravel()
                if np.iscomplexobj(flat):
                    values = np.concatenate([flat.real, flat.imag]).astype(np.float64)
                else:
                    values = flat.astype(np.float64, copy=True)
        self.records.append(
            DrawRecord(
                index=len(self.records),
                method=method,
                args=_summarise_args(args, kwargs),
                shape=shape,
                n_values=n_values,
                digest=digest,
                consumer=_consumer_site(),
                values=values,
            )
        )

    def total_values(self) -> int:
        """Total number of scalar values drawn across the whole ledger."""
        return sum(r.n_values for r in self.records)

    def summary(self) -> str:
        """Human summary: draw count, value count, per-method totals."""
        per_method: dict[str, int] = {}
        for record in self.records:
            per_method[record.method] = per_method.get(record.method, 0) + 1
        methods = ", ".join(f"{m}x{c}" for m, c in sorted(per_method.items()))
        return f"{len(self.records)} draws, {self.total_values()} values ({methods})"


def _make_recorded(name: str):
    """Build the recording override for one ``Generator`` draw method."""
    base = getattr(np.random.Generator, name)

    def method(self, *args, **kwargs):
        out = base(self, *args, **kwargs)
        self._ledger.record(name, args, kwargs, out)
        return out

    method.__name__ = name
    method.__qualname__ = f"RecordingGenerator.{name}"
    method.__doc__ = f"Recorded wrapper around ``numpy.random.Generator.{name}``."
    return method


class RecordingGenerator(np.random.Generator):
    """A ``numpy.random.Generator`` that appends every draw to a ledger.

    Being a real ``Generator`` subclass keeps every ``isinstance`` check
    and ``default_rng(existing_generator)`` passthrough in the library
    working; the draws themselves are delegated to the base class, so the
    recorded run is bit-identical to an unrecorded one.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, ledger: DrawLedger):
        super().__init__(bit_generator)
        self._ledger = ledger

    def spawn(self, n_children: int) -> "list[RecordingGenerator]":
        """Spawn child generators that record into the same ledger."""
        children = [
            RecordingGenerator(bg, self._ledger)
            for bg in self.bit_generator.spawn(n_children)
        ]
        self._ledger.record("spawn", (n_children,), {}, None)
        return children


for _name in _DRAW_METHODS:
    if hasattr(np.random.Generator, _name):
        setattr(RecordingGenerator, _name, _make_recorded(_name))
del _name


class DrawAudit:
    """Context manager that routes every ``default_rng`` into one ledger.

    Inside the ``with`` block, ``np.random.default_rng(seed)`` returns a
    :class:`RecordingGenerator` (seeded identically to the generator it
    replaces), so experiments that mint their own generators internally —
    root seeds, spawned children, per-lane streams — are audited without
    any code change.
    """

    def __init__(self, store_values: bool = True):
        self.ledger = DrawLedger(store_values=store_values)
        self._original: Callable[..., np.random.Generator] | None = None

    def generator(self, seed: Any = None) -> RecordingGenerator:
        """A recording generator seeded like ``np.random.default_rng(seed)``."""
        if isinstance(seed, RecordingGenerator):
            return seed
        if isinstance(seed, np.random.Generator):
            return RecordingGenerator(seed.bit_generator, self.ledger)
        if isinstance(seed, np.random.BitGenerator):
            return RecordingGenerator(seed, self.ledger)
        return RecordingGenerator(np.random.PCG64(seed), self.ledger)

    def __enter__(self) -> "DrawAudit":
        self._original = np.random.default_rng

        def _recording_default_rng(seed: Any = None) -> RecordingGenerator:
            return self.generator(seed)

        np.random.default_rng = _recording_default_rng
        return self

    def __exit__(self, *exc_info) -> None:
        if self._original is not None:
            np.random.default_rng = self._original
            self._original = None


def audit_run(
    fn: Callable[..., Any], *args: Any, store_values: bool = True, **kwargs: Any
) -> tuple[Any, DrawLedger]:
    """Run ``fn`` under a :class:`DrawAudit`; return ``(result, ledger)``."""
    with DrawAudit(store_values=store_values) as audit:
        result = fn(*args, **kwargs)
    return result, audit.ledger


@dataclass(frozen=True)
class Divergence:
    """Where two ledgers first disagree.

    ``kind`` is ``"method"``/``"shape"``/``"values"`` for a mismatched
    draw, ``"missing"`` when one ledger is a strict prefix of the other,
    or ``"value-stream"`` for the chunking-independent comparison.
    ``offset`` is only set for value-stream divergences: the index of the
    first differing scalar in the concatenated draw output.
    """

    kind: str
    left: "DrawRecord | None"
    right: "DrawRecord | None"
    offset: "int | None" = None

    def describe(self) -> str:
        """One-line localization of the divergence."""
        if self.kind == "missing":
            present = self.left if self.left is not None else self.right
            side = "left" if self.right is None else "right"
            assert present is not None
            return (
                f"ledgers diverge at draw #{present.index}: only the {side} run has "
                f"{present.method}({present.args}) at {present.consumer}"
            )
        if self.kind == "value-stream":
            assert self.left is not None and self.right is not None
            return (
                f"first divergent value at stream offset {self.offset}: "
                f"left {self.left.describe()} vs right {self.right.describe()}"
            )
        assert self.left is not None and self.right is not None
        return (
            f"ledgers diverge ({self.kind}) at draw #{self.left.index}: "
            f"left {self.left.method}({self.left.args}) at {self.left.consumer} vs "
            f"right {self.right.method}({self.right.args}) at {self.right.consumer}"
        )


def first_divergence(a: DrawLedger, b: DrawLedger) -> "Divergence | None":
    """First draw where two ledgers disagree, aligned record-by-record.

    Use when both runs should make the *same sequence of calls* (e.g. two
    sequential runs, one with an injected extra draw).  Returns None when
    the ledgers are draw-for-draw identical.
    """
    for left, right in zip(a.records, b.records):
        if left.method != right.method:
            return Divergence(kind="method", left=left, right=right)
        if left.shape != right.shape:
            return Divergence(kind="shape", left=left, right=right)
        if left.digest != right.digest:
            return Divergence(kind="values", left=left, right=right)
    if len(a.records) != len(b.records):
        longer, side_left = (a, True) if len(a.records) > len(b.records) else (b, False)
        record = longer.records[min(len(a.records), len(b.records))]
        return Divergence(
            kind="missing",
            left=record if side_left else None,
            right=None if side_left else record,
        )
    return None


def _value_stream(ledger: DrawLedger) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated draw values plus per-record end offsets."""
    chunks = [r.values for r in ledger.records if r.values is not None and r.n_values]
    if not chunks:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    ends = np.cumsum([c.size for c in chunks])
    return np.concatenate(chunks), ends


def _record_at_offset(ledger: DrawLedger, offset: int) -> DrawRecord:
    """The record whose stored values cover the given stream offset."""
    total = 0
    for record in ledger.records:
        if record.values is None or not record.n_values:
            continue
        if offset < total + record.values.size:
            return record
        total += record.values.size
    return ledger.records[-1]


def first_value_divergence(a: DrawLedger, b: DrawLedger) -> "Divergence | None":
    """First divergent *value* across two ledgers, ignoring call chunking.

    A lockstep engine draws once with ``size=N`` where the sequential
    path draws N times with ``size=1``; the records differ but the
    concatenated output stream must not.  Requires both ledgers to have
    been recorded with ``store_values=True``.  Returns None when the
    streams are identical (including equal length).
    """
    stream_a, _ = _value_stream(a)
    stream_b, _ = _value_stream(b)
    n = min(stream_a.size, stream_b.size)
    # np.array_equal treats NaN != NaN; compare bit patterns instead so a
    # deterministic NaN draw does not read as a divergence.
    bits_a = stream_a[:n].view(np.uint64)
    bits_b = stream_b[:n].view(np.uint64)
    mismatch = np.nonzero(bits_a != bits_b)[0]
    if mismatch.size:
        offset = int(mismatch[0])
    elif stream_a.size != stream_b.size:
        offset = n
    else:
        return None
    left = _record_at_offset(a, min(offset, max(stream_a.size - 1, 0)))
    right = _record_at_offset(b, min(offset, max(stream_b.size - 1, 0)))
    return Divergence(kind="value-stream", left=left, right=right, offset=offset)


@dataclass
class LedgerDiff:
    """Result of :func:`compare_runs`: both ledgers plus both divergence views."""

    ledger_a: DrawLedger
    ledger_b: DrawLedger
    record_divergence: "Divergence | None" = None
    value_divergence: "Divergence | None" = None
    result_a: Any = None
    result_b: Any = None

    @property
    def identical(self) -> bool:
        """Whether the two runs consumed bit-identical value streams."""
        return self.value_divergence is None

    def report(self) -> str:
        """Multi-line human report: summaries plus the first divergence."""
        lines = [
            f"run A: {self.ledger_a.summary()}",
            f"run B: {self.ledger_b.summary()}",
        ]
        if self.identical:
            lines.append("value streams are bit-identical")
        else:
            assert self.value_divergence is not None
            lines.append(self.value_divergence.describe())
        if self.record_divergence is not None and not self.identical:
            lines.append(f"(record-aligned view: {self.record_divergence.describe()})")
        return "\n".join(lines)


def compare_runs(
    run_a: Callable[[], Any],
    run_b: Callable[[], Any],
    store_values: bool = True,
) -> LedgerDiff:
    """Audit two runs (e.g. lockstep vs sequential) and localise divergence.

    Each callable runs under its own :class:`DrawAudit`; seed everything
    inside the callables (the audit preserves seeding semantics, so two
    calls of the same seeded function record identical ledgers).
    """
    result_a, ledger_a = audit_run(run_a, store_values=store_values)
    result_b, ledger_b = audit_run(run_b, store_values=store_values)
    return LedgerDiff(
        ledger_a=ledger_a,
        ledger_b=ledger_b,
        record_divergence=first_divergence(ledger_a, ledger_b),
        value_divergence=first_value_divergence(ledger_a, ledger_b),
        result_a=result_a,
        result_b=result_b,
    )
