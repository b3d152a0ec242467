"""The determinism rule set (``R001``–``R007``).

Every rule guards one way the bit-identical-replay contract has broken
(or nearly broken) in practice:

``R001`` ``unseeded-default-rng``
    ``np.random.default_rng()`` with no seed — including as a
    ``default_factory`` — silently mints entropy inside library code.
``R002`` ``numpy-global-rng``
    Module-level ``np.random.<fn>()`` draws share one hidden global
    stream across the whole process; any import-order change reshuffles
    every result.
``R003`` ``wallclock-entropy``
    ``random``, ``time.time`` and ``datetime.now`` leak wall-clock /
    process state into results; only explicitly allowed infrastructure
    modules (the sweep supervisor's retry backoff) may use them.
``R004`` ``mutable-config-dataclass``
    Experiment ``*Config`` dataclasses must be ``frozen=True`` so a
    config hash computed at dispatch still describes the run at save
    time (the artifact cache keys on it).
``R005`` ``raw-artifact-write``
    ``open(..., "w")`` / ``write_text`` bypass
    :func:`repro.experiments.common.atomic_write_text`; a crash
    mid-write leaves a truncated artifact for resume to trip over.
``R006`` ``unordered-iteration-rng``
    Iterating a ``set`` (or ``dict.values()``) to feed RNG draws or
    seed spawns makes the draw *order* depend on hash/insertion order
    rather than on the documented canonical order.
``R007`` ``unnamed-product-operand``
    ``x * np.exp(...)`` / ``x * np.conj(...)``: numpy may reuse a large
    unnamed right-hand temporary as the product's output and swap the
    operands, which rounds a complex product differently — so a stacked
    kernel stops matching the same kernel on a stack of one.

The module exposes :data:`DEFAULT_RULES` (one instance of each) and the
allowlist constants the repo-specific rules consult.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Rule, dotted_name

__all__ = [
    "UnseededDefaultRng",
    "NumpyGlobalRng",
    "WallClockEntropy",
    "MutableConfigDataclass",
    "RawArtifactWrite",
    "UnorderedIterationRng",
    "UnnamedProductOperand",
    "DEFAULT_RULES",
    "rules_by_code",
]

#: Spellings of :func:`numpy.random.default_rng` the tree actually uses.
_DEFAULT_RNG_NAMES = frozenset(
    {"np.random.default_rng", "numpy.random.default_rng", "default_rng"}
)

#: ``np.random.<name>`` attributes that construct seeded machinery rather
#: than drawing from the hidden module-level stream.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Wall-clock calls that leak nondeterminism into results.
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Modules allowed to use wall-clock time and :mod:`random`: the sweep
#: supervisor's retry/backoff jitter and the fault-injection clock are
#: operational machinery whose outputs never reach a result artifact.
WALLCLOCK_ALLOWED_MODULES = (
    "repro/experiments/supervisor.py",
    "repro/experiments/faults.py",
)

#: Modules allowed to write files directly — the implementation of
#: ``atomic_write_text`` itself has to perform a raw write somewhere.
WRITE_ALLOWED_MODULES = ("repro/experiments/common.py",)

#: ``Generator`` draw methods plus seed-spawn entry points; a loop body
#: calling any of these consumes the seeded stream.
_RNG_FEED_METHODS = frozenset(
    {
        "normal",
        "standard_normal",
        "uniform",
        "random",
        "integers",
        "choice",
        "permutation",
        "permuted",
        "shuffle",
        "exponential",
        "poisson",
        "binomial",
        "gamma",
        "beta",
        "spawn",
    }
)


class UnseededDefaultRng(Rule):
    """R001: ``np.random.default_rng()`` with no seed in library code."""

    code = "R001"
    name = "unseeded-default-rng"
    description = (
        "unseeded default_rng() mints entropy outside the seed tree; "
        "require an rng (repro.rng.require_rng) or a seed at the public boundary"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag zero-argument ``default_rng`` calls and default factories."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func in _DEFAULT_RNG_NAMES and not node.args and not node.keywords:
                yield (
                    node,
                    "unseeded default_rng() fallback; take an explicit rng/seed "
                    "instead of minting entropy (repro.rng.require_rng)",
                )
            for keyword in node.keywords:
                if keyword.arg == "default_factory":
                    target = dotted_name(keyword.value)
                    if target in _DEFAULT_RNG_NAMES:
                        yield (
                            keyword.value,
                            "default_factory=np.random.default_rng mints an unseeded "
                            "generator per instance; require rng at construction",
                        )


class NumpyGlobalRng(Rule):
    """R002: draws from numpy's hidden module-level RNG state."""

    code = "R002"
    name = "numpy-global-rng"
    description = (
        "np.random.<fn>() draws from one hidden global stream; "
        "use an explicit np.random.Generator"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag ``np.random.<fn>(...)`` calls outside the seeded constructors."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func is None:
                continue
            parts = func.split(".")
            if (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _NUMPY_RANDOM_ALLOWED
            ):
                yield (
                    node,
                    f"np.random.{parts[2]}() uses numpy's global RNG state; "
                    "draw from an explicit Generator instead",
                )


class WallClockEntropy(Rule):
    """R003: ``random`` / ``time.time`` / ``datetime.now`` outside allowed modules."""

    code = "R003"
    name = "wallclock-entropy"
    description = (
        "stdlib random and wall-clock reads make runs irreproducible; "
        "only allowlisted infrastructure modules may use them"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag ``random`` imports and wall-clock call sites."""
        if ctx.module_matches(WALLCLOCK_ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield (
                            node,
                            "stdlib random is process-global and unseeded here; "
                            "use numpy Generators from the experiment seed tree",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield (
                        node,
                        "stdlib random is process-global and unseeded here; "
                        "use numpy Generators from the experiment seed tree",
                    )
            elif isinstance(node, ast.Call):
                func = dotted_name(node.func)
                if func in _WALLCLOCK_CALLS:
                    yield (
                        node,
                        f"{func}() reads the wall clock; results and artifacts "
                        "must be timestamp-free (see collect_provenance)",
                    )


class MutableConfigDataclass(Rule):
    """R004: experiment ``*Config`` dataclasses that are not ``frozen=True``."""

    code = "R004"
    name = "mutable-config-dataclass"
    description = (
        "a mutable Config can drift between dispatch-time hashing and "
        "save-time serialisation; declare @dataclass(frozen=True)"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag non-frozen dataclass decorators on ``*Config`` classes."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Config"):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = dotted_name(target)
                if name is None or name.split(".")[-1] != "dataclass":
                    continue
                frozen = False
                if isinstance(decorator, ast.Call):
                    for keyword in decorator.keywords:
                        if keyword.arg == "frozen":
                            frozen = (
                                isinstance(keyword.value, ast.Constant)
                                and keyword.value.value is True
                            )
                if not frozen:
                    yield (
                        node,
                        f"{node.name} is a non-frozen dataclass; experiment configs "
                        "must be @dataclass(frozen=True)",
                    )


class RawArtifactWrite(Rule):
    """R005: file writes that bypass ``atomic_write_text``."""

    code = "R005"
    name = "raw-artifact-write"
    description = (
        "open(..., 'w') / write_text can leave truncated artifacts on crash; "
        "use repro.experiments.common.atomic_write_text"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag write-mode ``open`` calls and ``write_text``/``write_bytes``."""
        if ctx.module_matches(WRITE_ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # Match the method name alone so receivers the dotted-name
            # resolver cannot follow (e.g. ``Path(p).write_text``) are
            # still caught.
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield (
                    node,
                    f"{node.func.attr}() is not atomic; "
                    "use atomic_write_text so crashes never leave truncated files",
                )
                continue
            func = dotted_name(node.func)
            if func is None or func.split(".")[-1] != "open":
                continue
            mode = None
            for arg in node.args[:2]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if set(arg.value) <= set("rwxabt+U"):
                        mode = arg.value
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    if isinstance(keyword.value, ast.Constant) and isinstance(
                        keyword.value.value, str
                    ):
                        mode = keyword.value.value
            if mode is not None and ("w" in mode or "x" in mode):
                yield (
                    node,
                    f"open(..., {mode!r}) is not atomic; "
                    "use atomic_write_text so crashes never leave truncated files",
                )


def _feeds_rng(body: list[ast.stmt]) -> ast.AST | None:
    """First node in a loop body that consumes a seeded RNG stream, if any."""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func is None:
                continue
            parts = func.split(".")
            if parts[-1] == "default_rng" or parts[-1] in _RNG_FEED_METHODS and len(parts) > 1:
                return node
            if any("rng" in part.lower() for part in parts[:-1]):
                return node
    return None


def _unordered_iterable(node: ast.expr) -> str | None:
    """Describe ``node`` if iterating it has hash/insertion-dependent order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(node, ast.Call):
        func = dotted_name(node.func)
        if func in ("set", "frozenset"):
            return f"{func}(...)"
        if func is not None and func.split(".")[-1] == "values" and not node.args:
            return f"{func}()"
    return None


class UnorderedIterationRng(Rule):
    """R006: set / ``dict.values()`` iteration feeding RNG or seed-spawn calls."""

    code = "R006"
    name = "unordered-iteration-rng"
    description = (
        "iterating a set (or dict.values()) to drive RNG draws ties the draw "
        "order to hash/insertion order; iterate a sorted or canonical sequence"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag ``for x in <set-ish>`` loops whose body draws randomness."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            described = _unordered_iterable(node.iter)
            if described is None:
                continue
            consumer = _feeds_rng(node.body)
            if consumer is not None:
                yield (
                    node,
                    f"loop over {described} feeds an RNG/seed-spawn call; "
                    "iterate a deterministic, documented order instead "
                    "(e.g. sorted(...) or the canonical pair order)",
                )


#: Calls whose result, as the unnamed right operand of ``*``, numpy may
#: elide into the product's output (temporaries over 256 KiB).
_SWAPPABLE_CALLS = frozenset(
    {"np.exp", "numpy.exp", "np.conj", "numpy.conj", "np.conjugate", "numpy.conjugate"}
)


class UnnamedProductOperand(Rule):
    """R007: ``<expr> * np.exp(...)`` / ``np.conj(...)`` with an unnamed right operand."""

    code = "R007"
    name = "unnamed-product-operand"
    description = (
        "an unnamed np.exp/np.conj temporary on the right of * can become the "
        "product's output with the operands swapped, rounding complex products "
        "differently on large stacks; bind it to a name first"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        """Flag products whose right operand is (a subscript of) a swappable call."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Mult):
                continue
            right = node.right
            while isinstance(right, ast.Subscript):
                right = right.value
            if not isinstance(right, ast.Call):
                continue
            func = dotted_name(right.func)
            if func in _SWAPPABLE_CALLS:
                yield (
                    node,
                    f"{func}(...) is an unnamed right operand of *; numpy may reuse it "
                    "as the output and swap the operands, so bind it to a name first",
                )


#: One instance of every rule, in code order — the default rule set the
#: CLI and the pytest gate run.
DEFAULT_RULES = (
    UnseededDefaultRng(),
    NumpyGlobalRng(),
    WallClockEntropy(),
    MutableConfigDataclass(),
    RawArtifactWrite(),
    UnorderedIterationRng(),
    UnnamedProductOperand(),
)


def rules_by_code(codes: "list[str] | None" = None) -> tuple[Rule, ...]:
    """The default rules, optionally restricted to the given ``R0xx`` codes.

    Raises :class:`ValueError` for unknown codes so ``--select R07`` typos
    fail loudly instead of silently linting nothing.
    """
    if codes is None:
        return DEFAULT_RULES
    wanted = {code.upper() for code in codes}
    known = {rule.code for rule in DEFAULT_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(f"unknown rule codes: {sorted(unknown)} (known: {sorted(known)})")
    return tuple(rule for rule in DEFAULT_RULES if rule.code in wanted)
