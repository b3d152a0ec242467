"""Declarative experiment registry: typed specs, presets and registration.

Every experiment in :mod:`repro.experiments` is described by an
:class:`ExperimentSpec`: a frozen record holding the experiment's name,
description, typed ``Config`` dataclass, ``smoke``/``quick``/``full``
presets, classification tags and the implementation function.  Specs are
created with the :func:`experiment` decorator::

    @dataclass(frozen=True)
    class Config:
        n_trials: int = 100
        seed: int = 7

    @experiment(
        name="my_experiment",
        description="what the experiment shows",
        config=Config,
        presets={"smoke": {"n_trials": 5}, "quick": {"n_trials": 20}, "full": {}},
        tags=("phy",),
    )
    def _run(config: Config) -> ExperimentResult:
        ...

Registration validates the spec eagerly — the name must be unique, all
three standard presets must be present, and every preset must instantiate
a valid ``Config`` — so a broken experiment definition fails at import
time, not at the end of a long run.

The registry is the single source of truth consumed by the runner
(:mod:`repro.experiments.runner`), the CLI
(``python -m repro.experiments``), the generated ``EXPERIMENTS.md``
(:mod:`repro.experiments.docs`) and the benchmark harness in
``benchmarks/``.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import typing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

from repro.experiments.common import ExperimentResult, collect_provenance

__all__ = [
    "PRESETS",
    "ExperimentSpec",
    "experiment",
    "get",
    "names",
    "specs",
    "specs_by_tag",
    "all_tags",
    "load_all",
    "config_to_jsonable",
    "coerce_field",
    "coerce_sweep_values",
    "parse_overrides",
]

#: The three standard presets every experiment must define.  ``full`` is the
#: paper-scale workload, ``quick`` regenerates the figure's shape in well
#: under a second, ``smoke`` is the smallest end-to-end run used by CI.
PRESETS = ("smoke", "quick", "full")

#: Modules that register experiments; imported by :func:`load_all`.
_EXPERIMENT_MODULES = (
    "repro.experiments.fig12_sync_error",
    "repro.experiments.fig13_cp_reduction",
    "repro.experiments.fig14_delay_spread",
    "repro.experiments.fig15_power_gains",
    "repro.experiments.fig16_frequency_diversity",
    "repro.experiments.fig17_lasthop",
    "repro.experiments.fig18_opportunistic",
    "repro.experiments.fig19_traffic_load",
    "repro.experiments.fig20_link_dynamics",
    "repro.experiments.overhead",
    "repro.experiments.ablation_combining",
    "repro.experiments.ablation_slope",
)

#: Central name -> spec mapping.  Mutated only by :func:`experiment`.
_REGISTRY: dict[str, "ExperimentSpec"] = {}


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of a config value to JSON-compatible types."""
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def config_to_jsonable(config: Any) -> dict[str, Any]:
    """Flatten a ``Config`` dataclass instance into a JSON-compatible dict."""
    if not dataclasses.is_dataclass(config):
        raise TypeError(f"expected a Config dataclass instance, got {type(config).__name__}")
    return {f.name: _jsonable(getattr(config, f.name)) for f in dataclasses.fields(config)}


_SIMPLE_TYPES = (bool, int, float, str)


@lru_cache(maxsize=None)
def _summary_key_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a summary-key pattern: ``{placeholder}`` matches one value.

    Placeholders stand for configuration-derived segments (a bit rate, an
    SNR regime name); everything else matches literally.
    """
    parts = re.split(r"\{[a-zA-Z_][a-zA-Z0-9_]*\}", pattern)
    return re.compile("[A-Za-z0-9.+-]+".join(re.escape(part) for part in parts))


def _coerce_scalar(text: str, target: type) -> Any:
    """Parse one CLI token as ``target`` (one of bool/int/float/str)."""
    if target is bool:
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if target is int:
        return int(text)
    if target is float:
        return float(text)
    if target is str:
        return text
    raise ValueError(f"field type {target!r} is not settable from the command line")


def coerce_field(config_cls: type, key: str, text: str) -> Any:
    """Coerce the CLI string ``text`` to the declared type of ``key``.

    Supports the scalar types bool/int/float/str and homogeneous
    ``tuple[X, ...]`` fields (comma-separated on the command line).
    Structured fields such as ``params`` must be set programmatically.
    """
    hints = typing.get_type_hints(config_cls)
    if key not in hints:
        known = sorted(f.name for f in dataclasses.fields(config_cls))
        raise ValueError(f"unknown config field {key!r} for {config_cls.__qualname__}; known: {known}")
    hint = hints[key]
    origin = typing.get_origin(hint)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis and args[0] in _SIMPLE_TYPES:
            if not text.strip():
                return ()
            return tuple(_coerce_scalar(part, args[0]) for part in text.split(","))
        raise ValueError(f"field {key!r} has unsupported tuple type {hint!r}")
    if hint in _SIMPLE_TYPES:
        return _coerce_scalar(text, hint)
    raise ValueError(
        f"field {key!r} of type {hint!r} is not settable from the command line; "
        "construct the Config programmatically instead"
    )


def coerce_sweep_values(config_cls: type, key: str, text: str) -> list[Any]:
    """Parse one ``--sweep key=v1,v2,...`` token into a list of grid values.

    For scalar fields each comma-separated token is one grid value; for
    tuple-typed fields the whole token is a single tuple value (pass the
    flag repeatedly to sweep tuples).
    """
    hints = typing.get_type_hints(config_cls)
    if key in hints and typing.get_origin(hints[key]) is tuple:
        return [coerce_field(config_cls, key, text)]
    return [coerce_field(config_cls, key, part) for part in text.split(",")]


def parse_overrides(config_cls: type, pairs: Iterable[str]) -> dict[str, Any]:
    """Parse ``key=value`` CLI tokens into typed config overrides."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        overrides[key.strip()] = coerce_field(config_cls, key.strip(), text)
    return overrides


@dataclass(frozen=True)
class ExperimentSpec:
    """Immutable description of one registered experiment.

    Attributes
    ----------
    name:
        Unique registry key, e.g. ``"fig12"``.
    description:
        One-line summary of what the experiment reproduces.
    config_cls:
        Frozen dataclass of typed, validated parameters.  Instantiating it
        runs the experiment's field validation.
    fn:
        Implementation: ``fn(config) -> ExperimentResult``.
    presets:
        Mapping of preset name to config-field overrides.  Must contain all
        of :data:`PRESETS`; ``full`` conventionally maps to ``{}`` or to
        explicit paper-scale values.
    tags:
        Classification labels (``phy``, ``mac``, ``routing``, ...) used by
        ``--tag`` filters.
    summary_keys:
        Documentation of the scalar ``summary`` keys the experiment's
        artifacts carry: mapping of key *pattern* to a one-line description.
        Patterns may contain ``{placeholder}`` segments for keys that are
        generated per configuration value (e.g. ``exor_over_single_{rate}mbps``);
        :meth:`documents_summary_key` matches a concrete key against them,
        and the smoke tests assert every produced key is documented.
    """

    name: str
    description: str
    config_cls: type
    fn: Callable[[Any], ExperimentResult]
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    summary_keys: Mapping[str, str] = field(default_factory=dict)

    @property
    def batched(self) -> bool:
        """Whether the config has a ``batched`` field.

        Such experiments run their Monte-Carlo core as lockstep lanes on
        :mod:`repro.engine` (the joint-frame lanes of
        :mod:`repro.core.ensemble`, the routing and downlink lanes of
        :mod:`repro.routing.ensemble`, or lanes of their own); the config's
        ``batched=False`` switches to the sequential oracle path, with
        bit-identical seeded results.
        """
        return any(f.name == "batched" for f in dataclasses.fields(self.config_cls))

    def documents_summary_key(self, key: str) -> bool:
        """True when ``key`` matches one of the declared summary-key patterns."""
        return any(_summary_key_regex(pattern).fullmatch(key) for pattern in self.summary_keys)

    def make_config(self, preset: str = "quick", overrides: Mapping[str, Any] | None = None) -> Any:
        """Instantiate the config for ``preset`` with optional field overrides."""
        if preset not in self.presets:
            raise ValueError(
                f"unknown preset {preset!r} for experiment {self.name!r}; "
                f"known: {sorted(self.presets)}"
            )
        kwargs = dict(self.presets[preset])
        if overrides:
            known = {f.name for f in dataclasses.fields(self.config_cls)}
            unknown = sorted(set(overrides) - known)
            if unknown:
                raise ValueError(
                    f"unknown config fields {unknown} for experiment {self.name!r}; "
                    f"known: {sorted(known)}"
                )
            kwargs.update(overrides)
        return self.config_cls(**kwargs)

    def run(self, config: Any = None) -> ExperimentResult:
        """Run the experiment and attach config + provenance to the result.

        ``config`` defaults to the ``quick`` preset.
        """
        if config is None:
            config = self.make_config("quick")
        if not isinstance(config, self.config_cls):
            raise TypeError(
                f"experiment {self.name!r} expects a {self.config_cls.__qualname__}, "
                f"got {type(config).__name__}"
            )
        result = self.fn(config)
        result.config = config_to_jsonable(config)
        result.provenance = {
            "experiment": self.name,
            "seed": getattr(config, "seed", None),
            **collect_provenance(),
        }
        return result

    def parse_overrides(self, pairs: Iterable[str]) -> dict[str, Any]:
        """Parse ``key=value`` CLI tokens against this experiment's config."""
        return parse_overrides(self.config_cls, pairs)

    def cli_example(self, preset: str = "quick") -> str:
        """The CLI one-liner that runs this experiment."""
        return f"python -m repro.experiments run {self.name} --preset {preset}"


def experiment(
    *,
    name: str,
    description: str,
    config: type,
    presets: Mapping[str, Mapping[str, Any]],
    tags: Iterable[str] = (),
    summary_keys: Mapping[str, str] | None = None,
) -> Callable[[Callable[[Any], ExperimentResult]], Callable[[Any], ExperimentResult]]:
    """Register the decorated ``fn(config) -> ExperimentResult`` function.

    Returns the function unchanged with the created spec attached as
    ``fn.spec``.  Raises :class:`ValueError` at import time for duplicate
    names, missing standard presets, or presets that do not produce a valid
    config.
    """
    if not name:
        raise ValueError("experiment name must be non-empty")
    if not dataclasses.is_dataclass(config) or not isinstance(config, type):
        raise TypeError(f"config for experiment {name!r} must be a dataclass type")
    missing = [p for p in PRESETS if p not in presets]
    if missing:
        raise ValueError(f"experiment {name!r} is missing required presets {missing}")

    def register(fn: Callable[[Any], ExperimentResult]) -> Callable[[Any], ExperimentResult]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} is already registered")
        spec = ExperimentSpec(
            name=name,
            description=description,
            config_cls=config,
            fn=fn,
            presets={k: dict(v) for k, v in presets.items()},
            tags=tuple(tags),
            summary_keys=dict(summary_keys or {}),
        )
        for preset in spec.presets:
            spec.make_config(preset)  # validates the preset's field values
        _REGISTRY[name] = spec
        fn.spec = spec  # type: ignore[attr-defined]
        return fn

    return register


def get(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(f"unknown experiment {name!r}; known: {sorted(_REGISTRY)}") from exc


def names() -> list[str]:
    """All registered experiment names, in registration order."""
    load_all()
    return list(_REGISTRY)


def specs() -> list[ExperimentSpec]:
    """All registered specs, in registration order."""
    load_all()
    return list(_REGISTRY.values())


def specs_by_tag(tag: str) -> list[ExperimentSpec]:
    """Registered specs carrying ``tag``."""
    return [spec for spec in specs() if tag in spec.tags]


def all_tags() -> list[str]:
    """Sorted union of every registered experiment's tags."""
    return sorted({tag for spec in specs() for tag in spec.tags})


def load_all() -> None:
    """Import every experiment module so their specs are registered.

    Idempotent: modules register on first import only.  Called lazily by the
    registry accessors and eagerly by the package ``__init__``.
    """
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)
