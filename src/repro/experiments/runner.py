"""Registry-driven experiment runner: selection, validation, fault tolerance.

``run_all`` resolves experiment names (or ``--tag`` filters) against the
central registry (:mod:`repro.experiments.registry`), validates *every*
requested name, preset and config override up front — one
:class:`ValueError` lists every unknown name, instead of a partial run
failing midway — and then executes the selected experiments sequentially
or across supervised worker processes (``jobs > 1``).  Execution always
follows **registry order** regardless of the order names are passed in;
duplicate names are rejected.  Every experiment seeds its own RNGs from
its config, so parallel and sequential execution produce identical
results.

``sweep`` expands ``field=value`` grids into the cartesian product of
configs for one experiment; ``run_sweep`` is the fault-tolerant engine
behind the CLI's ``sweep`` command: grid cells run under a supervised
scheduler (:mod:`repro.experiments.supervisor`) with per-cell
timeout/retry/backoff, completed cells land in a content-addressed
artifact cache (:mod:`repro.experiments.cache`), terminal cell states are
journalled to a JSONL run manifest, and an interrupted or partially
failed run can be resumed with ``sweep --resume`` — converging to the
bit-identical artifacts of an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.experiments import registry
from repro.experiments.cache import CACHE_DIR_NAME, ArtifactCache, cache_key
from repro.experiments.common import ExperimentResult
from repro.experiments.supervisor import (
    CellOutcome,
    Job,
    RetryPolicy,
    RunManifest,
    SweepFailure,
    failure_report,
    run_supervised,
)

__all__ = [
    "run_all",
    "run_experiment",
    "sweep",
    "run_sweep",
    "SweepPoint",
    "SweepRun",
    "slugify_label",
    "sweep_definition_from_manifest",
]


def run_experiment(
    name: str,
    preset: str = "quick",
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentResult:
    """Run a single experiment by name at the given preset."""
    spec = registry.get(name)
    return spec.run(spec.make_config(preset, overrides))


def _resolve_names(
    names: Sequence[str] | None,
    tags: Iterable[str] | None = None,
) -> list[str]:
    """Requested names in registry order, validated up front.

    Unknown names are collected and reported in a single ``ValueError`` so a
    typo in the last of ten names is caught before the first experiment runs.
    Duplicate names are an error too — each experiment runs exactly once and
    execution follows registry order, so a silently deduplicated or
    reordered request would not do what it looks like it does.
    """
    known = registry.names()
    if names is None:
        selected = list(known)
    else:
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(
                f"unknown experiments {unknown}; known: {sorted(known)}"
            )
        duplicates = sorted(n for n, count in Counter(names).items() if count > 1)
        if duplicates:
            raise ValueError(
                f"duplicate experiment names {duplicates}; each experiment runs "
                "once, in registry order"
            )
        selected = [n for n in known if n in set(names)]
    if tags:
        wanted = set(tags)
        unknown_tags = sorted(wanted - set(registry.all_tags()))
        if unknown_tags:
            raise ValueError(
                f"unknown tags {unknown_tags}; known: {registry.all_tags()}"
            )
        selected = [n for n in selected if wanted & set(registry.get(n).tags)]
    return selected


def _run_job(job: tuple[str, str, dict[str, Any] | None]) -> ExperimentResult:
    """In-process entry point: run one (name, preset, overrides) job."""
    name, preset, overrides = job
    spec = registry.get(name)
    return spec.run(spec.make_config(preset, overrides))


def _execute(
    jobs: list[tuple[str, str, dict[str, Any] | None]],
    n_jobs: int,
    policy: RetryPolicy | None = None,
) -> list[ExperimentResult]:
    """Run jobs in-process or under the supervised scheduler, preserving order.

    ``n_jobs == 1`` with no policy runs in-process (exceptions propagate
    unchanged); otherwise the jobs run on supervised worker processes —
    per-cell timeout/retry per ``policy``, crash-isolated, raising
    :class:`repro.experiments.supervisor.SweepFailure` on permanent
    failure.
    """
    if n_jobs < 1:
        raise ValueError("jobs must be >= 1")
    if policy is None and (n_jobs == 1 or len(jobs) <= 1):
        return [_run_job(job) for job in jobs]
    supervised = [
        Job(cell=index, name=name, preset=preset, overrides=overrides)
        for index, (name, preset, overrides) in enumerate(jobs)
    ]
    outcomes = run_supervised(
        supervised,
        workers=min(n_jobs, len(jobs)),
        policy=policy,
    )
    return [outcome.result for outcome in outcomes]


def run_all(
    names: Sequence[str] | None = None,
    preset: str = "quick",
    overrides: Mapping[str, Any] | None = None,
    jobs: int = 1,
    tags: Iterable[str] | None = None,
) -> dict[str, ExperimentResult]:
    """Run all (or selected) experiments and return their results by name.

    Experiments execute in **registry order** (the order ``list`` prints),
    not the order of ``names``; duplicates in ``names`` raise.
    ``overrides`` apply to every selected experiment; a field unknown to any
    selected experiment's config raises before anything runs.  With
    ``jobs > 1`` the experiments run across supervised worker processes.
    """
    selected = _resolve_names(names, tags)
    job_list: list[tuple[str, str, dict[str, Any] | None]] = []
    for name in selected:
        spec = registry.get(name)
        spec.make_config(preset, overrides)  # up-front preset/override validation
        job_list.append((name, preset, dict(overrides) if overrides else None))
    results = _execute(job_list, jobs)
    return dict(zip(selected, results))


#: Characters allowed verbatim in an artifact filename label.
_LABEL_SAFE = re.compile(r"[^A-Za-z0-9._=+-]+")

#: Longest label embedded verbatim; longer ones are truncated + hash-suffixed.
_LABEL_MAX_CHARS = 80


def slugify_label(label: str) -> str:
    """Filesystem-safe version of a sweep label, collision-proofed by hash.

    Labels made only of safe characters (letters, digits, ``._=+-``) and at
    most :data:`_LABEL_MAX_CHARS` long pass through unchanged, so ordinary
    sweep filenames stay human-readable.  Anything else — path separators,
    spaces, exotic values, overlong grids — is sanitized and suffixed with
    a 10-hex-digit hash of the *original* label, so two labels that
    sanitize to the same text still get distinct filenames.
    """
    cleaned = _LABEL_SAFE.sub("-", label)
    if cleaned == label and 0 < len(cleaned) <= _LABEL_MAX_CHARS:
        return cleaned
    digest = hashlib.sha256(label.encode()).hexdigest()[:10]
    stem = cleaned[:_LABEL_MAX_CHARS].strip("-.")
    return f"{stem}--{digest}" if stem else f"label--{digest}"


class SweepPoint:
    """One grid point of a parameter sweep: the full overrides and the result.

    ``overrides`` holds the merged fixed + grid fields actually applied to
    the config, so :meth:`label` (and therefore artifact filenames) stays
    unique across sweeps that differ only in their fixed ``--set`` fields.
    """

    __slots__ = ("overrides", "result")

    def __init__(self, overrides: dict[str, Any], result: ExperimentResult):
        self.overrides = overrides
        self.result = result

    def label(self) -> str:
        """Stable ``key=value`` label, e.g. ``"n_trials=8__seed=1"``."""
        return "__".join(f"{k}={v}" for k, v in self.overrides.items())

    def filename_label(self) -> str:
        """The label sanitized for use in artifact filenames (see :func:`slugify_label`)."""
        return slugify_label(self.label())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepPoint({self.label()})"


def _expand_grid(
    spec: "registry.ExperimentSpec",
    grid: Mapping[str, Sequence[Any]],
    preset: str,
    overrides: Mapping[str, Any] | None,
) -> list[dict[str, Any]]:
    """Cartesian-product grid expansion with up-front validation."""
    if not grid:
        raise ValueError("sweep grid must name at least one field")
    keys = list(grid)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    merged_combos = []
    for combo in combos:
        merged = {**(overrides or {}), **combo}
        spec.make_config(preset, merged)  # validate every grid point up front
        merged_combos.append(merged)
    return merged_combos


@dataclass
class SweepRun:
    """Everything a fault-tolerant sweep produced: outcomes, points, report.

    ``outcomes`` has one entry per grid cell in grid order.  ``points``
    narrows to the successful cells (completed or cache-served) as
    :class:`SweepPoint` values — the same shape the legacy :func:`sweep`
    returns.  When ``run_dir`` was given, ``manifest`` and ``cache`` point
    at the journal and artifact store that make the run resumable.
    """

    name: str
    preset: str
    outcomes: list[CellOutcome] = field(default_factory=list)
    manifest: RunManifest | None = None
    cache: ArtifactCache | None = None

    @property
    def points(self) -> list[SweepPoint]:
        """Successful grid points in grid order (failed cells are omitted)."""
        return [
            SweepPoint(dict(outcome.job.overrides or {}), outcome.result)
            for outcome in self.outcomes
            if outcome.result is not None
        ]

    @property
    def failures(self) -> list[CellOutcome]:
        """Cells that permanently failed (empty on a fully successful run)."""
        return [outcome for outcome in self.outcomes if outcome.failed]

    def failure_report(self) -> str:
        """Human-readable summary of the failed cells."""
        return failure_report(self.outcomes)


def run_sweep(
    name: str,
    grid: Mapping[str, Sequence[Any]],
    preset: str = "quick",
    overrides: Mapping[str, Any] | None = None,
    jobs: int = 1,
    *,
    policy: RetryPolicy | None = None,
    run_dir: "str | Path | None" = None,
) -> SweepRun:
    """Run one experiment over a grid under the fault-tolerant engine.

    ``grid`` maps config field names to the values to sweep; ``overrides``
    are fixed fields applied to every point.  With ``run_dir`` set, the
    run is *resumable*: each cell's artifact is stored in a
    content-addressed cache under ``run_dir/cache/`` (keyed by experiment
    name, resolved config, seed and schema/code version) and every
    terminal cell state is appended to ``run_dir/manifest.jsonl`` — re-run
    the same sweep against the same ``run_dir`` and completed cells are
    served from the cache without simulation.

    ``policy`` controls per-cell timeout, retries, backoff and whether a
    permanently failed cell aborts the run
    (:class:`repro.experiments.supervisor.RetryPolicy`).  With
    ``policy.keep_going`` the returned :class:`SweepRun` carries partial
    results plus a failure report instead of raising
    :class:`repro.experiments.supervisor.SweepFailure`.
    """
    spec = registry.get(name)
    merged_combos = _expand_grid(spec, grid, preset, overrides)

    manifest: RunManifest | None = None
    cache: ArtifactCache | None = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        manifest = RunManifest.in_dir(run_dir)
        cache = ArtifactCache(run_dir / CACHE_DIR_NAME)
        manifest.append_header(
            experiment=name, preset=preset,
            grid=grid, fixed=overrides, cells=len(merged_combos),
        )

    job_list = []
    for index, merged in enumerate(merged_combos):
        key = None
        if cache is not None:
            config = registry.config_to_jsonable(spec.make_config(preset, merged))
            key = cache_key(name, config)
        job_list.append(
            Job(
                cell=index, name=name, preset=preset, overrides=merged,
                key=key, label=SweepPoint(merged, None).label(),
            )
        )
    outcomes = run_supervised(
        job_list,
        workers=min(max(jobs, 1), len(job_list)),
        policy=policy,
        cache=cache,
        manifest=manifest,
    )
    return SweepRun(
        name=name, preset=preset, outcomes=outcomes,
        manifest=manifest, cache=cache,
    )


def sweep(
    name: str,
    grid: Mapping[str, Sequence[Any]],
    preset: str = "quick",
    overrides: Mapping[str, Any] | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Run one experiment over the cartesian product of ``grid`` values.

    ``grid`` maps config field names to the values to sweep; ``overrides``
    are fixed fields applied to every point.  Points run process-parallel
    with ``jobs > 1`` and are returned in grid order.  This is the simple
    in-memory path; for timeouts, retries, caching and resumability use
    :func:`run_sweep`.
    """
    spec = registry.get(name)
    merged_combos = _expand_grid(spec, grid, preset, overrides)
    job_list = [(name, preset, merged) for merged in merged_combos]
    results = _execute(job_list, jobs)
    return [SweepPoint(merged, result) for merged, result in zip(merged_combos, results)]


def _coerce_json_overrides(config_cls: type, mapping: Mapping[str, Any]) -> dict[str, Any]:
    """Undo the JSON round-trip of override values (lists back to tuples)."""
    hints = typing.get_type_hints(config_cls)
    coerced: dict[str, Any] = {}
    for key, value in mapping.items():
        hint = hints.get(key)
        if hint is not None and typing.get_origin(hint) is tuple and isinstance(value, list):
            value = tuple(value)
        coerced[key] = value
    return coerced


def sweep_definition_from_manifest(
    manifest: RunManifest,
) -> tuple[str, dict[str, list[Any]], str, dict[str, Any] | None]:
    """Reconstruct (name, grid, preset, fixed overrides) from a run manifest.

    The values pass through a JSON round-trip in the manifest, so
    tuple-typed config fields are restored from lists using the
    experiment's declared field types.  Raises :class:`ValueError` when
    the manifest is missing or has no run-definition header.
    """
    header = manifest.header()
    if header is None:
        raise ValueError(
            f"{manifest.path} has no sweep definition; was this directory "
            "written by `python -m repro.experiments sweep`?"
        )
    name = header["experiment"]
    spec = registry.get(name)
    grid_raw = header.get("grid") or {}
    # Manifest records are written with sorted keys; restore the original
    # axis order (it determines the cartesian-product cell order) from the
    # header's explicit key list when present.
    grid_keys = header.get("grid_keys") or list(grid_raw)
    grid = {
        key: list(
            _coerce_json_overrides(spec.config_cls, {key: value})[key]
            for value in grid_raw[key]
        )
        for key in grid_keys
    }
    fixed_raw = header.get("fixed")
    fixed = _coerce_json_overrides(spec.config_cls, fixed_raw) if fixed_raw else None
    return name, grid, header["preset"], fixed
