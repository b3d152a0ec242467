"""Generate ``EXPERIMENTS.md`` and per-experiment pages from the registry.

Two layers of generated documentation are derived entirely from the
registered :class:`~repro.experiments.registry.ExperimentSpec` objects —
name, description, tags, preset parameters, documented summary keys and a
CLI one-liner per experiment — so neither can drift from the code:

* ``EXPERIMENTS.md`` — the one-page index (registry table plus a compact
  section per experiment);
* ``docs/experiments/<name>.md`` — one reference page per experiment:
  config fields with types and defaults, the preset table, the documented
  ``summary`` keys and the JSON artifact schema.

Regenerate both with::

    python -m repro.experiments docs

and verify in CI with ``--check`` (a tier-1 test does the same comparison,
and the smoke tests assert that every summary key an experiment actually
produces is documented in its spec).
"""

from __future__ import annotations

import dataclasses
import typing
from pathlib import Path
from typing import Any

from repro.experiments import registry
from repro.experiments.common import ARTIFACT_SCHEMA
from repro.experiments.registry import ExperimentSpec, PRESETS

__all__ = [
    "render_markdown",
    "render_experiment_page",
    "render_pages",
    "DEFAULT_DOC_PATH",
    "DEFAULT_PAGES_DIR",
]

def _repo_root() -> Path:
    """The source checkout holding this package, else the current directory.

    Outside a checkout (e.g. an installed package) the document lands in
    the invoking directory rather than inside site-packages; ``--output``
    overrides either way.
    """
    for parent in Path(__file__).resolve().parents:
        if (parent / "setup.py").exists() or (parent / ".git").exists():
            return parent
    return Path.cwd()


#: Repository-root location of the generated document.
DEFAULT_DOC_PATH = _repo_root() / "EXPERIMENTS.md"

#: Directory holding the generated per-experiment reference pages.
DEFAULT_PAGES_DIR = _repo_root() / "docs" / "experiments"

#: Field types shown in the preset tables; structured fields (OFDM params,
#: multipath profiles) are configurable only from Python and listed apart.
_SIMPLE = (bool, int, float, str, tuple)

_HEADER = """\
# Experiments

<!-- Generated by `python -m repro.experiments docs` from the experiment
     registry (src/repro/experiments/registry.py). Do not edit by hand. -->

Every figure and table of the paper's evaluation is a registered
experiment: a typed `Config` dataclass plus `smoke`/`quick`/`full`
presets, looked up by name in `repro.experiments.registry`.

- **smoke** — smallest end-to-end run; CI executes every experiment's
  smoke preset (`pytest -q tests/experiments -k smoke`).
- **quick** — regenerates the figure's shape in well under a second.
- **full** — the paper-scale workload.

Common commands:

```sh
python -m repro.experiments list
python -m repro.experiments run --preset quick --jobs 4
python -m repro.experiments run fig17 --preset full --set n_placements=60
python -m repro.experiments sweep fig14 --sweep n_realizations=100,300,1000
python -m repro.experiments report results/
```

`run` and `sweep` write one JSON artifact per run under `results/`
(config, seed and provenance included); `report` re-prints saved
artifacts without re-simulating, and `compare` diffs two artifacts.

Each experiment also has a generated reference page under
[`docs/experiments/`](docs/experiments/) covering its config fields,
summary keys and artifact schema.
"""


def _fmt(value: Any) -> str:
    """Compact literal for a table cell."""
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    if isinstance(value, float):
        return f"{value:g}"
    return repr(value) if isinstance(value, str) else str(value)


def _field_default(field: dataclasses.Field) -> Any:
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return field.default_factory()  # type: ignore[misc]
    return None


def _preset_table(spec: ExperimentSpec) -> list[str]:
    simple_fields = []
    advanced_fields = []
    for field in dataclasses.fields(spec.config_cls):
        default = _field_default(field)
        (simple_fields if isinstance(default, _SIMPLE) else advanced_fields).append((field.name, default))
    lines = ["| parameter | " + " | ".join(PRESETS) + " |", "|---|" + "---|" * len(PRESETS)]
    for name, default in simple_fields:
        cells = []
        for preset in PRESETS:
            value = spec.presets[preset].get(name, default)
            cell = _fmt(value)
            if name not in spec.presets[preset]:
                cell = f"{cell} (default)" if preset == "full" else cell
            cells.append(cell)
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    if advanced_fields:
        names = ", ".join(f"`{name}`" for name, _ in advanced_fields)
        lines.append("")
        lines.append(f"Python-only parameters (structured types): {names}.")
    return lines


def render_markdown() -> str:
    """The full EXPERIMENTS.md content."""
    parts = [_HEADER, "\n## Registry\n"]
    parts.append("| experiment | tags | description |")
    parts.append("|---|---|---|")
    for spec in registry.specs():
        description = spec.description.replace("|", "\\|")
        parts.append(f"| [`{spec.name}`](#{spec.name}) | {', '.join(spec.tags)} | {description} |")
    for spec in registry.specs():
        parts.append(f"\n## {spec.name}\n")
        parts.append(f"{spec.description}.")
        parts.append("")
        parts.append(f"Tags: {', '.join(spec.tags)}.")
        parts.append(f"Full reference: [docs/experiments/{spec.name}.md](docs/experiments/{spec.name}.md).")
        parts.append("")
        parts.append("```sh")
        parts.append(spec.cli_example())
        parts.append("```")
        parts.append("")
        parts.extend(_preset_table(spec))
    return "\n".join(parts) + "\n"


def _type_label(hint: Any) -> str:
    """Compact rendering of a config field's type annotation."""
    if isinstance(hint, type):
        return hint.__name__
    return str(hint).replace("typing.", "")


def _config_field_table(spec: ExperimentSpec) -> list[str]:
    """Table of every config field: name, type, default and preset overrides."""
    hints = typing.get_type_hints(spec.config_cls)
    lines = ["| field | type | default | overridden by |", "|---|---|---|---|"]
    for field in dataclasses.fields(spec.config_cls):
        default = _field_default(field)
        shown = _fmt(default) if isinstance(default, _SIMPLE) else f"`{type(default).__name__}(...)`"
        overriding = [p for p in PRESETS if field.name in spec.presets[p]]
        lines.append(
            f"| `{field.name}` | `{_type_label(hints.get(field.name, type(default)))}` "
            f"| {shown} | {', '.join(overriding) if overriding else '—'} |"
        )
    return lines


def _summary_key_table(spec: ExperimentSpec) -> list[str]:
    """Table of the documented ``summary`` keys (patterns with placeholders)."""
    if not spec.summary_keys:
        return ["This experiment documents no summary keys yet."]
    lines = ["| summary key | meaning |", "|---|---|"]
    for pattern, meaning in spec.summary_keys.items():
        escaped = meaning.replace("|", "\\|")
        lines.append(f"| `{pattern}` | {escaped} |")
    return lines


def render_experiment_page(spec: ExperimentSpec) -> str:
    """One generated reference page for ``spec``.

    Covers what the one-line EXPERIMENTS.md section cannot: the full typed
    config surface, the documented summary keys of the result artifact, and
    the artifact's JSON layout.
    """
    parts = [
        f"# `{spec.name}` — {spec.description}",
        "",
        "<!-- Generated by `python -m repro.experiments docs` from the experiment",
        "     registry (src/repro/experiments/registry.py). Do not edit by hand. -->",
        "",
        f"Tags: {', '.join(spec.tags)}.",
        "",
        "## Running it",
        "",
        "```sh",
        spec.cli_example("quick"),
        spec.cli_example("full"),
        f"python -m repro.experiments report results/{spec.name}.json",
        "```",
        "",
        "## Config",
        "",
        f"`{spec.config_cls.__module__}.Config` — frozen dataclass; every field is",
        "overridable with `--set field=value` (scalar and tuple fields) or from Python.",
        "",
        *_config_field_table(spec),
        "",
        "## Presets",
        "",
        *_preset_table(spec),
        "",
        "## Summary keys",
        "",
        "Scalar headline numbers under `summary` in the saved artifact",
        "(`{placeholder}` segments are filled per configuration value):",
        "",
        *_summary_key_table(spec),
        "",
        "## Artifact schema",
        "",
        f"`run` writes `results/{spec.name}.json` (schema version {ARTIFACT_SCHEMA}), with keys:",
        "",
        "| key | contents |",
        "|---|---|",
        f"| `schema` | artifact layout version ({ARTIFACT_SCHEMA}) |",
        f"| `name` / `description` | `{spec.name}` and the one-line description above |",
        "| `series` | equal-length figure columns; numpy arrays are tagged with their dtype and survive the round trip |",
        "| `summary` | the scalar keys documented above |",
        "| `paper_reference` | the paper's reported numbers for side-by-side comparison |",
        "| `config` | JSON snapshot of the exact config the run used |",
        "| `provenance` | seed, package/numpy/python versions and git commit (timestamp-free: identical runs diff clean) |",
        "",
        "Load with `ExperimentResult.load(path)`; diff two artifacts with",
        "`python -m repro.experiments compare a.json b.json` (config, seed and",
        "summary scalars within a relative tolerance).",
    ]
    return "\n".join(parts) + "\n"


def render_pages() -> dict[str, str]:
    """All per-experiment pages: mapping of file name to content."""
    return {f"{spec.name}.md": render_experiment_page(spec) for spec in registry.specs()}
