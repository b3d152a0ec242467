"""Command-line interface for the experiment registry.

``python -m repro.experiments <command>``:

``list``
    Table of every registered experiment (name, tags, description).
``run``
    Run experiments (all, by name, or by ``--tag``) at a preset, optionally
    process-parallel (``--jobs``), with typed ``--set key=value`` config
    overrides; writes one JSON artifact per experiment.
``sweep``
    Run one experiment over a parameter grid (``--sweep key=v1,v2,...``,
    repeatable; cartesian product) under the fault-tolerant sweep engine:
    per-cell ``--timeout``/``--retries`` with exponential backoff, a
    content-addressed artifact cache plus JSONL run manifest in the output
    directory, ``--keep-going`` for partial results instead of aborting,
    and ``--resume DIR`` to continue an interrupted or partially failed
    run (completed cells are cache hits, not re-simulations).
``report``
    Re-print saved JSON artifacts without re-simulating.
``compare``
    Diff two saved artifacts: config, seed and summary scalars (with a
    relative tolerance); exits non-zero when they disagree.
``docs``
    Regenerate ``EXPERIMENTS.md`` from the registry.
``lint``
    Forward to the determinism linter (``python -m repro.lint``); see
    ``docs/LINT.md`` for the rule codes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.experiments import registry
from repro.experiments.common import ExperimentResult, atomic_write_text
from repro.experiments.runner import (
    _resolve_names,
    run_all,
    run_sweep,
    sweep_definition_from_manifest,
)
from repro.experiments.supervisor import RetryPolicy, RunManifest, SweepFailure

__all__ = ["main", "build_parser"]

_DEFAULT_OUTPUT_DIR = "results"


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.experiments`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, sweep and report the paper's registered experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.add_argument("--tag", action="append", default=None, help="only experiments with this tag")

    p_run = sub.add_parser("run", help="run experiments and save JSON artifacts")
    p_run.add_argument("names", nargs="*", help="experiment names (default: all)")
    p_run.add_argument("--preset", default="quick", help="smoke, quick or full (default: quick)")
    p_run.add_argument("--tag", action="append", default=None, help="only experiments with this tag")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, coerced to the field's declared type (repeatable)",
    )
    p_run.add_argument("--jobs", type=int, default=1, help="process-parallel experiments (default: 1)")
    p_run.add_argument(
        "--output-dir",
        default=_DEFAULT_OUTPUT_DIR,
        help=f"directory for per-experiment JSON artifacts (default: {_DEFAULT_OUTPUT_DIR}/)",
    )
    p_run.add_argument("--no-save", action="store_true", help="do not write JSON artifacts")
    p_run.add_argument("--quiet", action="store_true", help="print one summary line per experiment")

    p_sweep = sub.add_parser(
        "sweep", help="run one experiment over a parameter grid (fault-tolerant, resumable)"
    )
    p_sweep.add_argument("name", nargs="?", default=None, help="experiment name (omit with --resume)")
    p_sweep.add_argument(
        "--sweep",
        dest="grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="field and comma-separated values to sweep (repeatable; cartesian product)",
    )
    p_sweep.add_argument("--preset", default="quick", help="base preset for every grid point")
    p_sweep.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="fixed config override applied to every grid point",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="process-parallel grid points")
    p_sweep.add_argument("--output-dir", default=_DEFAULT_OUTPUT_DIR)
    p_sweep.add_argument("--no-save", action="store_true")
    p_sweep.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume the sweep recorded in DIR's manifest: completed cells are "
        "served from the artifact cache, the remainder is (re-)executed",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout; a cell past it is killed and retried",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per cell after a crash/timeout/corrupt artifact (default: 2)",
    )
    p_sweep.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base retry backoff, doubled per attempt with deterministic jitter (default: 0.5)",
    )
    p_sweep.add_argument(
        "--keep-going", action="store_true",
        help="complete the rest of the grid when a cell permanently fails and "
        "report partial results, instead of aborting the sweep",
    )

    p_report = sub.add_parser("report", help="re-print saved JSON artifacts (no simulation)")
    p_report.add_argument("paths", nargs="*", help="artifact files or directories of *.json")
    p_report.add_argument(
        "--sweep",
        metavar="DIR",
        default=None,
        help="aggregate a sweep output directory (manifest + artifact cache) "
        "into one tidy per-cell table instead of re-printing artifacts",
    )
    p_report.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="with --sweep: also save the tidy table as JSON to FILE",
    )

    p_compare = sub.add_parser("compare", help="diff two saved JSON artifacts")
    p_compare.add_argument("baseline", help="baseline artifact file")
    p_compare.add_argument("candidate", help="candidate artifact file")
    p_compare.add_argument(
        "--rtol",
        type=float,
        default=1e-9,
        help="relative tolerance for summary scalars (default: 1e-9)",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism linter (alias for python -m repro.lint)",
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.lint (see python -m repro.lint --help)",
    )

    p_docs = sub.add_parser(
        "docs", help="regenerate EXPERIMENTS.md and docs/experiments/ from the registry"
    )
    p_docs.add_argument("--output", default=None, help="output path (default: EXPERIMENTS.md at repo root)")
    p_docs.add_argument(
        "--pages-dir",
        default=None,
        help="directory for per-experiment pages (default: docs/experiments/ at repo root)",
    )
    p_docs.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any generated file is out of date instead of rewriting",
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.specs()
    if args.tag:
        wanted = set(args.tag)
        specs = [s for s in specs if wanted & set(s.tags)]
    if not specs:
        print("no experiments match", file=sys.stderr)
        return 1
    name_w = max(len(s.name) for s in specs)
    tags_w = max(len(",".join(s.tags)) for s in specs)
    for spec in specs:
        print(f"{spec.name:<{name_w}}  {','.join(spec.tags):<{tags_w}}  {spec.description}")
    return 0


def _print_result(result: ExperimentResult, quiet: bool) -> None:
    if quiet:
        head = ", ".join(f"{k}={v:.4g}" for k, v in list(result.summary.items())[:3])
        print(f"{result.name}: {head}")
    else:
        print(result.report())
        print()


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.names or None
    # Parse --set against every selected experiment so typos and per-field
    # types are reported before anything runs.
    selected = _resolve_names(names, args.tag)
    overrides: dict[str, Any] | None = None
    if args.overrides and selected:
        parsed = [registry.get(n).parse_overrides(args.overrides) for n in selected]
        # One typed override set is applied to every selected experiment, so
        # a field that coerces differently across their configs (e.g. int in
        # one, tuple in another) cannot be expressed in a single run.
        disagreeing = [n for n, p in zip(selected, parsed) if p != parsed[0]]
        if disagreeing:
            raise ValueError(
                f"--set overrides coerce differently for {disagreeing} than for "
                f"{selected[0]!r}; run these experiments separately"
            )
        overrides = parsed[0]
    results = run_all(names, preset=args.preset, overrides=overrides, jobs=args.jobs, tags=args.tag)
    for result in results.values():
        _print_result(result, args.quiet)
    if not args.no_save:
        out = Path(args.output_dir)
        for name, result in results.items():
            path = result.save(out / f"{name}.json")
            print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run (or resume) a grid sweep under the fault-tolerant engine."""
    if args.resume:
        if args.grid or args.overrides:
            raise ValueError(
                "--resume reconstructs the grid from the run manifest; "
                "do not combine it with --sweep/--set"
            )
        out = Path(args.resume)
        name, grid, preset, fixed = sweep_definition_from_manifest(RunManifest.in_dir(out))
        if args.name and args.name != name:
            raise ValueError(
                f"--resume directory records experiment {name!r}, not {args.name!r}"
            )
    else:
        if not args.name:
            raise ValueError("sweep requires an experiment name (or --resume DIR)")
        if not args.grid:
            raise ValueError("sweep requires at least one --sweep KEY=V1,V2,... token")
        name, preset, out = args.name, args.preset, Path(args.output_dir)
        spec = registry.get(name)
        grid = {}
        for token in args.grid:
            key, sep, text = token.partition("=")
            if not sep or not key:
                raise ValueError(f"sweep token {token!r} is not of the form key=v1,v2,...")
            values = registry.coerce_sweep_values(spec.config_cls, key.strip(), text)
            grid.setdefault(key.strip(), []).extend(values)
        fixed = spec.parse_overrides(args.overrides) if args.overrides else None

    policy = RetryPolicy(
        timeout_s=args.timeout,
        retries=max(args.retries, 0),
        backoff_base_s=max(args.backoff, 0.0),
        keep_going=args.keep_going,
    )
    try:
        run = run_sweep(
            name, grid, preset=preset, overrides=fixed, jobs=args.jobs,
            policy=policy, run_dir=None if args.no_save else out,
        )
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("completed cells are recorded; `sweep --resume "
              f"{out}` retries the rest" if not args.no_save else "", file=sys.stderr)
        return 1
    for outcome in run.outcomes:
        label = outcome.job.label or ""
        if outcome.result is not None:
            head = ", ".join(f"{k}={v:.4g}" for k, v in list(outcome.result.summary.items())[:3])
            suffix = " [cached]" if outcome.status == "cached" else ""
            print(f"{name}[{label}]: {head}{suffix}")
        else:
            history = ",".join(attempt.outcome for attempt in outcome.attempts)
            print(f"{name}[{label}]: FAILED ({history})")
    if not args.no_save:
        for point in run.points:
            # Preset-qualified so sweeps of the same grid at different
            # presets do not overwrite each other's artifacts; labels are
            # slugified so exotic override values cannot produce invalid
            # or colliding paths.
            path = point.result.save(out / f"{name}__{preset}__{point.filename_label()}.json")
            print(f"wrote {path}")
    if run.failures:
        print(run.failure_report(), file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.sweep:
        from repro.experiments.aggregate import aggregate_sweep, render_aggregate, save_aggregate

        if args.paths:
            raise ValueError("report --sweep DIR takes no artifact paths")
        table = aggregate_sweep(args.sweep)
        print(render_aggregate(table))
        if args.out:
            path = save_aggregate(table, args.out)
            print(f"wrote {path}")
        return 0
    if args.out:
        raise ValueError("report --out requires --sweep DIR")
    files: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    if not files:
        print("no artifacts found", file=sys.stderr)
        return 1
    for path in files:
        result = ExperimentResult.load(path)
        print(f"[{path}]")
        print(result.report())
        print()
    return 0


def _scalar_differs(a: Any, b: Any, rtol: float) -> bool:
    """True when two summary values disagree beyond the tolerance."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) and math.isnan(b):
            return False
        return not math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return a != b


def _cmd_compare(args: argparse.Namespace) -> int:
    """Diff two artifacts: config, seed and summary scalars with tolerance."""
    baseline = ExperimentResult.load(args.baseline)
    candidate = ExperimentResult.load(args.candidate)
    differences: list[str] = []

    if baseline.name != candidate.name:
        differences.append(f"name: {baseline.name!r} != {candidate.name!r}")
    seed_a = (baseline.provenance or {}).get("seed")
    seed_b = (candidate.provenance or {}).get("seed")
    if seed_a != seed_b:
        differences.append(f"seed: {seed_a!r} != {seed_b!r}")

    config_a, config_b = baseline.config or {}, candidate.config or {}
    for key in sorted(set(config_a) | set(config_b)):
        left, right = config_a.get(key, "<missing>"), config_b.get(key, "<missing>")
        if left != right:
            differences.append(f"config.{key}: {left!r} != {right!r}")

    summary_a, summary_b = baseline.summary or {}, candidate.summary or {}
    for key in sorted(set(summary_a) | set(summary_b)):
        if key not in summary_a or key not in summary_b:
            differences.append(
                f"summary.{key}: only in {'baseline' if key in summary_a else 'candidate'}"
            )
        elif _scalar_differs(summary_a[key], summary_b[key], args.rtol):
            differences.append(f"summary.{key}: {summary_a[key]!r} != {summary_b[key]!r}")

    if differences:
        print(f"{args.baseline} vs {args.candidate}: {len(differences)} difference(s)")
        for line in differences:
            print(f"  {line}")
        return 1
    print(f"{args.baseline} vs {args.candidate}: identical (rtol={args.rtol:g})")
    return 0


def _cmd_docs(args: argparse.Namespace) -> int:
    """Regenerate (or ``--check``) EXPERIMENTS.md and the per-experiment pages."""
    from repro.experiments.docs import (
        DEFAULT_DOC_PATH,
        DEFAULT_PAGES_DIR,
        render_markdown,
        render_pages,
    )

    target = Path(args.output) if args.output else DEFAULT_DOC_PATH
    pages_dir = Path(args.pages_dir) if args.pages_dir else DEFAULT_PAGES_DIR
    expected: dict[Path, str] = {target: render_markdown()}
    pages = render_pages()
    for name, content in pages.items():
        expected[pages_dir / name] = content
    # Pages not generated for any registered experiment are stale — but the
    # index target itself may legitimately live inside the pages directory.
    expected_paths = {path.resolve() for path in expected}
    stale = sorted(
        path
        for path in pages_dir.glob("*.md")
        if path.name not in pages and path.resolve() not in expected_paths
    ) if pages_dir.exists() else []

    if args.check:
        out_of_date = [
            path for path, content in expected.items()
            if not path.exists() or path.read_text() != content
        ]
        for path in out_of_date:
            print(f"{path} is out of date; run `python -m repro.experiments docs`", file=sys.stderr)
        for path in stale:
            print(f"{path} documents no registered experiment; run `python -m repro.experiments docs`", file=sys.stderr)
        if out_of_date or stale:
            return 1
        print(f"{target} and {len(pages)} pages under {pages_dir} are up to date")
        return 0
    for path, content in expected.items():
        atomic_write_text(path, content)
        print(f"wrote {path}")
    for path in stale:
        path.unlink()
        print(f"removed stale {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Forward to the :mod:`repro.lint` command line."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "docs": _cmd_docs,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code instead of raising."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # Forwarded wholesale: argparse's REMAINDER cannot capture leading
        # options (e.g. `lint --list-rules`), so hand the tail straight to
        # the repro.lint parser.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `... report results/ | head`
        return 0
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
