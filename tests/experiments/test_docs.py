"""EXPERIMENTS.md and docs/experiments/ are generated and must stay in sync."""

import pytest

from repro.experiments import registry
from repro.experiments.docs import (
    DEFAULT_DOC_PATH,
    DEFAULT_PAGES_DIR,
    render_experiment_page,
    render_markdown,
    render_pages,
)


def test_experiments_md_exists_and_is_in_sync():
    assert DEFAULT_DOC_PATH.exists(), "run `python -m repro.experiments docs`"
    assert DEFAULT_DOC_PATH.read_text() == render_markdown(), (
        "EXPERIMENTS.md is out of date; regenerate with `python -m repro.experiments docs`"
    )


def test_rendered_doc_covers_every_experiment():
    content = render_markdown()
    for spec in registry.specs():
        assert f"## {spec.name}" in content
        assert spec.cli_example() in content
        assert f"docs/experiments/{spec.name}.md" in content


def test_experiment_pages_exist_and_are_in_sync():
    """Every registered experiment has an up-to-date generated page."""
    for name, content in render_pages().items():
        page = DEFAULT_PAGES_DIR / name
        assert page.exists(), f"run `python -m repro.experiments docs` ({name} missing)"
        assert page.read_text() == content, (
            f"docs/experiments/{name} is out of date; regenerate with "
            "`python -m repro.experiments docs`"
        )


def test_no_stale_experiment_pages():
    """The pages directory holds exactly one page per registered experiment."""
    expected = {f"{spec.name}.md" for spec in registry.specs()}
    actual = {path.name for path in DEFAULT_PAGES_DIR.glob("*.md")}
    assert actual == expected


def test_pages_cover_config_presets_summary_and_artifact():
    """Each page documents the four reference sections the CLI promises."""
    for spec in registry.specs():
        page = render_experiment_page(spec)
        assert "## Config" in page
        assert "## Presets" in page
        assert "## Summary keys" in page
        assert "## Artifact schema" in page
        # every config field appears in the field table
        import dataclasses

        for field in dataclasses.fields(spec.config_cls):
            assert f"`{field.name}`" in page
        # every documented summary-key pattern appears
        for pattern in spec.summary_keys:
            assert f"`{pattern}`" in page


def test_summary_key_patterns_match_generated_keys():
    """Placeholder patterns recognise the keys experiments really emit."""
    fig18 = registry.get("fig18")
    assert fig18.documents_summary_key("exor_over_single_12mbps")
    assert fig18.documents_summary_key("sourcesync_over_single_7.5mbps")
    assert not fig18.documents_summary_key("exor_over_single_")
    assert not fig18.documents_summary_key("unknown_key")
    fig16 = registry.get("fig16")
    assert fig16.documents_summary_key("high_gain_db")
    assert not fig16.documents_summary_key("gain_db")


def test_no_config_accepts_batched():
    """Every experiment has one execution path: no config has a ``batched`` switch."""
    for spec in registry.specs():
        with pytest.raises(ValueError, match="unknown config fields"):
            spec.make_config("smoke", {"batched": False})
