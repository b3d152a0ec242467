"""Tests for the declarative experiment registry and runner subsystem."""

import dataclasses

import pytest

from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import (
    PRESETS,
    coerce_field,
    coerce_sweep_values,
    experiment,
    parse_overrides,
)
from repro.experiments.runner import run_all, run_experiment, sweep


@dataclasses.dataclass(frozen=True)
class _DemoConfig:
    n: int = 3
    scale: float = 1.0
    label: str = "x"
    flag: bool = False
    points: tuple[float, ...] = (1.0, 2.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


_DEMO_PRESETS = {"smoke": {"n": 1}, "quick": {"n": 2}, "full": {}}


def _register_demo(name, presets=None):
    @experiment(
        name=name,
        description="demo experiment",
        config=_DemoConfig,
        presets=presets if presets is not None else _DEMO_PRESETS,
        tags=("demo",),
    )
    def _run(config):
        return ExperimentResult(
            name=name,
            description="demo experiment",
            series={"n": [config.n]},
            summary={"n": float(config.n)},
        )

    return _run


class TestRegistration:
    def test_duplicate_name_rejected(self):
        name = "_test_duplicate"
        _register_demo(name)
        try:
            with pytest.raises(ValueError, match="already registered"):
                _register_demo(name)
        finally:
            registry._REGISTRY.pop(name, None)

    def test_missing_standard_preset_rejected(self):
        with pytest.raises(ValueError, match="missing required presets"):
            _register_demo("_test_missing_preset", presets={"quick": {}})

    def test_invalid_preset_values_rejected_at_registration(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            _register_demo(
                "_test_bad_preset",
                presets={"smoke": {"n": 0}, "quick": {}, "full": {}},
            )
        assert "_test_bad_preset" not in registry._REGISTRY

    def test_decorated_function_keeps_spec_handle(self):
        name = "_test_handle"
        fn = _register_demo(name)
        try:
            assert fn.spec is registry.get(name)
            assert fn.spec.tags == ("demo",)
        finally:
            registry._REGISTRY.pop(name, None)

    def test_all_real_experiments_registered(self):
        expected = {
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19_traffic_load", "fig20_link_dynamics",
            "overhead", "ablation_combining", "ablation_slope",
        }
        assert expected <= set(registry.names())

    def test_every_preset_produces_valid_config(self):
        for spec in registry.specs():
            for preset in PRESETS:
                config = spec.make_config(preset)
                assert isinstance(config, spec.config_cls)

    def test_tags_and_lookup(self):
        assert {"phy", "sync", "mac", "routing", "ablation"} <= set(registry.all_tags())
        assert all("ablation" in s.tags for s in registry.specs_by_tag("ablation"))
        assert len(registry.specs_by_tag("ablation")) == 2
        with pytest.raises(ValueError, match="unknown experiment"):
            registry.get("fig99")


class TestConfigTooling:
    def test_coerce_scalars(self):
        assert coerce_field(_DemoConfig, "n", "7") == 7
        assert coerce_field(_DemoConfig, "scale", "2.5") == 2.5
        assert coerce_field(_DemoConfig, "label", "hello") == "hello"
        assert coerce_field(_DemoConfig, "flag", "true") is True
        assert coerce_field(_DemoConfig, "flag", "0") is False

    def test_coerce_tuple(self):
        assert coerce_field(_DemoConfig, "points", "1,2.5,3") == (1.0, 2.5, 3.0)
        assert coerce_field(_DemoConfig, "points", "") == ()

    def test_coerce_errors(self):
        with pytest.raises(ValueError, match="unknown config field"):
            coerce_field(_DemoConfig, "nope", "1")
        with pytest.raises(ValueError, match="boolean"):
            coerce_field(_DemoConfig, "flag", "maybe")
        from repro.experiments.fig12_sync_error import Config as Fig12Config

        with pytest.raises(ValueError, match="not settable"):
            coerce_field(Fig12Config, "params", "x")

    def test_parse_overrides(self):
        parsed = parse_overrides(_DemoConfig, ["n=4", "points=9,10"])
        assert parsed == {"n": 4, "points": (9.0, 10.0)}
        with pytest.raises(ValueError, match="key=value"):
            parse_overrides(_DemoConfig, ["n"])

    def test_sweep_values_scalar_vs_tuple(self):
        assert coerce_sweep_values(_DemoConfig, "n", "1,2,3") == [1, 2, 3]
        assert coerce_sweep_values(_DemoConfig, "points", "1,2") == [(1.0, 2.0)]

    def test_make_config_rejects_unknown(self):
        spec = registry.get("fig14")
        with pytest.raises(ValueError, match="unknown preset"):
            spec.make_config("gigantic")
        with pytest.raises(ValueError, match="unknown config fields"):
            spec.make_config("quick", {"bogus_field": 1})


class TestSpecRun:
    def test_attaches_config_and_provenance(self):
        spec = registry.get("overhead")
        result = spec.run(spec.make_config("smoke"))
        assert result.config is not None
        assert result.config["sender_counts"] == [1, 2, 3, 4, 5]
        assert result.provenance["experiment"] == "overhead"
        assert "repro_version" in result.provenance
        assert "seed" in result.provenance

    def test_rejects_wrong_config_type(self):
        spec = registry.get("fig14")
        other = registry.get("overhead").make_config("smoke")
        with pytest.raises(TypeError, match="expects a"):
            spec.run(other)

    def test_default_config_is_quick_preset(self):
        spec = registry.get("overhead")
        assert spec.run().summary == spec.run(spec.make_config("quick")).summary


class TestRunner:
    def test_run_experiment_with_preset_and_overrides(self):
        result = run_experiment("fig14", preset="smoke", overrides={"n_realizations": 10})
        assert result.config["n_realizations"] == 10

    def test_run_all_validates_all_names_up_front(self):
        with pytest.raises(ValueError) as excinfo:
            run_all(["fig14", "fig98", "overhead", "fig99"], preset="smoke")
        message = str(excinfo.value)
        assert "fig98" in message and "fig99" in message

    def test_run_all_validates_preset_and_overrides_up_front(self):
        with pytest.raises(ValueError, match="unknown preset"):
            run_all(["fig14"], preset="huge")
        with pytest.raises(ValueError, match="unknown config fields"):
            run_all(["fig14", "overhead"], preset="smoke", overrides={"n_realizations": 5})

    def test_run_all_tag_filter(self):
        results = run_all(preset="smoke", tags=["ablation"])
        assert set(results) == {"ablation_combining", "ablation_slope"}

    def test_run_all_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown tags"):
            run_all(preset="smoke", tags=["routng"])

    def test_parallel_matches_sequential(self):
        names = ["fig14", "overhead", "ablation_combining"]
        sequential = run_all(names, preset="smoke", jobs=1)
        parallel = run_all(names, preset="smoke", jobs=2)
        assert sequential.keys() == parallel.keys()
        for name in names:
            assert sequential[name].summary == parallel[name].summary

    def test_sweep_grid(self):
        points = sweep("overhead", {"payload_bytes": [400, 1460]}, preset="smoke")
        assert [p.overrides["payload_bytes"] for p in points] == [400, 1460]
        assert points[0].label() == "payload_bytes=400"

    def test_sweep_orders_points_by_grid(self):
        points = sweep("overhead", {"payload_bytes": [400, 1460]}, preset="smoke")
        # Shorter packets pay relatively more synchronization overhead.
        assert (
            points[0].result.summary["two_senders_percent"]
            > points[1].result.summary["two_senders_percent"]
        )

    def test_sweep_labels_include_fixed_overrides(self):
        points = sweep(
            "overhead", {"payload_bytes": [400]}, preset="smoke", overrides={"rate_mbps": 6.0}
        )
        assert points[0].label() == "rate_mbps=6.0__payload_bytes=400"

    def test_sweep_validates_grid_up_front(self):
        with pytest.raises(ValueError):
            sweep("overhead", {"payload_bytes": [100, -5]}, preset="smoke")
        with pytest.raises(ValueError, match="at least one field"):
            sweep("overhead", {}, preset="smoke")
