"""Tests for the experiment harness (tiny workloads; the full runs live in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments import ExperimentResult, format_table, registry
from repro.experiments import (
    ablation_combining,
    ablation_slope,
    fig13_cp_reduction,
    fig14_delay_spread,
    fig17_lasthop,
    fig18_opportunistic,
    overhead,
)
from repro.experiments.runner import run_experiment


class TestResultContainer:
    def test_table_and_report_render(self):
        result = ExperimentResult(
            name="demo",
            description="demo experiment",
            series={"x": [1, 2, 3], "y": [0.1, 0.2, 0.3]},
            summary={"metric": 1.5},
            paper_reference={"claim": "something"},
        )
        assert "demo" in result.report()
        assert "metric" in result.report()
        assert "x" in result.table()

    def test_format_table_empty(self):
        assert format_table({}) == "(empty)"

    def test_format_table_truncates(self):
        text = format_table({"x": list(range(100))}, max_rows=5)
        assert "more rows" in text


class TestOverheadExperiment:
    def test_matches_paper_ballpark(self):
        result = overhead.SPEC.run(overhead.Config())
        two = result.summary["two_senders_percent"]
        five = result.summary["five_senders_percent"]
        assert 1.0 < two < 3.0  # paper: 1.7 %
        assert two < five < 7.0  # paper: 2.8 % (1 us symbols); ours uses 4 us symbols

    def test_overhead_monotone_in_senders(self):
        result = overhead.SPEC.run(overhead.Config(sender_counts=(1, 2, 3, 4, 5)))
        values = result.series["overhead_percent"]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_single_sender_overhead_counts_only_sifs(self):
        assert overhead.overhead_fraction(1) < overhead.overhead_fraction(2)

    def test_invalid_sender_count(self):
        with pytest.raises(ValueError):
            overhead.overhead_fraction(0)


class TestDelaySpreadExperiment:
    def test_significant_taps_close_to_paper(self):
        result = fig14_delay_spread.SPEC.run(fig14_delay_spread.Config(n_realizations=80))
        assert 10 <= result.summary["significant_taps"] <= 18  # paper: ~15

    def test_tap_power_decays(self):
        result = fig14_delay_spread.SPEC.run(fig14_delay_spread.Config(n_realizations=50))
        powers = np.asarray(result.series["tap_power"])
        assert powers[0] > powers[10]

    def test_count_significant_taps_edge_cases(self):
        assert fig14_delay_spread.count_significant_taps(np.array([])) == 0
        assert fig14_delay_spread.count_significant_taps(np.zeros(5)) == 0
        assert fig14_delay_spread.count_significant_taps(np.array([1.0, 0.5, 0.001])) == 2


class TestCombiningAblation:
    def test_alamouti_removes_deep_fades(self):
        result = ablation_combining.SPEC.run(ablation_combining.Config(n_realizations=100))
        assert (
            result.summary["alamouti_deep_fade_fraction"]
            < result.summary["naive_deep_fade_fraction"]
        )

    def test_mean_gain_similar_between_schemes(self):
        # Both schemes deliver the same *average* power; the difference is in
        # the tails, which is the whole point of §6.
        result = ablation_combining.SPEC.run(ablation_combining.Config(n_realizations=150))
        naive_mean, ala_mean = result.series["mean_gain"]
        assert naive_mean == pytest.approx(ala_mean, rel=0.25)


class TestSlopeAblation:
    def test_both_estimators_resolve_delays_to_sub_sample(self):
        config = ablation_slope.Config(n_trials=5, delays_samples=(2.0, 5.0))
        result = ablation_slope.SPEC.run(config)
        windowed, fullband = result.series["median_error_samples"]
        assert windowed < 0.5
        assert fullband < 0.5

    def test_zero_trials_give_empty_error_arrays(self):
        windowed, fullband = ablation_slope.estimation_errors((1.0, 2.0), n_trials=0)
        assert windowed.size == 0 and fullband.size == 0


class TestLinkLevelExperiments:
    def test_fig17_small_run_shows_gain(self):
        config = fig17_lasthop.Config(n_placements=6, n_packets=60, seed=3)
        result = fig17_lasthop.SPEC.run(config)
        assert result.summary["median_gain"] > 1.0
        assert len(result.series["best_ap_mbps"]) == 6

    def test_fig18_small_run_orders_schemes(self):
        config = fig18_opportunistic.Config(
            rates_mbps=(12.0,), n_topologies=6, batch_size=12, seed=4
        )
        result = fig18_opportunistic.SPEC.run(config)
        assert result.summary["sourcesync_over_single_12mbps"] > 1.0
        assert result.summary["exor_over_single_12mbps"] > 0.5

    def test_fig13_sourcesync_needs_less_cp_than_baseline(self):
        config = fig13_cp_reduction.Config(
            cp_values_samples=(0, 4, 8, 16, 24, 32), n_frames=1, seed=2
        )
        result = fig13_cp_reduction.SPEC.run(config)
        ss = result.summary["sourcesync_cp_for_95pct_peak_ns"]
        base = result.summary["baseline_cp_for_95pct_peak_ns"]
        assert np.isfinite(ss) and np.isfinite(base)
        assert ss <= base


class TestRunner:
    def test_registry_contains_every_figure(self):
        for name in (
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19_traffic_load", "fig20_link_dynamics",
            "overhead", "ablation_combining", "ablation_slope",
        ):
            assert name in registry.names()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")
