"""Unit tests for experiment-driver internals."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    _avg_slowdown,
    _mix_names,
    config_from_run,
    constant_rate_interval_for,
    fig9_experiment,
    run_mix,
    tradeoff_sweep,
)
from repro.core.bins import BinSpec
from repro.obs import diag


class TestMixNames:
    def test_adversary_plus_three_victims(self):
        assert _mix_names("gcc", "mcf") == ["gcc", "mcf", "mcf", "mcf"]


class TestAvgSlowdown:
    def test_simple_mean(self):
        assert _avg_slowdown([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)

    def test_skips_dead_cores(self):
        value = _avg_slowdown([0.0, 1.0], [2.0, 2.0])
        assert value == pytest.approx(2.0)

    def test_all_dead_is_infinite(self):
        assert _avg_slowdown([0.0], [2.0]) == float("inf")

    def test_skips_zero_alone(self):
        assert _avg_slowdown([1.0, 1.0], [0.0, 3.0]) == pytest.approx(3.0)


class TestConstantRateInterval:
    SPEC = BinSpec(edges=(4, 8, 16, 32), replenish_period=64)

    def setup_method(self):
        diag.reset()

    def teardown_method(self):
        diag.reset()

    def test_largest_edge_not_exceeding_target(self):
        assert constant_rate_interval_for(self.SPEC, 20.0) == 16
        assert constant_rate_interval_for(self.SPEC, 8.0) == 8
        assert diag.count("analysis.cs_interval_clamped") == 0

    def test_clamps_to_nearest_edge_with_diagnostic(self):
        """When every edge exceeds the target (the program outruns the
        fastest bin), the interval clamps to the nearest edge instead
        of silently falling back — and says so via repro.obs."""
        assert constant_rate_interval_for(self.SPEC, 2.5, context="t") == 4
        events = diag.recent("analysis.cs_interval_clamped")
        assert len(events) == 1
        args = events[0].args_dict
        assert args["context"] == "t"
        assert args["target_interval"] == pytest.approx(2.5)
        assert args["interval"] == 4


class TestTradeoffEstimatorComparability:
    """Regression for the ISSUE-5 anchor bug: every point of the
    trade-off sweep — the no-shaping anchor included — must call the
    MI estimator with one configuration (bias_correction=True)."""

    def test_all_points_use_bias_correction(self, monkeypatch):
        import repro.analysis.experiments as experiments
        import repro.security.mutual_information as mi_module

        calls = []
        real = mi_module.windowed_rate_mi

        def recording(*args, **kwargs):
            calls.append(kwargs.get("bias_correction", False))
            return real(*args, **kwargs)

        # Patch both import sites: the anchor (bound at experiments
        # module import) and the shaped points (late-bound inside the
        # worker task, inline when jobs=1).
        monkeypatch.setattr(mi_module, "windowed_rate_mi", recording)
        monkeypatch.setattr(experiments, "windowed_rate_mi", recording)
        fast = dataclasses.replace(ExperimentDefaults(), accesses=600,
                                   cycles=6000)
        points = tradeoff_sweep("gcc", fast, scales=(0.8,), jobs=1)
        assert len(calls) == len(points)
        assert all(calls), "every MI estimate must be bias-corrected"


class TestDeriveResponseConfig:
    FAST = dataclasses.replace(ExperimentDefaults(), accesses=800,
                               cycles=8000)

    def _baseline(self):
        return run_mix(_mix_names("gcc", "astar"), self.FAST)

    def test_rate_scale_shrinks_budget(self):
        report = self._baseline()
        hist = report.core(0).response_intrinsic
        full = config_from_run(hist, report.cycles_run, self.FAST.spec,
                               scale=1.0)
        tight = config_from_run(hist, report.cycles_run, self.FAST.spec,
                                scale=0.5)
        assert tight.total_credits < full.total_credits

    def test_valid_configuration(self):
        report = self._baseline()
        config = config_from_run(
            report.core(0).response_intrinsic, report.cycles_run,
            self.FAST.spec,
        )
        assert config.num_bins == 10
        assert config.total_credits >= 1


class TestFig9Shape:
    def test_returns_both_curves(self):
        fast = dataclasses.replace(ExperimentDefaults(), accesses=800,
                                   cycles=8000)
        result = fig9_experiment("gcc", fast)
        assert set(result) == {
            "frfcfs_difference", "camouflage_difference", "baseline_total"
        }
        assert isinstance(result["frfcfs_difference"], np.ndarray)
        assert result["baseline_total"] > 0
