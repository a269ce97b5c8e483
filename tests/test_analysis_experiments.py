"""Tests for the experiment drivers (fast, reduced-size runs)."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    config_from_histogram,
    config_from_run,
    covert_channel_experiment,
    reqc_speedup_experiment,
    run_alone,
    run_mix,
    staircase_config,
)
from repro.common.errors import ConfigurationError
from repro.core.bins import BinSpec
from repro.core.distribution import InterArrivalHistogram

FAST = dataclasses.replace(
    ExperimentDefaults(), accesses=600, cycles=6000
)


class TestDefaults:
    def test_scaled(self):
        d = ExperimentDefaults().scaled(0.5)
        assert d.accesses == 2000
        assert d.cycles == 20000

    def test_scaled_floors_at_one(self):
        d = ExperimentDefaults().scaled(1e-9)
        assert d.accesses == 1 and d.cycles == 1


class TestConfigDerivation:
    def test_config_from_histogram_total(self):
        hist = InterArrivalHistogram.from_timestamps([0, 4, 8, 12, 16])
        spec = BinSpec()
        config = config_from_histogram(hist, 16 / spec.replenish_period, spec)
        assert config.total_credits == pytest.approx(16, abs=4)

    def test_config_from_histogram_follows_shape(self):
        # All gaps equal 4 → everything lands in bin 2.
        hist = InterArrivalHistogram.from_timestamps(range(0, 100, 4))
        spec = BinSpec()
        config = config_from_histogram(hist, 0.02, spec)
        assert config.credits[2] == config.total_credits

    def test_config_from_histogram_degenerate(self):
        hist = InterArrivalHistogram()  # empty
        spec = BinSpec()
        config = config_from_histogram(hist, 1 / 64, spec)
        assert config.total_credits >= 1

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            config_from_histogram(InterArrivalHistogram(), -1.0, BinSpec())

    def test_staircase_total_exact(self):
        spec = BinSpec(replenish_period=512)
        config = staircase_config(spec, 40 / 512)
        assert config.total_credits == 40

    def test_staircase_decreasing(self):
        spec = BinSpec(replenish_period=512)
        config = staircase_config(spec, 110 / 512)
        credits = config.credits
        assert all(a >= b for a, b in zip(credits, credits[1:]))

    def test_staircase_small_budget_throttles(self):
        spec = BinSpec(replenish_period=512)
        tight = staircase_config(spec, 3 / 512)
        assert tight.total_credits == 3

    def test_staircase_rejects_zero_rate(self):
        with pytest.raises(ConfigurationError):
            staircase_config(BinSpec(), 0.0)

    def test_request_config_from_run_valid(self):
        report = run_alone("gcc", FAST)
        config = config_from_run(
            report.core(0).request_intrinsic, report.cycles_run, FAST.spec
        )
        assert config.total_credits >= 1
        assert config.num_bins == 10

    def test_config_from_run_scales_rate_before_rounding(self):
        # (total / cycles) * scale, never total * scale / cycles: the two
        # orders can round a credit count differently.
        report = run_alone("mcf", FAST)
        hist = report.core(0).request_intrinsic
        rate = hist.total / max(1, report.cycles_run)
        for scale in (0.6, 1.0, 1.1):
            assert config_from_run(
                hist, report.cycles_run, FAST.spec, scale=scale
            ) == config_from_histogram(hist, rate * scale, FAST.spec)

    def test_config_from_run_zero_cycles(self):
        hist = InterArrivalHistogram.from_timestamps([0, 4, 8])
        config = config_from_run(hist, 0, BinSpec())
        assert config == config_from_histogram(hist, hist.total, BinSpec())


class TestRunners:
    def test_run_alone_shapes(self):
        report = run_alone("sjeng", FAST)
        assert report.num_cores == 1
        assert report.core(0).trace_name == "sjeng"

    def test_run_mix_four_cores(self):
        report = run_mix(["gcc", "astar", "astar", "astar"], FAST)
        assert report.num_cores == 4
        assert all(c.retired_instructions > 0 for c in report.cores)

    def test_run_mix_deterministic(self):
        a = run_mix(["gcc", "mcf"], FAST)
        b = run_mix(["gcc", "mcf"], FAST)
        assert [c.ipc for c in a.cores] == [c.ipc for c in b.cores]


class TestExperimentShapes:
    def test_reqc_speedup_fields(self):
        result = reqc_speedup_experiment("apache", FAST)
        assert set(result) >= {"benchmark", "speedup", "cs_ipc",
                               "camouflage_ipc"}
        assert result["speedup"] > 0

    def test_covert_unshaped_recovers_key(self):
        result = covert_channel_experiment(
            0xA5, bits=8, shaped=False, pulse_cycles=1500, defaults=FAST
        )
        assert result["bit_error_rate"] == 0.0
        assert result["decoded_bits"] == result["key_bits"]

    def test_covert_shaped_hides_key(self):
        result = covert_channel_experiment(
            0x2AAA, bits=16, shaped=True, pulse_cycles=2000, defaults=FAST
        )
        assert result["bit_error_rate"] >= 0.3  # ~chance (0.5) is ideal
