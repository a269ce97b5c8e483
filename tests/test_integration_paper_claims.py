"""End-to-end integration tests: the paper's qualitative claims.

Each test reproduces one evaluation-section claim at reduced scale
(the benchmark harness runs the full-size versions).  These are the
tests that tie the whole system together: cores, caches, shapers, NoC,
controller, DRAM, and the security analysis.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    _mix_names,
    config_from_run,
    covert_channel_experiment,
    fig9_experiment,
    measure_mi_suite,
    respc_context_experiment,
    run_alone,
    run_mix,
    staircase_config,
)
from repro.core.bins import BinConfiguration, BinSpec
from repro.security.attacks import corunner_distinguishability
from repro.security.leakage import max_abs_drift
from repro.sim.system import RequestShapingPlan, ResponseShapingPlan

SMALL = dataclasses.replace(ExperimentDefaults(), accesses=2000, cycles=16000)


class TestWorkloadContrast:
    def test_mcf_more_intense_than_astar(self):
        """The evaluation's central contrast (section IV-A)."""
        mcf = run_alone("mcf", SMALL).core(0)
        astar = run_alone("astar", SMALL).core(0)
        assert mcf.demand_requests > 2 * astar.demand_requests

    def test_mcf_corunners_slow_adversary_more(self):
        """Figure 1's attack precondition: response time depends on
        the co-runner."""
        with_astar = run_mix(_mix_names("gcc", "astar"), SMALL)
        with_mcf = run_mix(_mix_names("gcc", "mcf"), SMALL)
        assert (
            with_mcf.core(0).mean_memory_latency()
            > with_astar.core(0).mean_memory_latency()
        )


class TestFigure9:
    def test_respc_flattens_response_difference(self):
        """Camouflage's curve is far flatter than FR-FCFS's (Fig 9)."""
        result = fig9_experiment("gcc", SMALL)
        unshaped_drift = max_abs_drift(result["frfcfs_difference"])
        shaped_drift = max_abs_drift(result["camouflage_difference"])
        assert shaped_drift < unshaped_drift / 2


class TestFigure10:
    def test_respc_costs_are_modest(self):
        """RespC protects at single-digit-to-moderate slowdown."""
        results = respc_context_experiment("gcc", SMALL)
        for ctx in results.values():
            assert 0.7 < ctx["adversary_slowdown"] < 2.0
            assert 0.7 < ctx["throughput_slowdown"] < 2.0


class TestSideChannelClosure:
    def test_distinguishability_collapses_under_respc(self):
        """An adversary timing its own responses can tell astar from
        mcf co-runners under FR-FCFS, but not under RespC."""
        base_a = run_mix(_mix_names("gcc", "astar"), SMALL)
        base_b = run_mix(_mix_names("gcc", "mcf"), SMALL)
        d_base = corunner_distinguishability(
            base_a.core(0).memory_latencies, base_b.core(0).memory_latencies
        )
        target = config_from_run(
            base_b.core(0).response_intrinsic, base_b.cycles_run,
            SMALL.spec, scale=0.6,
        )
        plan = {0: ResponseShapingPlan(config=target, spec=SMALL.spec)}
        shaped_a = run_mix(_mix_names("gcc", "astar"), SMALL,
                           response_plans=plan, scheduler="priority")
        shaped_b = run_mix(_mix_names("gcc", "mcf"), SMALL,
                           response_plans=plan, scheduler="priority")
        d_shaped = corunner_distinguishability(
            shaped_a.core(0).memory_latencies,
            shaped_b.core(0).memory_latencies,
        )
        assert d_shaped < d_base / 2


class TestFigure11:
    @pytest.mark.parametrize("bench_name", ["gcc", "mcf", "apache"])
    def test_any_distribution_shapes_to_desired(self, bench_name):
        """Different intrinsic distributions all match DESIRED (Fig 11)."""
        desired = BinConfiguration((10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
        report = run_mix(
            [bench_name], SMALL,
            request_plans={
                0: RequestShapingPlan(config=desired, spec=SMALL.spec,
                                      strict_binning=True)
            },
        )
        shaped = report.core(0).request_shaped
        assert shaped.total > 50
        assert shaped.matches_target(desired.normalized(), tolerance=0.06)


class TestMiClaims:
    def test_mi_ordering_matches_paper(self):
        """no-shaping ≫ ReqC ≥ CS, and fake traffic helps (IV-B2)."""
        defaults = dataclasses.replace(
            ExperimentDefaults(), accesses=6000, cycles=60000
        )
        mi = measure_mi_suite(defaults=defaults)
        base = mi["no_shaping"]["paired"]
        assert base > 1.0
        # Shaping with fake traffic leaks a tiny fraction of baseline.
        assert mi["cs_fake"]["paired"] < 0.05 * base
        assert mi["reqc_fake"]["paired"] < 0.10 * base
        # Fake traffic strictly improves over throttling alone.
        assert mi["cs_fake"]["windowed"] <= mi["cs_no_fake"]["windowed"] + 1e-6
        assert (
            mi["reqc_fake"]["windowed"]
            <= mi["reqc_no_fake"]["windowed"] + 1e-6
        )


class TestCovertChannel:
    def test_unshaped_key_recovered_exactly(self):
        result = covert_channel_experiment(
            0x2AAA, bits=16, shaped=False, pulse_cycles=2000, defaults=SMALL
        )
        assert result["bit_error_rate"] == 0.0

    def test_shaped_key_unrecoverable(self):
        result = covert_channel_experiment(
            0x2AAA, bits=16, shaped=True, pulse_cycles=2000, defaults=SMALL
        )
        assert result["bit_error_rate"] >= 0.3

    def test_shaped_window_counts_flat(self):
        """Figures 14/15: the camouflaged trace shows no key structure."""
        result = covert_channel_experiment(
            0x2AAA, bits=16, shaped=True, pulse_cycles=2000, defaults=SMALL
        )
        counts = result["window_counts"][1:]  # skip cold-start window
        assert counts.std() < 0.2 * counts.mean()


class TestDegenerateConstantRate:
    def test_single_bin_config_is_constant_shaper(self):
        """'Camouflage can be configured to be a constant rate shaper
        by using only one bin' — and then the observed stream is
        strictly periodic."""
        from repro.core.bins import constant_rate_config

        spec = BinSpec()
        config = constant_rate_config(spec, 64)
        report = run_mix(
            ["mcf"], SMALL,
            request_plans={0: RequestShapingPlan(config=config, spec=spec)},
        )
        gaps = np.array(report.core(0).request_shaped.gaps)
        assert gaps.size > 100
        # Steady state: the overwhelming majority of gaps equal 64.
        assert np.mean(gaps == 64) > 0.9
