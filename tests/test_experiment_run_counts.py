"""Each experiment driver simulates every configuration once.

A driver that sets a shaper "to the distribution of workload X" reads
that distribution from the unshaped run it already holds; these tests
count ``System.run`` calls so a re-simulation of the same
configuration shows up as a failure.
"""

import dataclasses

import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    fig9_experiment,
    reqc_speedup_experiment,
    respc_context_experiment,
)
from repro.sim.system import System

TINY = dataclasses.replace(ExperimentDefaults(), accesses=300, cycles=3000)


@pytest.fixture
def run_calls(monkeypatch):
    calls = []
    original = System.run

    def counting_run(self, *args, **kwargs):
        calls.append(len(self.cores))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(System, "run", counting_run)
    return calls


def test_reqc_speedup_runs_base_cs_and_camouflage_once(run_calls):
    reqc_speedup_experiment("mcf", TINY)
    assert run_calls == [1, 1, 1]


def test_respc_context_runs_two_baselines_and_two_shaped(run_calls):
    respc_context_experiment("gcc", TINY)
    assert run_calls == [4, 4, 4, 4]


def test_fig9_runs_two_baselines_and_two_shaped(run_calls):
    fig9_experiment("gcc", TINY)
    assert run_calls == [4, 4, 4, 4]
