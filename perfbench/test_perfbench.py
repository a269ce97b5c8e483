"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Runs the traced workloads twice each (a few minutes).
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workload_defs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_match_the_pattern_and_benchmark_json():
    names = [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(
        workload_defs.WORKLOADS)


def _traced(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "42", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", workload_defs.WORKLOADS)
def test_count_metrics_repeat_exactly_across_traced_runs(workload):
    first, second = _traced(workload), _traced(workload)
    counts = [name for name, unit, _ in run.PER_LAYER
              if unit in ("count", "ratio")]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
