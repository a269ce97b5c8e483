#!/usr/bin/env python3
"""Side-channel defence with Response Camouflage (paper Figs 9/10).

An adversary VM times its own memory responses to figure out who it is
co-scheduled with: next to mcf (memory hog) its responses are slow,
next to astar they are fast.  RespC at the controller egress fixes the
adversary's response distribution so both worlds look identical.

Run:  python examples/side_channel_defense.py
"""

import numpy as np

from repro.analysis.experiments import (
    ExperimentDefaults,
    _mix_names,
    config_from_run,
    run_mix,
)
from repro.security.attacks import corunner_distinguishability
from repro.security.leakage import accumulated_response_difference
from repro.sim.system import ResponseShapingPlan

ADVERSARY = "gcc"
DEFAULTS = ExperimentDefaults(accesses=3000, cycles=25000)


def main() -> None:
    print(f"adversary: {ADVERSARY}; victims: astar x3 vs mcf x3\n")

    print("1) unprotected (FR-FCFS) ...")
    base_astar = run_mix(_mix_names(ADVERSARY, "astar"), DEFAULTS)
    base_mcf = run_mix(_mix_names(ADVERSARY, "mcf"), DEFAULTS)
    d_base = corunner_distinguishability(
        base_astar.core(0).memory_latencies,
        base_mcf.core(0).memory_latencies,
    )
    drift = accumulated_response_difference(
        base_astar.core(0), base_mcf.core(0)
    )
    print(f"   adversary mean latency next to astar: "
          f"{base_astar.core(0).mean_memory_latency():.0f} cycles")
    print(f"   adversary mean latency next to mcf:   "
          f"{base_mcf.core(0).mean_memory_latency():.0f} cycles")
    print(f"   distinguishability (Cohen's d): {d_base:.2f}")
    print(f"   accumulated response-time drift: {abs(drift[-1]):.0f} cycles\n")

    print("2) protected with Response Camouflage ...")
    # Target: the adversary's response distribution next to mcf,
    # measured on the unprotected run above and tightened slightly.
    target = config_from_run(
        base_mcf.core(0).response_intrinsic, base_mcf.cycles_run,
        DEFAULTS.spec, scale=0.6,
    )
    plan = {
        0: ResponseShapingPlan(
            config=target, spec=DEFAULTS.spec, strict_binning=True
        )
    }
    shaped_astar = run_mix(
        _mix_names(ADVERSARY, "astar"), DEFAULTS,
        response_plans=plan, scheduler="priority",
    )
    shaped_mcf = run_mix(
        _mix_names(ADVERSARY, "mcf"), DEFAULTS,
        response_plans=plan, scheduler="priority",
    )
    d_shaped = corunner_distinguishability(
        shaped_astar.core(0).memory_latencies,
        shaped_mcf.core(0).memory_latencies,
    )
    drift_shaped = accumulated_response_difference(
        shaped_astar.core(0), shaped_mcf.core(0)
    )
    print(f"   adversary mean latency next to astar: "
          f"{shaped_astar.core(0).mean_memory_latency():.0f} cycles")
    print(f"   adversary mean latency next to mcf:   "
          f"{shaped_mcf.core(0).mean_memory_latency():.0f} cycles")
    print(f"   distinguishability (Cohen's d): {d_shaped:.2f}")
    print(f"   accumulated response-time drift: "
          f"{abs(drift_shaped[-1]):.0f} cycles")
    print(f"   fake responses injected: "
          f"{shaped_astar.core(0).fake_responses_sent}\n")

    reduction = d_base / max(d_shaped, 1e-6)
    print(f"side channel attenuated {reduction:.1f}x "
          f"(drift {np.abs(drift).max():.0f} -> "
          f"{np.abs(drift_shaped).max():.0f} cycles)")
    assert d_shaped < d_base


if __name__ == "__main__":
    main()
