"""Table I — capability matrix of the timing-protection techniques.

The paper's Table I is qualitative; this bench derives each cell from
the *implemented* mechanisms by probing small simulations: does the
technique fix the bus-visible request stream (pin/bus monitoring
defence)?  does it fix the adversary-visible response stream (side/
covert channel defence)?
"""

import dataclasses

from repro.analysis.experiments import (
    _mix_names,
    config_from_run,
    run_mix,
    staircase_config,
)
from repro.analysis.format import format_table
from repro.core.bins import BinSpec, constant_rate_config
from repro.security.attacks import corunner_distinguishability
from repro.sim.system import RequestShapingPlan, ResponseShapingPlan

from conftest import BENCH_DEFAULTS


def _request_stream_fixed(request_plan) -> bool:
    """Does the adversary-visible bus stream stop tracking intrinsic
    traffic when the program's behaviour changes?"""
    defaults = dataclasses.replace(BENCH_DEFAULTS, cycles=20000)
    reports = {}
    for bench in ("gcc", "mcf"):
        plans = {0: request_plan} if request_plan else None
        reports[bench] = run_mix([bench], defaults, request_plans=plans)
    gcc = reports["gcc"].core(0).request_shaped.frequencies()
    mcf = reports["mcf"].core(0).request_shaped.frequencies()
    tv = 0.5 * sum(abs(a - b) for a, b in zip(gcc, mcf))
    return tv < 0.15


def _response_channel_closed(scheduler, scheduler_kwargs=None,
                             respc=False) -> bool:
    """Can the adversary still distinguish astar from mcf co-runners?"""
    defaults = dataclasses.replace(BENCH_DEFAULTS, cycles=20000)
    plan = None
    if respc:
        base = run_mix(_mix_names("gcc", "mcf"), defaults)
        target = config_from_run(
            base.core(0).response_intrinsic, base.cycles_run,
            defaults.spec, scale=0.6,
        )
        plan = {0: ResponseShapingPlan(config=target, spec=defaults.spec)}
        scheduler = "priority"
    runs = {
        victim: run_mix(
            _mix_names("gcc", victim), defaults,
            response_plans=plan,
            scheduler=scheduler,
            scheduler_kwargs=scheduler_kwargs or {},
        )
        for victim in ("astar", "mcf")
    }
    d = corunner_distinguishability(
        runs["astar"].core(0).memory_latencies,
        runs["mcf"].core(0).memory_latencies,
    )
    return d < 0.35


def test_table1_capability_matrix(benchmark, record_result):
    spec = BinSpec()

    def build_table():
        reqc_plan = RequestShapingPlan(
            config=staircase_config(spec, 1 / 24), spec=spec
        )
        cs_plan = RequestShapingPlan(
            config=constant_rate_config(spec, 32), spec=spec
        )
        # BDC is ReqC plus RespC: its cells reuse their probes.
        reqc_fixed = _request_stream_fixed(reqc_plan)
        respc_closed = _response_channel_closed("frfcfs", respc=True)
        rows = [
            ["ReqC", reqc_fixed, "No (by design)", "High"],
            ["RespC", "No (by design)", respc_closed, "High"],
            ["BDC", reqc_fixed, respc_closed, "High"],
            ["TP", "No",
             _response_channel_closed("tp", {"turn_length": 128}),
             "Impacted by #domains"],
            ["CS", _request_stream_fixed(cs_plan), "No (by design)",
             "Low for bursty workloads"],
            ["FS", "No",
             _response_channel_closed("fs", {"interval": 24}),
             "Needs bank partitioning"],
        ]
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    text = format_table(
        ["technique", "stops pin/bus monitoring",
         "stops side/covert channel", "performance (paper)"],
        rows,
    )
    record_result("table1_techniques", text)

    by_name = {r[0]: r for r in rows}
    assert by_name["ReqC"][1] is True          # ReqC fixes the bus stream
    assert by_name["CS"][1] is True            # CS too (degenerate case)
    assert by_name["RespC"][2] is True         # RespC closes the response side
    assert by_name["BDC"][1] is True and by_name["BDC"][2] is True
