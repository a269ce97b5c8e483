"""Columnar-engine speedup on low-intensity runs (BENCH_engine.json).

Selective stepping pays off exactly where the per-cycle loop wastes
the most work: single-program, low-intensity configurations of the
Figure 11/12 kind, where long compute gaps and sparse shaped traffic
leave most cycles with nothing to do.  This benchmark times
``System.run`` under the per-cycle reference (``engine="cycle"``) and
the default columnar engine (:mod:`repro.sim.columnar`, which caches
every station's next-event horizon and only runs stations that are
due or fed), checks the reports stay bit-identical, and archives the
measurements as ``BENCH_engine.json`` at the repository root (plus
the usual text record under ``benchmarks/results``).

Acceptance target, on the headline low-intensity single-program run:
>= 10x for ``columnar`` over ``cycle``.
"""

import json
import os
import pathlib
import time

from repro.core.bins import BinSpec, constant_rate_config, uniform_config
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

from conftest import BENCH_DEFAULTS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = BinSpec()
COLUMNAR_SPEEDUP_TARGET = 10.0

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
ACCESSES = int(400 * _SCALE) or 1
CYCLES = int(600_000 * _SCALE) or 1


def _single_program(name, shaping):
    def build():
        builder = SystemBuilder(seed=BENCH_DEFAULTS.seed)
        builder.add_core(make_trace(name, ACCESSES,
                                    seed=BENCH_DEFAULTS.seed),
                         **shaping)
        return builder.build()

    return build


CONFIGS = [
    # The headline Fig 11-style run: one quiet program under a
    # constant-rate (single-bin) request shaper.
    ("h264ref_cs512",
     _single_program("h264ref", {
         "request_shaping": RequestShapingPlan(
             constant_rate_config(SPEC, 512)),
     })),
    ("h264ref_reqc_uniform",
     _single_program("h264ref", {
         "request_shaping": RequestShapingPlan(uniform_config(SPEC, 2)),
     })),
    ("sjeng_bdc_cs512",
     _single_program("sjeng", {
         "request_shaping": RequestShapingPlan(
             constant_rate_config(SPEC, 512)),
         "response_shaping": ResponseShapingPlan(
             constant_rate_config(SPEC, 512)),
     })),
    ("h264ref_unshaped", _single_program("h264ref", {})),
]


def _best_of(builder, engine, rounds=3):
    """Fastest of ``rounds`` timed runs (reduces scheduler noise)."""
    best_seconds = None
    report = None
    for _ in range(rounds):
        system = builder()
        start = time.perf_counter()
        report = system.run(CYCLES, engine=engine)
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, report


def test_engine_speedup(record_result):
    rows = []
    for name, builder in CONFIGS:
        base_seconds, base_report = _best_of(builder, "cycle")
        col_seconds, col_report = _best_of(builder, "columnar")
        assert base_report == col_report, f"{name}: columnar diverges"
        rows.append({
            "config": name,
            "cycles_run": base_report.cycles_run,
            "cycle_engine_seconds": round(base_seconds, 4),
            "columnar_seconds": round(col_seconds, 4),
            "columnar_speedup": round(base_seconds / col_seconds, 2),
            "identical_report": True,
        })

    headline = rows[0]
    payload = {
        "benchmark": "columnar-engine wall-clock speedup over cycle engine",
        "simulated_cycles": CYCLES,
        "columnar_speedup_target": COLUMNAR_SPEEDUP_TARGET,
        "headline_config": headline["config"],
        "headline_columnar_speedup": headline["columnar_speedup"],
        "configs": rows,
    }
    (REPO_ROOT / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"{r['config']:24s} columnar {r['columnar_speedup']:6.2f}x  "
        f"({r['cycle_engine_seconds']:.3f}s -> "
        f"{r['columnar_seconds']:.3f}s, "
        f"{r['cycles_run']} cycles, bit-identical)"
        for r in rows
    ]
    record_result("engine_speedup", "\n".join(lines))

    if _SCALE >= 1.0:
        assert headline["columnar_speedup"] >= COLUMNAR_SPEEDUP_TARGET, (
            f"headline columnar speedup {headline['columnar_speedup']}x "
            f"below the {COLUMNAR_SPEEDUP_TARGET}x target"
        )
