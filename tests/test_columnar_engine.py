"""Columnar engine: the engine object and engine-level contracts.

The broad bit-identity matrix lives in ``test_engine_equivalence.py``
(every fast case and the randomized slow sweeps run both engines) and
the fault/snapshot matrices in ``test_resilience_*``.  This file
covers what those cannot: the :class:`ColumnarEngine` API surface
itself, the default engine choice, snapshot digests across engines,
and the executor's chunk-splitting helpers.
"""

import pytest

from repro.core.bins import BinSpec, constant_rate_config, uniform_config
from repro.parallel.executor import _call_task_chunk, _split_common
from repro.sim import ColumnarEngine
from repro.sim.stats import report_digest
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

SPEC = BinSpec()


def _shaped_system(seed=11, response=False):
    builder = SystemBuilder(seed=seed)
    builder.add_core(
        make_trace("gcc", 200, seed=seed),
        request_shaping=RequestShapingPlan(uniform_config(SPEC, 2)),
        response_shaping=(
            ResponseShapingPlan(constant_rate_config(SPEC, 256))
            if response
            else None
        ),
    )
    builder.add_core(make_trace("astar", 200, seed=seed + 1))
    return builder.build()


# -- the engine object itself ---------------------------------------------


class TestColumnarEngine:
    def test_direct_api_matches_system_run(self):
        """Stepping the engine every cycle, never jumping the clock,
        matches the per-cycle reference: selective ticks alone are
        exact."""
        system = _shaped_system()
        engine = ColumnarEngine(system)
        engine.refresh_horizons(system.current_cycle)
        while system.current_cycle < 20_000 and not engine.all_done():
            engine.step()
            engine.refresh_horizons(system.current_cycle)
        reference = _shaped_system().run(20_000, engine="cycle")
        assert system.report() == reference

    def test_default_engine_is_columnar(self):
        builder = SystemBuilder(seed=11).with_observability(profile=True)
        builder.add_core(make_trace("gcc", 200, seed=11))
        system = builder.build()
        system.run(5_000)
        assert system.observability.profiler.engines == {"columnar": 1}

    def test_report_digest_engine_invariant(self):
        digests = {
            report_digest(_shaped_system(response=True).run(
                20_000, engine=engine))
            for engine in ("cycle", "columnar")
        }
        assert len(digests) == 1

    def test_stop_when_done_false_runs_full_window(self):
        report = _shaped_system().run(
            12_000, engine="columnar", stop_when_done=False
        )
        assert report.cycles_run == 12_000

    def test_ledger_covers_every_station(self):
        engine = ColumnarEngine(_shaped_system(response=True))
        # 2 cores + 2 req paths + req link + controller + 2 resp paths
        # + resp link = 9 stations; the horizon list, its dirty flags
        # and the station list must agree on the count.
        assert len(engine._stations) == 9
        assert len(engine._h) == 9
        assert len(engine._dirty) == 9


# -- executor chunk helpers ------------------------------------------------


def _double(payload):
    return {"y": payload["x"] * 2, "tag": payload["tag"]}


class TestChunkHelpers:
    def test_split_factors_common_keys(self):
        payloads = [
            {"x": 1, "tag": "sweep", "edges": [1, 2, 3]},
            {"x": 2, "tag": "sweep", "edges": [1, 2, 3]},
        ]
        shared, deltas = _split_common(payloads)
        assert shared == {"tag": "sweep", "edges": [1, 2, 3]}
        assert deltas == [{"x": 1}, {"x": 2}]
        for original, delta in zip(payloads, deltas):
            assert {**shared, **delta} == original

    def test_split_keeps_type_distinctions(self):
        # 1 == True in Python; factoring must not swap one for the
        # other during reconstruction.
        shared, deltas = _split_common([{"flag": True}, {"flag": 1}])
        assert shared is None
        assert deltas == [{"flag": True}, {"flag": 1}]

    def test_split_passthrough_for_non_dicts(self):
        shared, deltas = _split_common([(1, 2), (1, 3)])
        assert shared is None
        assert deltas == [(1, 2), (1, 3)]

    def test_chunk_trampoline_rebuilds_and_reports_inband(self):
        shared, deltas = _split_common(
            [{"x": 3, "tag": "t"}, {"x": 4, "tag": "t"}]
        )
        items = [(delta, None) for delta in deltas]
        outcomes = _call_task_chunk(_double, shared, items)
        assert outcomes == [
            (True, {"y": 6, "tag": "t"}),
            (True, {"y": 8, "tag": "t"}),
        ]

    def test_chunk_trampoline_isolates_failures(self):
        def sometimes(payload):
            if payload["x"] == 0:
                raise ValueError("boom")
            return payload["x"]

        outcomes = _call_task_chunk(
            sometimes, None, [({"x": 1}, None), ({"x": 0}, None),
                              ({"x": 2}, None)]
        )
        assert outcomes[0] == (True, 1)
        assert outcomes[2] == (True, 2)
        ok, error = outcomes[1]
        assert not ok and isinstance(error, ValueError)


@pytest.mark.slow
def test_long_run_snapshot_digests_match():
    """Checkpointed long runs digest identically across engines."""
    digests = set()
    for engine in ("cycle", "columnar"):
        report = _shaped_system(response=True).run(60_000, engine=engine)
        digests.add(report_digest(report))
    assert len(digests) == 1
