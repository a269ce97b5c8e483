"""The engine self-profiler's determinism quarantine.

The profiler may observe everything but perturb nothing: with
``profile=True`` the reports, the obs event/sample/monitor streams and
the ``REPROSNAP`` snapshot bytes must stay bit-identical across the
``cycle`` and ``columnar`` engines — and identical to
a profiler-off run.  The unit half pins the accounting algebra
(closed-form stepped split, span bucketing, idempotent registry
export, pickle reset).
"""

import pickle

from repro.core.bins import BinSpec, uniform_config
from repro.obs import MetricsRegistry
from repro.obs.profile import SKIP_SPAN_EDGES, EngineProfiler
from repro.resilience.snapshot import snapshot_system
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

SPEC = BinSpec()
ENGINES = ("cycle", "columnar")


def _builder(profile=True):
    config = uniform_config(SPEC, 2)
    builder = SystemBuilder(seed=7)
    builder.add_core(
        make_trace("gcc", 250, seed=7),
        request_shaping=RequestShapingPlan(config),
        response_shaping=ResponseShapingPlan(config),
    )
    builder.add_core(make_trace("astar", 250, seed=8))
    builder.with_observability(
        trace=True,
        sample_interval=1024,
        monitor=True,
        monitor_interval=2048,
        profile=profile,
    )
    return builder


class TestQuarantine:
    def test_reports_and_streams_identical_across_engines(self):
        systems = {}
        reports = {}
        for engine in ENGINES:
            system = _builder().build()
            reports[engine] = system.run(25_000, engine=engine)
            systems[engine] = system
        baseline = systems["cycle"].observability
        assert baseline.profiler is not None
        for engine in ENGINES[1:]:
            assert reports["cycle"] == reports[engine]
            obs = systems[engine].observability
            assert baseline.tracer.events == obs.tracer.events
            assert baseline.sampler.samples == obs.sampler.samples
            assert baseline.monitor.history == obs.monitor.history
            # The profiler itself worked: it saw every simulated cycle.
            assert obs.profiler.simulated_cycles == 25_000

    def test_profiler_off_report_unchanged(self):
        with_prof = _builder(profile=True).build().run(20_000)
        without = _builder(profile=False).build().run(20_000)
        assert with_prof == without

    def test_snapshot_bytes_identical_across_engines(self, tmp_path):
        from repro.memctrl import transaction

        # Transactions draw ids from a process-global counter; rebase
        # it per build so the three runs mint identical id sequences
        # (in production each engine run is its own process).
        base = transaction.txn_id_watermark()
        blobs = {}
        try:
            for engine in ENGINES:
                transaction._next_txn_id = base
                system = _builder().build()
                system.run(20_000, engine=engine, stop_when_done=False)
                path = tmp_path / f"{engine}.snap"
                snapshot_system(system, str(path))
                blobs[engine] = path.read_bytes()
        finally:
            transaction.advance_txn_id_watermark(base + 1_000_000)
        assert blobs["cycle"] == blobs["columnar"]

    def test_registry_untouched_without_export(self):
        system = _builder().build()
        system.run(20_000, engine="columnar", stop_when_done=False)
        obs = system.observability
        assert obs.profiler.station_ticks  # it profiled...
        assert not any(
            name.startswith("profiler.") for name in obs.metrics.names()
        )  # ...without touching the registry


class TestAccounting:
    def test_closed_form_stepped_split(self):
        prof = EngineProfiler()
        prof.begin_run("columnar", 100)
        prof.record_skip(40)
        prof.record_skip(10)
        prof.end_run(200)
        assert prof.simulated_cycles == 100
        assert prof.skipped_cycles == 50
        assert prof.stepped_cycles == 50
        assert prof.skip_count == 2

    def test_span_bucketing_includes_overflow(self):
        prof = EngineProfiler()
        for span in (1, 2, 3, 100_000):
            prof.record_skip(span)
        counts = prof.skip_span_counts
        assert counts[SKIP_SPAN_EDGES.index(1)] == 1
        assert counts[SKIP_SPAN_EDGES.index(2)] == 1
        assert counts[SKIP_SPAN_EDGES.index(4)] == 1
        assert counts[-1] == 1  # 100_000 > 65536 overflows
        assert prof.record_skip(0) is None
        assert prof.skip_count == 4

    def test_rollup_shape_and_station_order(self):
        prof = EngineProfiler()
        prof.begin_run("columnar", 0)
        prof.record_station("memctrl", ticks=30)
        prof.record_station("core0", ticks=60, skips=5)
        prof.record_station("core1", ticks=10)
        prof.record_skip(8)
        prof.end_run(100)
        doc = prof.rollup()
        assert doc["cycles"] == {
            "simulated": 100, "stepped": 92, "skipped": 8,
        }
        assert [row["station"] for row in doc["stations"]] == [
            "core0", "memctrl", "core1",
        ]
        assert doc["stations"][0]["share"] == 0.6
        assert "wall" not in doc  # quarantined unless asked for
        assert doc["skip_spans"]["sum"] == 8
        assert prof.rollup(include_wall=True)["wall"]["ns"] >= 0

    def test_export_is_idempotent(self):
        prof = EngineProfiler()
        prof.begin_run("columnar", 0)
        prof.record_station("core0", ticks=4)
        prof.record_skip(16)
        prof.end_run(64)
        registry = MetricsRegistry()
        prof.export_to(registry)
        once = {n: registry._instruments[n] for n in registry.names()}
        simulated = registry.counter("profiler.cycles.simulated").value
        prof.export_to(registry)  # no new activity: nothing changes
        assert registry.counter("profiler.cycles.simulated").value == (
            simulated
        )
        assert registry.histogram(
            "profiler.skip_span", SKIP_SPAN_EDGES
        ).total == 1
        assert set(registry.names()) == set(once)

    def test_export_advances_by_delta(self):
        prof = EngineProfiler()
        registry = MetricsRegistry()
        prof.begin_run("cycle", 0)
        prof.end_run(10)
        prof.export_to(registry)
        prof.begin_run("cycle", 10)
        prof.end_run(30)
        prof.export_to(registry)
        assert registry.counter("profiler.cycles.simulated").value == 30
        assert registry.counter("profiler.runs").value == 2

    def test_pickle_resets_counters(self):
        prof = EngineProfiler()
        prof.begin_run("cycle", 0)
        prof.end_run(500)
        clone = pickle.loads(pickle.dumps(prof))
        assert clone.enabled is True
        assert clone.simulated_cycles == 0
        assert clone.wall_ns == 0
        disabled = pickle.loads(pickle.dumps(EngineProfiler(enabled=False)))
        assert disabled.enabled is False
