"""Differential tests: the columnar engine is bit-identical.

``System.run(...)`` on its default ``engine="columnar"`` must produce
*exactly* the same :class:`~repro.sim.stats.SystemReport` as the
per-cycle reference loop (``engine="cycle"``) — every latency,
histogram, grant count and fake count.  These tests build the same
system once per engine and compare the full reports via dataclass
equality (histograms compare by value).

Because every assertion here runs both engines, this file also pins
the columnar engine's dirty-marked horizon cache: a stale cached
horizon would desynchronise the stepping sequence and diverge the
reports.

The fast cases cover each architectural feature once; the ``slow``
sweep drives randomized combinations and belongs to the extended
suite (``pytest -m slow``).
"""

import random

import pytest

from repro.common.errors import SimulationError
from repro.core.bins import BinSpec, constant_rate_config, uniform_config
from repro.sim.system import (
    EpochShapingPlan,
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

SPEC = BinSpec()


def _shaped_builder(
    seed=7,
    traces=(("gcc", 250), ("astar", 250)),
    request=True,
    response=False,
    strict=False,
    jitter=False,
    epoch=False,
    credits_per_bin=2,
):
    config = uniform_config(SPEC, credits_per_bin)
    builder = SystemBuilder(seed=seed)
    for index, (name, accesses) in enumerate(traces):
        builder.add_core(
            make_trace(name, accesses, seed=seed + index),
            request_shaping=(
                RequestShapingPlan(
                    config, strict_binning=strict, jitter=jitter
                )
                if request and not epoch
                else None
            ),
            response_shaping=(
                ResponseShapingPlan(
                    config, strict_binning=strict, jitter=jitter
                )
                if response
                else None
            ),
            epoch_shaping=EpochShapingPlan() if epoch else None,
        )
    return builder


def _assert_engines_agree(make_builder, cycles=25_000, **run_kwargs):
    baseline = make_builder().build().run(cycles, engine="cycle",
                                          **run_kwargs)
    fast = make_builder().build().run(cycles, engine="columnar",
                                      **run_kwargs)
    assert baseline == fast, "engine=columnar diverged"
    assert baseline.cycles_run == fast.cycles_run


def test_unknown_engine_rejected():
    builder = SystemBuilder(seed=1)
    builder.add_core(make_trace("gcc", 50))
    for engine in ("event", "next_event"):
        with pytest.raises(SimulationError):
            builder.build().run(1000, engine=engine)


class TestFastCases:
    def test_unshaped(self):
        _assert_engines_agree(lambda: _shaped_builder(request=False))

    def test_reqc(self):
        _assert_engines_agree(lambda: _shaped_builder())

    def test_bdc_strict(self):
        _assert_engines_agree(
            lambda: _shaped_builder(response=True, strict=True)
        )

    def test_bdc_jitter(self):
        _assert_engines_agree(
            lambda: _shaped_builder(response=True, jitter=True)
        )

    def test_epoch_shaping(self):
        _assert_engines_agree(lambda: _shaped_builder(epoch=True))

    def test_mesh_topology(self):
        _assert_engines_agree(_mesh_builder)

    def test_low_intensity_single_program(self):
        """The Fig 11-style benchmark shape: one quiet core, CS rate."""

        def build():
            builder = SystemBuilder(seed=9)
            builder.add_core(
                make_trace("h264ref", 200, seed=9),
                request_shaping=RequestShapingPlan(
                    constant_rate_config(SPEC, 512)
                ),
            )
            return builder

        _assert_engines_agree(build, cycles=120_000)

    def test_no_early_stop(self):
        _assert_engines_agree(
            lambda: _shaped_builder(response=True),
            cycles=20_000,
            stop_when_done=False,
        )


def _mesh_builder():
    builder = SystemBuilder(seed=5).with_noc(topology="mesh")
    builder.add_core(make_trace("apache", 250, seed=5))
    builder.add_core(make_trace("gcc", 250, seed=6))
    return builder


TRACE_NAMES = ["gcc", "astar", "h264ref", "libquantum", "apache", "sjeng"]
SCHEDULERS = ["frfcfs", "priority", "tp", "fs"]


def _random_builder(seed):
    def build():
        # The generator is re-seeded on every call so both engine runs
        # draw byte-identical configurations.
        rng = random.Random(seed)
        builder = SystemBuilder(seed=seed)
        builder.with_scheduler(rng.choice(SCHEDULERS))
        builder.with_noc(topology=rng.choice(["shared", "mesh"]))
        if rng.random() < 0.3:
            builder.with_write_queue()
        if rng.random() < 0.3:
            builder.with_page_policy("closed")
        for index in range(rng.randint(1, 3)):
            name = rng.choice(TRACE_NAMES)
            style = rng.choice(
                ["none", "reqc", "respc", "bdc", "epoch"]
            )
            strict = rng.random() < 0.5
            jitter = rng.random() < 0.5
            credits = rng.randint(1, 4)
            config = uniform_config(SPEC, credits)
            builder.add_core(
                make_trace(name, 200, seed=seed + index),
                request_shaping=(
                    RequestShapingPlan(
                        config, strict_binning=strict, jitter=jitter
                    )
                    if style in ("reqc", "bdc")
                    else None
                ),
                response_shaping=(
                    ResponseShapingPlan(
                        config, strict_binning=strict, jitter=jitter
                    )
                    if style in ("respc", "bdc")
                    else None
                ),
                epoch_shaping=(
                    EpochShapingPlan() if style == "epoch" else None
                ),
            )
        return builder

    return build


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(24))
def test_randomized_systems_bit_identical(seed):
    _assert_engines_agree(_random_builder(seed), cycles=30_000)


# -- observability under both engines -------------------------------------
#
# The obs layer must itself be engine-invariant: the event stream, the
# interval samples and the monitor history are part of the "same run,
# same artifacts" guarantee, not just the final report.


def _observed_builder(make_builder):
    def build():
        return make_builder().with_observability(
            trace=True,
            sample_interval=1024,
            monitor=True,
            monitor_interval=2048,
        )

    return build


def _assert_obs_identical(make_builder, cycles=25_000):
    build = _observed_builder(make_builder)
    systems = []
    reports = []
    for engine in ("cycle", "columnar"):
        system = build().build()
        reports.append(system.run(cycles, engine=engine))
        systems.append(system)
    baseline = systems[0]
    obs_a = baseline.observability
    for fast, report in zip(systems[1:], reports[1:]):
        assert reports[0] == report
        obs_b = fast.observability
        assert obs_a.tracer.events == obs_b.tracer.events
        assert obs_a.tracer.counts == obs_b.tracer.counts
        assert obs_a.sampler.samples == obs_b.sampler.samples
        assert obs_a.monitor.history == obs_b.monitor.history
        assert obs_a.monitor.violations == obs_b.monitor.violations


class TestObservabilityEquivalence:
    def test_bdc_jitter(self):
        _assert_obs_identical(
            lambda: _shaped_builder(response=True, jitter=True)
        )

    def test_epoch_shaping(self):
        _assert_obs_identical(lambda: _shaped_builder(epoch=True))

    def test_mesh_topology(self):
        _assert_obs_identical(_mesh_builder)

    def test_low_intensity_spans_are_filled(self):
        """Long idle spans (the columnar engine's bread and butter)
        must still yield the same sample-by-sample time-series."""

        def build():
            builder = SystemBuilder(seed=9)
            builder.add_core(
                make_trace("h264ref", 200, seed=9),
                request_shaping=RequestShapingPlan(
                    constant_rate_config(SPEC, 512)
                ),
            )
            return builder

        _assert_obs_identical(build, cycles=120_000)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_randomized_observability_identical(seed):
    _assert_obs_identical(_random_builder(seed), cycles=30_000)
