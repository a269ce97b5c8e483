"""Unit tests for metrics instruments and the interval sampler."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    IntervalSampler,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("grants")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("depth")
        g.set(7)
        assert g.value == 7
        g.set(0.5)
        assert g.value == 0.5

    def test_histogram_buckets(self):
        h = Histogram("lat", edges=(10, 100))
        for value in (5, 10, 11, 1000):
            h.record(value)
        assert h.counts == [2, 1, 1]  # <=10, <=100, overflow
        assert h.total == 4
        assert h.mean() == pytest.approx((5 + 10 + 11 + 1000) / 4)

    def test_histogram_empty_mean(self):
        assert Histogram("lat", edges=(1,)).mean() == 0.0

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", edges=())
        with pytest.raises(ConfigurationError):
            Histogram("lat", edges=(5, 3))


class TestRegistry:
    def test_idempotent_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("b").set(1.5)
        registry.histogram("c", edges=(10,)).record(4)
        snapshot = registry.as_dict()
        assert snapshot["a"] == 3
        assert snapshot["b"] == 1.5
        assert snapshot["c"] == {"edges": [10], "counts": [1, 0],
                                 "mean": 4.0}
        assert registry.names() == ["a", "b", "c"]


class TestIntervalSampler:
    def test_samples_at_boundaries(self):
        sampler = IntervalSampler(interval=10)
        state = {"v": 0}
        sampler.add_probe("v", lambda: state["v"])
        for cycle in range(25):
            state["v"] = cycle
            sampler.advance(cycle)
        assert sampler.samples == [(10, (10,)), (20, (20,))]

    def test_advance_catches_up_over_jumped_ticks(self):
        # A tick landing past several boundaries records all of them
        # (stamped at the boundary, valued at the tick) — matching what
        # the next-event engine produces via fill + advance.
        sampler = IntervalSampler(interval=10)
        sampler.add_probe("v", lambda: 7)
        sampler.advance(35)
        assert [c for c, _ in sampler.samples] == [10, 20, 30]

    def test_fill_then_advance_equals_per_cycle(self):
        # The engine contract: state is frozen across a skipped span,
        # so advance(target - 1) then advance(target) must reproduce the
        # per-cycle sample stream exactly.
        state = {"v": 3}
        per_cycle = IntervalSampler(interval=8)
        per_cycle.add_probe("v", lambda: state["v"])
        for cycle in range(40):
            per_cycle.advance(cycle)

        skipping = IntervalSampler(interval=8)
        skipping.add_probe("v", lambda: state["v"])
        skipping.advance(0)
        skipping.advance(38)  # skip 1..39: nothing changes mid-span
        skipping.advance(39)
        assert skipping.samples == per_cycle.samples

    def test_series_and_rows(self):
        sampler = IntervalSampler(interval=5)
        sampler.add_probe("a", lambda: 1)
        sampler.add_probe("b", lambda: 2)
        sampler.advance(10)
        assert sampler.series("b") == [(5, 2), (10, 2)]
        assert sampler.rows() == [[5, 1, 2], [10, 1, 2]]
        with pytest.raises(ConfigurationError):
            sampler.series("missing")

    def test_bounded_sample_history(self):
        sampler = IntervalSampler(interval=1, limit=3)
        sampler.add_probe("a", lambda: 0)
        sampler.advance(10)
        assert [c for c, _ in sampler.samples] == [8, 9, 10]
        assert sampler.dropped == 7

    def test_duplicate_probe_rejected(self):
        sampler = IntervalSampler(interval=4)
        sampler.add_probe("a", lambda: 0)
        with pytest.raises(ConfigurationError):
            sampler.add_probe("a", lambda: 1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            IntervalSampler(interval=0)
        with pytest.raises(ConfigurationError):
            IntervalSampler(interval=4, limit=0)
