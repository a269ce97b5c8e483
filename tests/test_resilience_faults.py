"""Fault-injection harness: every adversity ends typed or flagged.

The contract under test (ISSUE acceptance, docs/resilience.md): each
injected fault class ends in a **typed error** or a **monitor-flagged
degraded mode** — never a silent shaping violation — and fault runs
stay bit-identical across both execution engines (cycle, columnar).
"""

import pytest

from repro.common.errors import ConfigurationError, QueueOverflowError
from repro.common.rng import DeterministicRng
from repro.memctrl.queue import TransactionQueue
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.memctrl.write_queue import WriteQueue, WriteQueuePolicy
from repro.resilience import (
    EpochBoundaryStress,
    FaultInjector,
    LinkStall,
    QueueSaturation,
    TrafficBurst,
    run_scenario,
    scenario_names,
)

# -- canned scenarios ------------------------------------------------------


class TestScenarios:
    def test_names(self):
        assert scenario_names() == [
            "degrade", "epoch-stress", "flood", "livelock",
            "malformed-trace", "saturate",
        ]

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_scenario("meteor-strike")

    def test_livelock_is_caught_typed(self, tmp_path):
        dump_path = str(tmp_path / "stall.json")
        result = run_scenario("livelock", cycles=20_000, dump_path=dump_path)
        assert result["outcome"] == "typed_error"
        assert result["error"] == "WatchdogError"
        assert result["dump_path"] == dump_path
        assert result["dump"]["faults"]["stalls"]

    def test_flood_is_flagged_by_monitor(self):
        result = run_scenario("flood")
        assert result["outcome"] == "flagged_violation"
        assert result["injected"] == 400
        assert result["violations"]

    def test_saturation_respects_queue_bound(self):
        result = run_scenario("saturate")
        assert result["outcome"] in ("completed", "typed_error")
        if result["outcome"] == "completed":
            assert result["injected"] == 300
            assert result["bound_held"] is True
            assert result["peak_queue_depth"] <= result["queue_capacity"]

    def test_jitter_budget_exhaustion_degrades_flagged(self):
        result = run_scenario("degrade", cycles=20_000)
        assert result["outcome"] == "degraded"
        assert result["degradations"]
        first = result["degradations"][0]
        assert first["reason"] == "jitter_budget_exhausted"
        assert first["direction"] in ("request", "response")

    def test_epoch_stress_survives(self):
        result = run_scenario("epoch-stress")
        assert result["outcome"] == "completed"
        assert result["injected"] > 0
        assert result["rate_changes"] > 0

    def test_malformed_trace_fails_typed_with_location(self):
        result = run_scenario("malformed-trace")
        assert result["outcome"] == "typed_error"
        assert result["error"] == "TraceFormatError"
        assert result["line"] == 3
        assert result["source"]

    @pytest.mark.parametrize(
        "name", ["livelock", "flood", "degrade", "epoch-stress"]
    )
    def test_engine_equivalence(self, name):
        """Fault runs are deterministic and engine-invariant end to end."""
        cycles = 20_000
        slow = run_scenario(name, cycles=cycles, engine="cycle")
        fast = run_scenario(name, cycles=cycles, engine="columnar")
        assert slow == fast, f"engine=columnar diverged on {name}"


# -- fault spec validation -------------------------------------------------


class TestSpecValidation:
    def test_burst_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TrafficBurst(count=0)
        with pytest.raises(ConfigurationError):
            TrafficBurst(per_cycle=-1)

    def test_saturation_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            QueueSaturation(count=0)

    def test_stall_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LinkStall(duration=0)
        assert LinkStall(duration=None).end_cycle is None
        assert LinkStall(start_cycle=5, duration=3).end_cycle == 8

    def test_epoch_stress_fields_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EpochBoundaryStress(epochs=0)
        with pytest.raises(ConfigurationError):
            EpochBoundaryStress(lead=0)

    def test_epoch_stress_requires_epoch_shaper(self):
        from repro.resilience import ResilienceConfig
        from repro.sim.system import SystemBuilder
        from repro.workloads import make_trace

        builder = SystemBuilder(seed=2)
        builder.add_core(make_trace("gcc", 100, seed=2))  # no epoch shaping
        builder.with_resilience(
            ResilienceConfig(faults=(EpochBoundaryStress(core_id=0),))
        )
        with pytest.raises(ConfigurationError, match="EpochRateShaper"):
            builder.build().run(1_000)


class TestInjectorUnit:
    def _injector(self, *specs):
        return FaultInjector(specs, DeterministicRng(3))

    def test_link_stall_windows(self):
        injector = self._injector(LinkStall(start_cycle=10, duration=5))
        assert not injector.request_link_stalled(9)
        assert injector.request_link_stalled(10)
        assert injector.request_link_stalled(14)
        assert not injector.request_link_stalled(15)

    def test_next_event_pins_while_active(self):
        injector = self._injector(
            TrafficBurst(start_cycle=100, count=4, per_cycle=2)
        )
        # Before the burst: the start cycle is the next event...
        assert injector.next_event_cycle(0) == 100
        # ...during it: pinned to per-cycle stepping.
        assert injector.next_event_cycle(100) == 100
        assert injector.next_event_cycle(150) == 150

    def test_next_event_none_when_exhausted(self):
        injector = self._injector(
            TrafficBurst(start_cycle=0, count=1, per_cycle=1)
        )
        injector._bursts[0].remaining = 0
        assert injector.next_event_cycle(5) is None

    def test_stall_edges_are_events(self):
        injector = self._injector(LinkStall(start_cycle=10, duration=5))
        assert injector.next_event_cycle(0) == 10
        assert injector.next_event_cycle(10) == 10  # pinned while active
        assert injector.next_event_cycle(14) == 14
        assert injector.next_event_cycle(20) is None

    def test_stats_shape(self):
        injector = self._injector(LinkStall(start_cycle=1))
        stats = injector.stats()
        assert stats["specs"] == 1
        assert stats["stalls"] == [{"start_cycle": 1, "duration": None}]


# -- explicit queue-overflow semantics (satellite 2) -----------------------


def _txn(core_id=0, address=0x40, kind=TransactionType.FAKE_READ):
    return MemoryTransaction(
        core_id=core_id, address=address, kind=kind, created_cycle=0,
    )


class TestQueueOverflow:
    def test_transaction_queue_bound_is_loud(self):
        queue = TransactionQueue(capacity=2)
        queue.push(_txn())
        queue.push(_txn())
        assert queue.is_full
        with pytest.raises(QueueOverflowError) as excinfo:
            queue.push(_txn())
        assert excinfo.value.capacity == 2
        assert excinfo.value.depth == 2
        assert "backpressure" in str(excinfo.value)
        assert len(queue) == 2  # the failed push did not mutate state

    def test_write_queue_bound_is_loud(self):
        queue = WriteQueue(
            WriteQueuePolicy(capacity=2, low_watermark=0, high_watermark=1)
        )
        write = TransactionType.WRITE
        queue.push(_txn(address=0x40, kind=write))
        queue.push(_txn(address=0x80, kind=write))
        with pytest.raises(QueueOverflowError) as excinfo:
            queue.push(_txn(address=0xC0, kind=write))
        assert excinfo.value.capacity == 2
        assert excinfo.value.depth == 2

    def test_overflow_is_protocol_error(self):
        from repro.common.errors import ProtocolError

        assert issubclass(QueueOverflowError, ProtocolError)
