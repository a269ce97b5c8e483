"""Unit tests for the live shaping monitor (TVD / MI checkpoints)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.bins import BinSpec, uniform_config
from repro.core.distribution import InterArrivalHistogram
from repro.obs import EventTracer, ShapingMonitor

SPEC = BinSpec()


def _uniform_pair(gap=10, events=64):
    """Intrinsic == shaped: a stream released at a constant gap."""
    intrinsic = InterArrivalHistogram(SPEC)
    shaped = InterArrivalHistogram(SPEC)
    for i in range(events):
        intrinsic.record(i * gap)
        shaped.record(i * gap)
    return intrinsic, shaped


def _target_for_constant_gap(gap=10):
    """The distribution putting all mass on ``gap``'s bin."""
    frequencies = [0.0] * SPEC.num_bins
    frequencies[SPEC.bin_of(gap)] = 1.0
    return tuple(frequencies)


class TestWiring:
    def test_watch_and_counts(self):
        monitor = ShapingMonitor(interval=100)
        intrinsic, shaped = _uniform_pair()
        monitor.watch(0, "request", intrinsic, shaped)
        assert monitor.watched_count == 1
        assert monitor.next_check_cycle == 100

    def test_target_length_validated(self):
        monitor = ShapingMonitor()
        intrinsic, shaped = _uniform_pair()
        with pytest.raises(ConfigurationError):
            monitor.watch(0, "request", intrinsic, shaped,
                          target_frequencies=(1.0,))

    @pytest.mark.parametrize("kwargs", [
        {"interval": 0},
        {"tvd_threshold": 1.5},
        {"min_events": 0},
        {"mi_window": 1},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            ShapingMonitor(**kwargs)


class TestCheckpoints:
    def test_conforming_stream_never_violates(self):
        monitor = ShapingMonitor(interval=100, tvd_threshold=0.25,
                                 min_events=8)
        intrinsic, shaped = _uniform_pair(gap=10)
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(10))
        for cycle in range(500):
            monitor.advance(cycle)
        assert len(monitor.history) == 4
        assert monitor.violations == []
        latest = monitor.latest(0, "request")
        assert latest.tvd_target == pytest.approx(0.0)
        # intrinsic == shaped → TVD between them is 0 and MI is 0
        # (constant sequences carry no information).
        assert latest.tvd_intrinsic == pytest.approx(0.0)
        assert latest.mi_bits == pytest.approx(0.0)

    def test_divergent_stream_flags_violation(self):
        monitor = ShapingMonitor(interval=100, tvd_threshold=0.25,
                                 min_events=8)
        intrinsic, shaped = _uniform_pair(gap=10)
        # The target demands a different bin entirely: TVD vs target = 1.
        monitor.watch(0, "response", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        monitor.advance(100)
        assert len(monitor.violations) == 1
        violation = monitor.violations[0]
        assert violation.cycle == 100
        assert violation.direction == "response"
        assert violation.tvd_target == pytest.approx(1.0)

    def test_min_events_gates_violations(self):
        monitor = ShapingMonitor(interval=100, tvd_threshold=0.25,
                                 min_events=1000)
        intrinsic, shaped = _uniform_pair(gap=10, events=64)
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        monitor.advance(100)
        assert monitor.violations == []       # too few events to judge
        assert len(monitor.history) == 1      # but the checkpoint exists

    def test_no_target_means_no_guarantee_check(self):
        monitor = ShapingMonitor(interval=100, min_events=1)
        intrinsic, shaped = _uniform_pair()
        monitor.watch(0, "request", intrinsic, shaped)
        monitor.advance(100)
        assert monitor.history[0].tvd_target is None
        assert monitor.violations == []

    def test_violation_emits_trace_event(self):
        tracer = EventTracer()
        monitor = ShapingMonitor(interval=100, tvd_threshold=0.25,
                                 min_events=8, tracer=tracer)
        intrinsic, shaped = _uniform_pair(gap=10)
        monitor.watch(1, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        monitor.advance(100)
        events = tracer.events_in("monitor")
        assert len(events) == 1
        assert events[0].name == "monitor.violation"
        assert events[0].core_id == 1
        assert events[0].args_dict["tvd_target"] == pytest.approx(1.0)

    def test_fill_matches_advance(self):
        # Histograms are frozen across a skipped span, so fill must
        # reproduce exactly what per-cycle advancing records.
        def run(stepper):
            monitor = ShapingMonitor(interval=64, min_events=1)
            intrinsic, shaped = _uniform_pair()
            monitor.watch(0, "request", intrinsic, shaped,
                          target_frequencies=_target_for_constant_gap(10))
            stepper(monitor)
            return monitor.history

        def per_cycle(monitor):
            for cycle in range(400):
                monitor.advance(cycle)

        def skipping(monitor):
            monitor.advance(0)
            monitor.advance(398)
            monitor.advance(399)

        assert run(per_cycle) == run(skipping)

    def test_mi_detects_mirrored_stream(self):
        # A "shaper" that just mirrors the program with two alternating
        # gaps leaks everything: MI over the paired bin sequences is
        # the entropy of the gap process (1 bit here).
        intrinsic = InterArrivalHistogram(SPEC)
        shaped = InterArrivalHistogram(SPEC)
        timestamp = 0
        for i in range(128):
            timestamp += 5 if i % 2 == 0 else 400
            intrinsic.record(timestamp)
            shaped.record(timestamp)
        monitor = ShapingMonitor(interval=100, min_events=1)
        monitor.watch(0, "request", intrinsic, shaped)
        monitor.advance(100)
        assert monitor.history[0].mi_bits == pytest.approx(1.0, abs=0.05)

    def test_summary_rows(self):
        monitor = ShapingMonitor(interval=100, min_events=1)
        intrinsic, shaped = _uniform_pair()
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=uniform_config(SPEC, 1).normalized())
        monitor.watch(0, "response", intrinsic, shaped)
        monitor.advance(100)
        rows = monitor.summary_rows()
        assert [row[1] for row in rows] == ["request", "response"]
        assert rows[1][3] == "-"  # no target → no guarantee column


def _record_pair(intrinsic, shaped, start, gap, events):
    """Append ``events`` constant-gap releases to both histograms."""
    for i in range(1, events + 1):
        intrinsic.record(start + i * gap)
        shaped.record(start + i * gap)
    return start + events * gap


def _mirrored_pair(events=128):
    """A leaky 'shaper' echoing an alternating 5/400 gap stream."""
    intrinsic = InterArrivalHistogram(SPEC)
    shaped = InterArrivalHistogram(SPEC)
    timestamp = 0
    for i in range(events):
        timestamp += 5 if i % 2 == 0 else 400
        intrinsic.record(timestamp)
        shaped.record(timestamp)
    return intrinsic, shaped


class TestFinalize:
    """The run-end partial window the periodic schedule never reaches."""

    def test_final_tail_violation_is_counted(self):
        # Regression: releases after the last periodic checkpoint were
        # never evaluated, so a divergent tail shorter than the check
        # interval escaped flagging entirely.
        monitor = ShapingMonitor(interval=100, tvd_threshold=0.25,
                                 min_events=8)
        intrinsic, shaped = _uniform_pair(gap=10, events=64)
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        for cycle in range(101):
            monitor.advance(cycle)
        assert len(monitor.violations) == 1
        _record_pair(intrinsic, shaped, start=64 * 10, gap=10, events=16)
        monitor.finalize(150)
        assert len(monitor.final_samples) == 1
        assert monitor.final_samples[0].cycle == 150
        assert len(monitor.final_violations) == 1
        assert monitor.violation_count == 2

    def test_small_tail_skipped(self):
        # Below final_min_pairs the estimators cannot support a verdict.
        monitor = ShapingMonitor(interval=100, min_events=8,
                                 final_min_pairs=8)
        intrinsic, shaped = _uniform_pair(gap=10, events=64)
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        monitor.advance(100)
        _record_pair(intrinsic, shaped, start=64 * 10, gap=10, events=4)
        monitor.finalize(150)
        assert monitor.final_samples == []
        assert monitor.final_violations == []

    def test_finalize_overwrites_instead_of_appending(self):
        # A run finalized at a snapshot cut and re-finalized at the
        # true end must converge to the straight run's state.
        monitor = ShapingMonitor(interval=100, min_events=8)
        intrinsic, shaped = _uniform_pair(gap=10, events=64)
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        monitor.advance(100)
        _record_pair(intrinsic, shaped, start=64 * 10, gap=10, events=16)
        monitor.finalize(150)
        first = list(monitor.final_violations)
        monitor.finalize(150)
        assert monitor.final_violations == first
        assert len(monitor.final_samples) == 1

    def test_finalize_emits_no_trace_events(self):
        tracer = EventTracer()
        monitor = ShapingMonitor(interval=100, min_events=8,
                                 tracer=tracer)
        intrinsic, shaped = _uniform_pair(gap=10, events=64)
        monitor.watch(0, "request", intrinsic, shaped,
                      target_frequencies=_target_for_constant_gap(200))
        monitor.advance(100)
        before = len(tracer.events)
        _record_pair(intrinsic, shaped, start=64 * 10, gap=10, events=16)
        monitor.finalize(150)
        assert len(tracer.events) == before

    def test_degenerate_window_reports_insufficient_support(self):
        # A window collapsed into one bin gives a vacuous MI of 0.0;
        # the summary must not present that as evidence of no leakage.
        monitor = ShapingMonitor(interval=100, min_events=1)
        intrinsic, shaped = _uniform_pair(gap=10)
        monitor.watch(0, "request", intrinsic, shaped)
        monitor.advance(100)
        sample = monitor.latest(0, "request")
        assert sample.mi_degenerate
        assert sample.mi_bits == pytest.approx(0.0)
        assert monitor.summary_rows()[0][5] == "insufficient_support"

    def test_mixed_bins_are_not_degenerate(self):
        intrinsic, shaped = _mirrored_pair()
        monitor = ShapingMonitor(interval=100, min_events=1)
        monitor.watch(0, "request", intrinsic, shaped)
        monitor.advance(100)
        sample = monitor.latest(0, "request")
        assert not sample.mi_degenerate
        assert monitor.summary_rows()[0][5] != "insufficient_support"


class TestDetectChecks:
    @pytest.mark.parametrize("kwargs", [
        {"detect_window": 1},
        {"detect_min_pairs": 0},
        {"auc_threshold": 1.5},
        {"xcorr_threshold": -0.1},
        {"final_min_pairs": 1},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            ShapingMonitor(**kwargs)

    def test_detect_columns_appended_only_when_enabled(self):
        intrinsic, shaped = _mirrored_pair()
        plain = ShapingMonitor(interval=100, min_events=1)
        plain.watch(0, "request", intrinsic, shaped)
        plain.advance(100)
        assert len(plain.summary_rows()[0]) == 6

        zoo = ShapingMonitor(interval=100, min_events=1, detect=True,
                             detect_min_pairs=16)
        zoo.watch(0, "request", intrinsic, shaped)
        zoo.advance(100)
        row = zoo.summary_rows()[0]
        assert len(row) == 8
        assert row[7] != "-"  # xcorr runs even without a target

    def test_xcorr_attacker_flags_mirrored_stream(self):
        intrinsic, shaped = _mirrored_pair()
        monitor = ShapingMonitor(interval=100, min_events=1, detect=True,
                                 detect_min_pairs=16, xcorr_threshold=0.5)
        monitor.watch(0, "request", intrinsic, shaped)
        monitor.advance(100)
        sample = monitor.latest(0, "request")
        assert sample.xcorr is not None and sample.xcorr > 0.5
        assert any(v.metric == "xcorr" for v in monitor.detect_violations)
        assert monitor.detect_violation_count >= 1

    def test_detect_violation_emits_trace_event(self):
        tracer = EventTracer()
        intrinsic, shaped = _mirrored_pair()
        monitor = ShapingMonitor(interval=100, min_events=1, detect=True,
                                 detect_min_pairs=16, xcorr_threshold=0.5,
                                 tracer=tracer)
        monitor.watch(2, "request", intrinsic, shaped)
        monitor.advance(100)
        events = tracer.events_in("detect")
        assert events and events[0].name == "detect.violation"
        assert events[0].core_id == 2
        assert events[0].args_dict["metric"] == "xcorr"

    def test_below_min_pairs_abstains(self):
        intrinsic, shaped = _mirrored_pair(events=16)
        monitor = ShapingMonitor(interval=100, min_events=1, detect=True,
                                 detect_min_pairs=64)
        monitor.watch(0, "request", intrinsic, shaped)
        monitor.advance(100)
        sample = monitor.latest(0, "request")
        assert sample.auc is None and sample.xcorr is None
        assert monitor.detect_violations == []

    def test_detect_scores_deterministic(self):
        def run():
            intrinsic, shaped = _mirrored_pair()
            monitor = ShapingMonitor(interval=100, min_events=1,
                                     detect=True, detect_min_pairs=16,
                                     detect_seed=9)
            monitor.watch(0, "request", intrinsic, shaped)
            monitor.advance(300)
            return monitor.history

        assert run() == run()
