"""Live shaping monitor: running TVD/MI over the shaped streams.

The paper's guarantee is distributional: the post-shaper stream must
follow the configured bin distribution regardless of what the program
does.  End-of-run aggregates can hide a mid-run excursion (a window
where the shaper tracked the intrinsic stream and leaked); this
monitor evaluates the guarantee *while the run is going*, at fixed
cycle checkpoints, from the same intrinsic/shaped inter-arrival
histograms the shapers already maintain:

* ``tvd_target`` — total-variation distance between the shaped
  distribution and the configured target.  This is the guarantee
  itself: once enough releases have been observed, a value above the
  threshold is flagged as a :class:`ShapingViolation`.
* ``tvd_intrinsic`` — TVD between intrinsic and shaped distributions
  (how much work the shaper is doing; ~0 means the shaped stream just
  mirrors the program).
* ``mi_bits`` — plug-in mutual information between the paired
  intrinsic and shaped inter-arrival bin sequences over a sliding
  window (the section IV-B leakage estimate, evaluated online).

Checkpoints use the same advance/fill discipline as the interval
sampler, so the history and violation stream are identical under the
per-cycle and columnar engines (histograms only change inside
``tick``, never across a skipped span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.obs.events import CATEGORY_DETECT, CATEGORY_MONITOR
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # import-leaf discipline: repro.obs must not pull
    # the simulator stack in at import time (components import the
    # tracer, and cycles would follow); heavyweight deps load lazily.
    from repro.core.distribution import InterArrivalHistogram


@dataclass(frozen=True)
class ShapingViolation:
    """One checkpoint at which a shaped stream broke its guarantee."""

    cycle: int
    core_id: int
    direction: str
    tvd_target: float
    threshold: float
    events_observed: int


@dataclass(frozen=True)
class DetectViolation:
    """One checkpoint at which a zoo attacker beat its threshold.

    ``metric`` is ``"auc"`` (a trained classifier separates the shaped
    stream from its target) or ``"xcorr"`` (the observed rate series
    still tracks the intrinsic one).
    """

    cycle: int
    core_id: int
    direction: str
    metric: str
    value: float
    threshold: float


@dataclass(frozen=True)
class DegradedMode:
    """One graceful-degradation activation, flagged live.

    The resilience contract (docs/resilience.md): when a component
    exhausts a budget it falls back to a *safe* policy — e.g. the
    shaper dropping randomized jitter for strict constant-rate release
    once its jitter budget runs out — and the fallback is recorded
    here, never applied silently.  ``reason`` is a stable machine key
    (``"jitter_budget_exhausted"``, ...); ``detail`` is human prose.
    """

    cycle: int
    core_id: int
    direction: str
    reason: str
    detail: str


@dataclass(frozen=True)
class MonitorSample:
    """One checkpoint's estimates for one monitored stream."""

    cycle: int
    core_id: int
    direction: str
    events_observed: int
    tvd_target: Optional[float]
    tvd_intrinsic: float
    mi_bits: float
    #: paired releases the MI window actually covered
    mi_pairs: int = 0
    #: True when the window cannot support an MI estimate (fewer than
    #: two pairs, or a marginal collapsed into one bin) — ``mi_bits``
    #: is then a vacuous 0.0, not evidence of no leakage
    mi_degenerate: bool = False
    #: detectability-lab scores (None when detect checks are off or
    #: the window was too small / had no target distribution)
    auc: Optional[float] = None
    xcorr: Optional[float] = None


class _WatchedStream:
    """One (core, direction) pair under observation."""

    __slots__ = (
        "core_id", "direction", "intrinsic", "shaped", "target",
        "pairs_at_check",
    )

    def __init__(
        self,
        core_id: int,
        direction: str,
        intrinsic: "InterArrivalHistogram",
        shaped: "InterArrivalHistogram",
        target: Optional[Tuple[float, ...]],
    ) -> None:
        self.core_id = core_id
        self.direction = direction
        self.intrinsic = intrinsic
        self.shaped = shaped
        self.target = target
        # Paired releases already covered by the last periodic check;
        # finalize() uses it to decide whether an un-checked tail is
        # worth a final partial-window evaluation.
        self.pairs_at_check = 0


class ShapingMonitor:
    """Periodic TVD/MI checkpoints with mid-run violation flagging."""

    def __init__(
        self,
        interval: int = 2048,
        tvd_threshold: float = 0.25,
        min_events: int = 32,
        mi_window: int = 4096,
        tracer=NULL_TRACER,
        detect: bool = False,
        detect_window: int = 256,
        detect_min_pairs: int = 32,
        auc_threshold: float = 0.8,
        xcorr_threshold: float = 0.9,
        detect_seed: int = 0,
        final_min_pairs: int = 8,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("monitor interval must be positive")
        if not 0.0 <= tvd_threshold <= 1.0:
            raise ConfigurationError("tvd_threshold must be in [0, 1]")
        if min_events < 1:
            raise ConfigurationError("min_events must be at least 1")
        if mi_window < 2:
            raise ConfigurationError("mi_window must be at least 2")
        if detect_window < 2:
            raise ConfigurationError("detect_window must be at least 2")
        if detect_min_pairs < 1:
            raise ConfigurationError("detect_min_pairs must be at least 1")
        if not 0.0 <= auc_threshold <= 1.0:
            raise ConfigurationError("auc_threshold must be in [0, 1]")
        if not 0.0 <= xcorr_threshold <= 1.0:
            raise ConfigurationError("xcorr_threshold must be in [0, 1]")
        if final_min_pairs < 2:
            raise ConfigurationError("final_min_pairs must be at least 2")
        self.interval = interval
        self.tvd_threshold = tvd_threshold
        self.min_events = min_events
        self.mi_window = mi_window
        self.tracer = tracer
        self.detect = detect
        self.detect_window = detect_window
        self.detect_min_pairs = detect_min_pairs
        self.auc_threshold = auc_threshold
        self.xcorr_threshold = xcorr_threshold
        self.detect_seed = int(detect_seed)
        self.final_min_pairs = final_min_pairs
        self._next = interval
        self._streams: List[_WatchedStream] = []
        self.history: List[MonitorSample] = []
        self.violations: List[ShapingViolation] = []
        self.detect_violations: List[DetectViolation] = []
        self.degradations: List[DegradedMode] = []
        # Final partial-window state; REPLACED wholesale by finalize()
        # (never appended), so it is a pure function of histogram state
        # at the last cycle and stays resume/engine-invariant.
        self.final_samples: List[MonitorSample] = []
        self.final_violations: List[ShapingViolation] = []
        self.final_detect_violations: List[DetectViolation] = []
        self._metrics = None

    # -- wiring ------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Mirror monitor state into first-class registry gauges.

        ``monitor.checkpoints`` / ``monitor.violations`` /
        ``monitor.degradations`` plus per-stream
        ``monitor.core{K}.{dir}.{tvd_target,tvd_intrinsic,mi_bits,
        events}`` update at every checkpoint (and on each degradation
        flag), so ``/metrics`` shows jitter-budget exhaustion and
        guarantee breaches without parsing traces.  Checkpoint cycles
        and values are engine-invariant, so binding never perturbs the
        cross-engine equivalence of registry or snapshot state.
        """
        self._metrics = registry
        registry.gauge("monitor.checkpoints").set(len(self.history))
        registry.gauge("monitor.violations").set(len(self.violations))
        registry.gauge("monitor.degradations").set(len(self.degradations))

    def watch(
        self,
        core_id: int,
        direction: str,
        intrinsic: "InterArrivalHistogram",
        shaped: "InterArrivalHistogram",
        target_frequencies: Optional[Sequence[float]] = None,
    ) -> None:
        """Observe one stream pair; ``target_frequencies`` (normalized,
        one per bin) enables guarantee checking against the configured
        distribution."""
        target: Optional[Tuple[float, ...]] = None
        if target_frequencies is not None:
            target = tuple(target_frequencies)
            if len(target) != shaped.spec.num_bins:
                raise ConfigurationError(
                    "target distribution has wrong number of bins"
                )
        self._streams.append(
            _WatchedStream(core_id, direction, intrinsic, shaped, target)
        )

    @property
    def watched_count(self) -> int:
        return len(self._streams)

    @property
    def next_check_cycle(self) -> int:
        return self._next

    # -- checkpointing -----------------------------------------------------

    def advance(self, cycle: int) -> None:
        """Run every checkpoint up to ``cycle`` (the tick at ``cycle``,
        or the last cycle of a skipped span — state is frozen there, so
        the current histograms are exact at every boundary)."""
        while cycle >= self._next:
            self._check(self._next)
            self._next += self.interval

    def _update_stream_gauges(self, sample: MonitorSample) -> None:
        prefix = f"monitor.core{sample.core_id}.{sample.direction}"
        metrics = self._metrics
        if sample.tvd_target is not None:
            metrics.gauge(f"{prefix}.tvd_target").set(sample.tvd_target)
        metrics.gauge(f"{prefix}.tvd_intrinsic").set(sample.tvd_intrinsic)
        metrics.gauge(f"{prefix}.mi_bits").set(sample.mi_bits)
        metrics.gauge(f"{prefix}.events").set(sample.events_observed)
        detect_prefix = f"detect.core{sample.core_id}.{sample.direction}"
        if sample.auc is not None:
            metrics.gauge(f"{detect_prefix}.auc").set(sample.auc)
        if sample.xcorr is not None:
            metrics.gauge(f"{detect_prefix}.xcorr").set(sample.xcorr)

    def _paired(self, stream: _WatchedStream) -> int:
        return min(len(stream.intrinsic.gaps), len(stream.shaped.gaps))

    def _detect_scores(
        self, index: int, stream: _WatchedStream, stamp: int
    ) -> Tuple[Optional[float], Optional[float]]:
        """Windowed zoo scores for one stream at one checkpoint.

        The RNG (target synthesis + train/test split inside the lab) is
        a pure function of ``(detect_seed, stamp, stream index)``, so
        checkpoint scores are engine- and resume-invariant.
        """
        from repro.security.detect import windowed_detect_scores

        if self._paired(stream) < self.detect_min_pairs:
            return None, None
        rng = DeterministicRng(self.detect_seed).fork(stamp).fork(index)
        return windowed_detect_scores(
            stream.intrinsic.gaps,
            stream.shaped.gaps,
            stream.shaped.spec,
            stream.target,
            rng,
            window_pairs=self.detect_window,
        )

    def _evaluate(
        self, index: int, stream: _WatchedStream, stamp: int
    ) -> Tuple[
        MonitorSample, Optional[ShapingViolation], List[DetectViolation]
    ]:
        """Build one stream's sample + violations at ``stamp``.

        Pure in (histogram state, stamp); shared by the periodic
        ``_check`` and the run-end ``finalize``.
        """
        shaped = stream.shaped
        observed = shaped.total
        tvd_intrinsic = stream.intrinsic.total_variation_distance(shaped)
        mi, mi_pairs, mi_degenerate = self._windowed_mi(stream)
        tvd_target: Optional[float] = None
        if stream.target is not None:
            tvd_target = 0.5 * sum(
                abs(a - b)
                for a, b in zip(shaped.frequencies(), stream.target)
            )
        auc: Optional[float] = None
        xcorr: Optional[float] = None
        detect_violations: List[DetectViolation] = []
        if self.detect:
            auc, xcorr = self._detect_scores(index, stream, stamp)
            for metric, value, threshold in (
                ("auc", auc, self.auc_threshold),
                ("xcorr", xcorr, self.xcorr_threshold),
            ):
                if value is not None and value > threshold:
                    detect_violations.append(DetectViolation(
                        cycle=stamp,
                        core_id=stream.core_id,
                        direction=stream.direction,
                        metric=metric,
                        value=value,
                        threshold=threshold,
                    ))
        sample = MonitorSample(
            cycle=stamp,
            core_id=stream.core_id,
            direction=stream.direction,
            events_observed=observed,
            tvd_target=tvd_target,
            tvd_intrinsic=tvd_intrinsic,
            mi_bits=mi,
            mi_pairs=mi_pairs,
            mi_degenerate=mi_degenerate,
            auc=auc,
            xcorr=xcorr,
        )
        violation: Optional[ShapingViolation] = None
        if (
            tvd_target is not None
            and observed >= self.min_events
            and tvd_target > self.tvd_threshold
        ):
            violation = ShapingViolation(
                cycle=stamp,
                core_id=stream.core_id,
                direction=stream.direction,
                tvd_target=tvd_target,
                threshold=self.tvd_threshold,
                events_observed=observed,
            )
        return sample, violation, detect_violations

    def _check(self, stamp: int) -> None:
        for index, stream in enumerate(self._streams):
            sample, violation, detect_violations = self._evaluate(
                index, stream, stamp
            )
            stream.pairs_at_check = self._paired(stream)
            self.history.append(sample)
            if self._metrics is not None:
                self._update_stream_gauges(sample)
            if violation is not None:
                self.violations.append(violation)
                if self._metrics is not None:
                    self._metrics.gauge("monitor.violations").set(
                        len(self.violations)
                    )
                if self.tracer.enabled:
                    self.tracer.emit(
                        stamp, CATEGORY_MONITOR, "monitor.violation",
                        core_id=stream.core_id,
                        direction=stream.direction,
                        tvd_target=round(violation.tvd_target, 6),
                        threshold=self.tvd_threshold,
                        events=violation.events_observed,
                    )
            for dv in detect_violations:
                self.detect_violations.append(dv)
                if self._metrics is not None:
                    self._metrics.gauge("detect.violations").set(
                        len(self.detect_violations)
                    )
                if self.tracer.enabled:
                    self.tracer.emit(
                        stamp, CATEGORY_DETECT, "detect.violation",
                        core_id=dv.core_id,
                        direction=dv.direction,
                        metric=dv.metric,
                        value=round(dv.value, 6),
                        threshold=dv.threshold,
                    )
        if self._metrics is not None:
            self._metrics.gauge("monitor.checkpoints").set(len(self.history))

    def finalize(self, cycle: int) -> None:
        """Evaluate the un-checked tail at run end (the final partial
        window the periodic schedule never reaches).

        A stream is finalized only when it accrued at least
        ``final_min_pairs`` new paired releases since its last periodic
        check — a smaller tail cannot support the estimators and would
        only add small-sample noise.

        Overwrite semantics: the ``final_*`` lists are REPLACED
        wholesale on every call, making finalize a pure function of
        histogram state at ``cycle``.  An interrupted run finalizes at
        the cut, but resuming and finalizing again at the true end
        converges to exactly the straight run's final state.  For the
        same reason finalize emits no trace events and touches no
        gauges — both are append-only / time-sampled and must stay
        byte-identical across engines and snapshot-resume paths.
        """
        samples: List[MonitorSample] = []
        violations: List[ShapingViolation] = []
        detect_violations: List[DetectViolation] = []
        for index, stream in enumerate(self._streams):
            new_pairs = self._paired(stream) - stream.pairs_at_check
            if new_pairs < self.final_min_pairs:
                continue
            sample, violation, dvs = self._evaluate(index, stream, cycle)
            samples.append(sample)
            if violation is not None:
                violations.append(violation)
            detect_violations.extend(dvs)
        self.final_samples = samples
        self.final_violations = violations
        self.final_detect_violations = detect_violations

    @property
    def violation_count(self) -> int:
        """Total guarantee breaches: periodic checks + run-end tail."""
        return len(self.violations) + len(self.final_violations)

    @property
    def detect_violation_count(self) -> int:
        """Total zoo-attacker breaches: periodic checks + run-end tail."""
        return len(self.detect_violations) + len(self.final_detect_violations)

    def flag_degraded(
        self,
        cycle: int,
        core_id: int,
        direction: str,
        reason: str,
        detail: str = "",
    ) -> DegradedMode:
        """Record a graceful-degradation activation (pushed by the
        degrading component, not polled at checkpoints, so the flag is
        stamped at the exact cycle the policy flipped)."""
        mode = DegradedMode(
            cycle=cycle,
            core_id=core_id,
            direction=direction,
            reason=reason,
            detail=detail,
        )
        self.degradations.append(mode)
        if self._metrics is not None:
            self._metrics.gauge("monitor.degradations").set(
                len(self.degradations)
            )
        if self.tracer.enabled:
            self.tracer.emit(
                cycle, CATEGORY_MONITOR, "monitor.degraded",
                core_id=core_id,
                direction=direction,
                reason=reason,
            )
        return mode

    def _windowed_mi(
        self, stream: _WatchedStream
    ) -> Tuple[float, int, bool]:
        """Plug-in MI over the last ``mi_window`` paired releases.

        Returns ``(mi_bits, pairs_evaluated, degenerate)``.  The window
        is *degenerate* — MI is a vacuous 0.0, not evidence of no
        leakage — when fewer than two pairs exist or either marginal
        collapsed into a single bin (a constant sequence has zero
        entropy, so its MI with anything is identically zero no matter
        how much the streams actually co-vary at finer granularity).
        """
        from repro.security.mutual_information import mutual_information_bits

        intrinsic_gaps = stream.intrinsic.gaps
        shaped_gaps = stream.shaped.gaps
        paired = min(len(intrinsic_gaps), len(shaped_gaps))
        if paired < 2:
            return 0.0, paired, True
        start = max(0, paired - self.mi_window)
        spec = stream.shaped.spec
        x = [spec.bin_of(g) for g in intrinsic_gaps[start:paired]]
        y = [spec.bin_of(g) for g in shaped_gaps[start:paired]]
        degenerate = len(set(x)) <= 1 or len(set(y)) <= 1
        return mutual_information_bits(x, y), len(x), degenerate

    # -- reporting -----------------------------------------------------------

    def latest(
        self, core_id: int, direction: str
    ) -> Optional[MonitorSample]:
        """The most recent checkpoint for one stream, if any."""
        for sample in reversed(self.history):
            if sample.core_id == core_id and sample.direction == direction:
                return sample
        return None

    def final_for(
        self, core_id: int, direction: str
    ) -> Optional[MonitorSample]:
        """The run-end partial-window sample for one stream, if any."""
        for sample in self.final_samples:
            if sample.core_id == core_id and sample.direction == direction:
                return sample
        return None

    def _display_sample(
        self, core_id: int, direction: str
    ) -> Optional[MonitorSample]:
        """Freshest view of one stream: the run-end tail sample when it
        postdates the last periodic checkpoint, else the checkpoint."""
        checked = self.latest(core_id, direction)
        final = self.final_for(core_id, direction)
        if final is None:
            return checked
        if checked is None or final.cycle >= checked.cycle:
            return final
        return checked

    def summary_rows(self) -> List[List[object]]:
        """Latest estimate per stream (for the stats CLI).

        Base columns are [core, direction, events, tvd_target,
        tvd_intrinsic, mi]; two detect columns (auc, xcorr) are
        appended only when detect checks are enabled.  A degenerate MI
        window renders as ``insufficient_support`` rather than a clean
        0.0000 — zero evidence is not evidence of zero leakage.
        """
        rows: List[List[object]] = []
        for stream in self._streams:
            sample = self._display_sample(stream.core_id, stream.direction)
            if sample is None:
                continue
            row: List[object] = [
                sample.core_id,
                sample.direction,
                sample.events_observed,
                "-" if sample.tvd_target is None
                else f"{sample.tvd_target:.4f}",
                f"{sample.tvd_intrinsic:.4f}",
                "insufficient_support" if sample.mi_degenerate
                else f"{sample.mi_bits:.4f}",
            ]
            if self.detect:
                row.append(
                    "-" if sample.auc is None else f"{sample.auc:.4f}"
                )
                row.append(
                    "-" if sample.xcorr is None else f"{sample.xcorr:.4f}"
                )
            rows.append(row)
        return rows
