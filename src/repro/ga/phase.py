"""Online program-phase detection for GA reconfiguration triggers.

The paper's online GA reconfigures "after a fixed amount of time or
after a program phase change" (section IV-C).  This module supplies
the phase-change signal: a windowed CUSUM-style detector over a core's
memory demand rate.

The detector is deliberately hardware-plausible: it needs one counter
(misses this window), an EWMA register, and a comparison — the kind of
logic that fits next to the shaper's credit registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class PhaseDetectorConfig:
    """Detection knobs.

    A phase change fires when the current window's demand deviates
    from the EWMA baseline by more than ``threshold_ratio`` (relative)
    *and* at least ``min_abs_delta`` events (absolute floor, so idle
    noise does not trigger), with a ``holdoff_windows`` refractory
    period after each detection while the EWMA re-converges.
    """

    window_cycles: int = 2048
    ewma_alpha: float = 0.25
    threshold_ratio: float = 0.6
    min_abs_delta: float = 4.0
    holdoff_windows: int = 2

    def __post_init__(self) -> None:
        if self.window_cycles <= 0:
            raise ConfigurationError("window_cycles must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        if self.threshold_ratio <= 0:
            raise ConfigurationError("threshold_ratio must be positive")
        if self.min_abs_delta < 0:
            raise ConfigurationError("min_abs_delta must be non-negative")
        if self.holdoff_windows < 0:
            raise ConfigurationError("holdoff_windows must be non-negative")


class PhaseDetector:
    """Streaming detector over per-window demand counts."""

    def __init__(self, config: Optional[PhaseDetectorConfig] = None) -> None:
        self.config = config or PhaseDetectorConfig()
        self._ewma: Optional[float] = None
        self._holdoff = 0
        self._window_count = 0
        self._next_boundary = self.config.window_cycles
        self.detections: List[int] = []  # cycles at which changes fired

    # -- event feed ------------------------------------------------------

    def note_demand(self) -> None:
        """One memory demand event in the current window."""
        self._window_count += 1

    def tick(self, cycle: int) -> bool:
        """Advance; returns True when a phase change fires this cycle."""
        fired = False
        while cycle >= self._next_boundary:
            fired |= self._close_window(self._next_boundary)
            self._next_boundary += self.config.window_cycles
        return fired

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next window boundary: the only cycle a detection can fire.

        Between boundaries the detector's observable state cannot
        change (``note_demand`` only bumps a counter read at the
        boundary), so this is a sound lower bound for the columnar
        engine's clock jumps (DESIGN.md §4).
        """
        return max(self._next_boundary, cycle)

    # -- internals -----------------------------------------------------------

    def _close_window(self, boundary_cycle: int) -> bool:
        count = float(self._window_count)
        self._window_count = 0
        cfg = self.config
        if self._ewma is None:
            self._ewma = count
            return False
        fired = False
        if self._holdoff > 0:
            self._holdoff -= 1
        else:
            baseline = self._ewma
            delta = abs(count - baseline)
            relative = delta / max(baseline, 1.0)
            if relative >= cfg.threshold_ratio and delta >= cfg.min_abs_delta:
                fired = True
                self.detections.append(boundary_cycle)
                self._holdoff = cfg.holdoff_windows
                # Snap the baseline to the new level immediately so the
                # same transition does not re-fire after the holdoff.
                self._ewma = count
        self._ewma = (
            cfg.ewma_alpha * count + (1.0 - cfg.ewma_alpha) * self._ewma
        )
        return fired

    @property
    def baseline(self) -> Optional[float]:
        """Current EWMA demand per window (None until the first closes)."""
        return self._ewma


def detect_phases_from_timestamps(
    timestamps, total_cycles: int,
    config: Optional[PhaseDetectorConfig] = None,
) -> List[int]:
    """Offline convenience: run the detector over an event timeline."""
    detector = PhaseDetector(config)
    events = sorted(timestamps)
    index = 0
    for cycle in range(0, total_cycles + 1):
        while index < len(events) and events[index] <= cycle:
            detector.note_demand()
            index += 1
        detector.tick(cycle)
    return list(detector.detections)
