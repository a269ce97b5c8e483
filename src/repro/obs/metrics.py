"""Metrics: counters, gauges, histograms and the interval sampler.

The registry is a flat namespace of named instruments any component
can update; the :class:`IntervalSampler` turns registered *probes*
(zero-argument callables reading live simulator state) into a
time-series sampled every ``interval`` cycles.

Engine correctness
------------------

The sampler must produce the *same* series under ``engine="cycle"``
and ``engine="columnar"``.  Both engines call
:meth:`IntervalSampler.advance` at the end of every stepped cycle; the
columnar engine additionally calls :meth:`IntervalSampler.fill`
when it jumps the clock over a span in which no component can change
state.  Because nothing changes during a skipped span, extending the
current probe values across every sample boundary inside the span is
the exact closed form of what per-cycle stepping would have recorded —
*provided probes read only span-constant state* (queue depths, credit
registers, cumulative release/grant/row-hit counters).  Quantities
that accumulate inside ``skip_idle`` bookkeeping (per-cycle stall
counters) change mid-span and must not be probed; the default probe
set wired by ``repro.sim.system`` respects this.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError, MetricNameError

Number = Union[int, float]

#: Registered names may use letters, digits, ``_``, ``:`` and ``.``
#: (the repo's component namespacing separator) but must start with a
#: letter or underscore.  This is the Prometheus metric-name charset
#: plus ``.``, which the OpenMetrics exporter escapes to ``_`` at
#: render time (``repro.obs.export``); everything else — ``-``,
#: leading digits, whitespace — has no well-formed exposition and is
#: rejected at registration.
_METRIC_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.:]*\Z")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it can render as a Prometheus family.

    Raises :class:`~repro.common.errors.MetricNameError` otherwise —
    the typed registration-time guard that keeps the exporter from
    ever emitting a malformed family.
    """
    if not isinstance(name, str) or not _METRIC_NAME_RE.fullmatch(name):
        raise MetricNameError(
            f"invalid metric name {name!r}: must match "
            "[A-Za-z_][A-Za-z0-9_.:]* (no '-', no leading digit; '.' "
            "is escaped to '_' in the OpenMetrics exposition)",
            name=str(name),
        )
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram over explicit upper edges.

    ``edges`` are inclusive upper bounds; values above the last edge
    land in the overflow bucket, so ``counts`` has ``len(edges) + 1``
    entries.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Sequence[int]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ConfigurationError("histogram edges must be sorted, non-empty")
        self.name = name
        self.edges: Tuple[int, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0

    def record(self, value: int) -> None:
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def accumulate(
        self, counts: Sequence[int], total: int, value_sum: int
    ) -> None:
        """Add another histogram's buckets (same edges) into this one.

        The merge primitive the registry serializer uses to fold shard
        registries together (``repro.obs.export.merge_into``).
        """
        if len(counts) != len(self.counts):
            raise ConfigurationError(
                f"histogram {self.name!r}: cannot accumulate "
                f"{len(counts)} buckets into {len(self.counts)}"
            )
        for index, count in enumerate(counts):
            self.counts[index] += count
        self.total += total
        self.sum += value_sum

    def load(
        self, counts: Sequence[int], total: int, value_sum: int
    ) -> None:
        """Replace this histogram's contents (idempotent exports).

        Used by publishers that re-export an externally-maintained
        histogram (e.g. the engine profiler's skip-span counts) on
        every publish cadence: ``load`` sets absolute values where
        :meth:`accumulate` would double-count.
        """
        if len(counts) != len(self.counts):
            raise ConfigurationError(
                f"histogram {self.name!r}: cannot load {len(counts)} "
                f"buckets into {len(self.counts)}"
            )
        self.counts = list(counts)
        self.total = total
        self.sum = value_sum


class MetricsRegistry:
    """Flat, name-keyed registry of instruments.

    Re-requesting an existing name returns the same instrument (so
    components can be wired independently); requesting it as a
    different kind is an error.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: type, factory: Callable[[], object]):
        validate_metric_name(name)
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[int]) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, edges))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def as_dict(self) -> Dict[str, object]:
        """Plain-value snapshot (for reports and the stats CLI)."""
        out: Dict[str, object] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = {
                    "edges": list(instrument.edges),
                    "counts": list(instrument.counts),
                    "mean": instrument.mean(),
                }
            else:
                out[name] = instrument.value  # type: ignore[union-attr]
        return out


class IntervalSampler:
    """Samples registered probes every ``interval`` cycles.

    A sample stamped at cycle ``s`` reflects simulator state after the
    tick that ran at cycle ``s`` (or, in a skipped span, the closed-form
    extension of the state at the span's start — identical by the
    columnar engine's no-state-change guarantee).
    """

    def __init__(self, interval: int, limit: Optional[int] = None) -> None:
        if interval <= 0:
            raise ConfigurationError("sample interval must be positive")
        if limit is not None and limit <= 0:
            raise ConfigurationError("sample limit must be positive")
        self.interval = interval
        self._next = interval
        self._probes: List[Tuple[str, Callable[[], Number]]] = []
        from repro.obs.ring import RingBuffer

        self._samples: "RingBuffer[Tuple[int, Tuple[Number, ...]]]" = (
            RingBuffer(limit)
        )

    def add_probe(self, name: str, fn: Callable[[], Number]) -> None:
        """Register a probe; ``fn`` must read only span-constant state."""
        validate_metric_name(name)
        if any(existing == name for existing, _ in self._probes):
            raise ConfigurationError(f"duplicate probe name {name!r}")
        self._probes.append((name, fn))

    @property
    def probe_names(self) -> List[str]:
        return [name for name, _ in self._probes]

    @property
    def probes(self) -> List[Tuple[str, Callable[[], Number]]]:
        """(name, fn) pairs in registration order (for gauge export)."""
        return list(self._probes)

    @property
    def next_sample_cycle(self) -> int:
        return self._next

    def _take(self, stamp: int) -> None:
        self._samples.append(
            (stamp, tuple(fn() for _, fn in self._probes))
        )

    def advance(self, cycle: int) -> None:
        """Record every sample boundary up to ``cycle``.

        Called after the tick at ``cycle`` and, across a skipped span,
        with the span's last cycle: every boundary in the span gets the
        current probe values — exact because the columnar engine only
        skips spans in which no component state changes.
        """
        while cycle >= self._next:
            self._take(self._next)
            self._next += self.interval

    # -- accessors -----------------------------------------------------------

    @property
    def samples(self) -> List[Tuple[int, Tuple[Number, ...]]]:
        """(cycle, values) tuples, oldest first; values align with
        :attr:`probe_names`."""
        return self._samples.snapshot()

    @property
    def dropped(self) -> int:
        return self._samples.dropped

    def series(self, name: str) -> List[Tuple[int, Number]]:
        """The time-series of one probe as (cycle, value) pairs."""
        try:
            index = self.probe_names.index(name)
        except ValueError:
            raise ConfigurationError(f"unknown probe {name!r}") from None
        return [(cycle, values[index]) for cycle, values in self._samples]

    def rows(self) -> List[List[Number]]:
        """Table rows ``[cycle, v0, v1, ...]`` (for the stats CLI)."""
        return [
            [cycle, *values] for cycle, values in self._samples
        ]
