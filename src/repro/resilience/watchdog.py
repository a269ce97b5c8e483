"""Stall watchdog: detect no-progress livelock/deadlock, dump, abort.

Progress is defined exactly as the run loop always has: the sum of
retired instructions plus delivered real fills.  When that sum stays
flat for more than ``cycles`` consecutive cycles while cores still
have work, the system is wedged — an unserviceable shaping
configuration, a shaper↔memctrl queue cycle, or an injected fault —
and the watchdog aborts cleanly with a
:class:`~repro.common.errors.WatchdogError` carrying a structured
diagnostic dump (also emitted through :mod:`repro.obs` and optionally
written to a JSON file).

Engine note: under the columnar engine the run loop caps every clock
jump at :meth:`Watchdog.horizon`, so a frozen system still trips the
progress check at the same cycle the per-cycle loop would — skipped
spans are progress-free by construction, which keeps the two engines
bit-identical even in runs that abort.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.common.errors import WatchdogError
from repro.obs.events import CATEGORY_RESILIENCE
from repro.obs.tracer import NULL_TRACER


class Watchdog:
    """Forward-progress supervisor for one :meth:`System.run` call."""

    def __init__(self, cycles: int, dump_path: str = "",
                 tracer=NULL_TRACER) -> None:
        self.cycles = cycles
        self.dump_path = dump_path
        self.tracer = tracer
        self._last_progress_cycle = 0
        self._last_retired = 0
        self._last_delivered = 0
        self._metrics = None

    def bind_metrics(self, registry) -> None:
        """Mirror the near-stall margin into registry gauges.

        ``watchdog.stall_margin`` is the headroom left before the
        progress check trips — ``cycles - (current - last_progress)``;
        a value sliding toward zero on ``/metrics`` is the live
        warning that a shaping configuration is starving a core.  The
        margin depends on the observe cadence, which differs between
        engines, so the run loop binds this only when a serve
        publisher is attached — never in the deterministic
        cross-engine paths (the watchdog *trip* cycle itself stays
        engine-invariant regardless).
        """
        self._metrics = registry
        registry.gauge("watchdog.limit_cycles").set(self.cycles)
        registry.gauge("watchdog.stall_margin").set(self.cycles)

    def reset(self, system) -> None:
        """Re-arm against the system's current progress counters."""
        self._last_progress_cycle = system.current_cycle
        self._last_retired = sum(
            c.retired_instructions for c in system.cores
        )
        self._last_delivered = sum(len(lat) for lat in system._latencies)

    def horizon(self, cycle: int) -> int:
        """The furthest cycle a next-event skip may reach in one jump.

        Never past the point the progress check must run: a frozen
        (deadlocked) system must still trip it, exactly as the
        per-cycle loop would while spinning through the same span.
        """
        return max(cycle + 1, self._last_progress_cycle + self.cycles + 1)

    def observe(self, system) -> None:
        """Progress check; raises :class:`WatchdogError` on a stall."""
        retired = sum(c.retired_instructions for c in system.cores)
        delivered = sum(len(lat) for lat in system._latencies)
        if retired != self._last_retired or delivered != self._last_delivered:
            self._last_retired = retired
            self._last_delivered = delivered
            self._last_progress_cycle = system.current_cycle
            if self._metrics is not None:
                self._metrics.gauge("watchdog.stall_margin").set(self.cycles)
            return
        if self._metrics is not None:
            self._metrics.gauge("watchdog.stall_margin").set(
                self.cycles
                - (system.current_cycle - self._last_progress_cycle)
            )
        if (
            system.current_cycle - self._last_progress_cycle > self.cycles
            and not system.all_cores_done()
        ):
            self.trip(system)

    def trip(self, system) -> None:
        """Capture the diagnostic dump and abort."""
        pending = [
            (c.core_id, c.outstanding_misses,
             system.request_paths[c.core_id].occupancy)
            for c in system.cores
            if not c.done
        ]
        dump = diagnostic_dump(system, self.cycles)
        dump_path = ""
        if self.dump_path:
            dump_path = self.dump_path
            directory = os.path.dirname(dump_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, indent=2, sort_keys=True)
        if self.tracer.enabled:
            self.tracer.emit(
                system.current_cycle, CATEGORY_RESILIENCE, "watchdog.stall",
                stalled_for=self.cycles,
                pending_cores=len(pending),
            )
        raise WatchdogError(
            f"no forward progress for {self.cycles} cycles "
            f"at cycle {system.current_cycle}; pending cores "
            f"(id, outstanding, shaper occupancy): {pending} — "
            "likely an unserviceable shaping configuration",
            dump=dump,
            dump_path=dump_path,
        )


def diagnostic_dump(system, stalled_for: int = 0) -> Dict[str, Any]:
    """A JSON-serialisable picture of where the system is wedged.

    Covers every station of the pipeline a transaction can be stuck
    at: core miss state, shaper buffers and credit registers, NoC port
    occupancy, the controller's staging/transaction/write queues,
    in-flight bursts and per-core egress.
    """
    controller = system.controller
    cores = []
    for core in system.cores:
        path = system.request_paths[core.core_id]
        entry: Dict[str, Any] = {
            "core_id": core.core_id,
            "done": core.done,
            "retired_instructions": core.retired_instructions,
            "outstanding_misses": core.outstanding_misses,
            "request_path_occupancy": path.occupancy,
            "response_path_occupancy": system.response_paths[
                core.core_id
            ].occupancy,
            "egress_pending": controller.pending_response_count(core.core_id),
        }
        shaper = getattr(path, "shaper", None)
        if shaper is not None:
            entry["request_shaper"] = {
                "credits": list(shaper.credits_remaining()),
                "unused": list(shaper.unused_remaining()),
                "next_replenish_cycle": shaper.next_replenish_cycle,
                "degraded": shaper.degraded,
            }
        resp_shaper = getattr(
            system.response_paths[core.core_id], "shaper", None
        )
        if resp_shaper is not None:
            entry["response_shaper"] = {
                "credits": list(resp_shaper.credits_remaining()),
                "unused": list(resp_shaper.unused_remaining()),
                "next_replenish_cycle": resp_shaper.next_replenish_cycle,
                "degraded": resp_shaper.degraded,
            }
        cores.append(entry)
    dump: Dict[str, Any] = {
        "kind": "watchdog_dump",
        "cycle": system.current_cycle,
        "stalled_for": stalled_for,
        "cores": cores,
        "memctrl": {
            "can_accept": controller.can_accept(),
            "queue_depth": len(controller.queue),
            "queue_capacity": controller.queue.capacity,
            "write_queue_depth": (
                len(controller.write_queue)
                if controller.write_queue is not None
                else None
            ),
            "staging_depth": len(system._mc_staging),
            "in_flight": len(controller._in_flight),
            "refresh_pending": sorted(
                list(pair) for pair in controller._refresh_pending
            ),
        },
        "noc": {
            "request_link_grants": system.request_link.total_grants,
            "response_link_grants": system.response_link.total_grants,
        },
    }
    if system.resilience is not None and system.resilience.injector is not None:
        dump["faults"] = system.resilience.injector.stats()
    return dump
