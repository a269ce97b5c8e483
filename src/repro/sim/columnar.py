"""Columnar engine: cached station horizons, selective ticks.

:meth:`System.run <repro.sim.system.System.run>` drives this engine by
default (``engine="columnar"``); ``engine="cycle"`` runs the plain
per-cycle :meth:`System.tick <repro.sim.system.System.tick>`, kept as
the independent reference.  The run loop in ``System.run`` owns the
watchdog, checkpoints and profiler bracketing; this module supplies
its three moves: :meth:`ColumnarEngine.step` (one stepped cycle),
:meth:`ColumnarEngine.refresh_horizons` and
:meth:`ColumnarEngine.next_target` (how far the clock may jump).

Station model
-------------
Every pipeline stage of :meth:`System.tick` is a *station* with a slot
in the horizon list, in tick order::

    slot     station
    -------  -------------------
    0..n-1   cores
    n..2n-1  request paths
    2n       request link
    2n+1     memory controller
    2n+2..   response paths
    3n+2     response link
    3n+3     fault injector       (only when wired)

Each stepped cycle runs a station iff its cached horizon is due
(``horizon <= cycle``) **or** an upstream station fed it this cycle
(a core that ran feeds its request path; any request path feeds the
request link; fresh enqueues feed the controller; egress pops feed a
response path; any response path feeds the response link).  A station
that runs — or receives input — is marked *dirty* and only dirty
slots have ``next_event_cycle`` re-polled after the tick; clean
horizons stay cached, so the per-cycle cost follows the number of
stations that actually changed, not the station count.

Bit-identity
------------
The engine is bit-identical to ``engine="cycle"`` by construction:

* The clock only jumps over spans in which no station can change
  state: every cached horizon is in the future, and no cross-station
  coupling has same-cycle work (staged requests the controller can
  take, egress responses a path can buffer).  Jumps are capped at the
  watchdog horizon and checkpoint boundaries, so both fire on the
  same cycles as under the per-cycle loop.
* Within a stepped cycle, stations run in exactly the
  :meth:`System.tick` order; a *skipped* station's tick would have
  been a pure no-op (its horizon is in the future and nothing fed it),
  except for per-cycle bookkeeping — cores and request paths replay
  that via their ``skip_idle(cycle, cycle + 1)`` contracts, exactly as
  :meth:`System._skip_idle_span` does across longer spans.
* Any cycle on which the fault injector may act falls back to the full
  :meth:`System.tick` (and marks every station dirty), so fault
  scenarios execute the injection order unchanged.

Scheduler contract note: skipping the controller on event-free cycles
assumes ``Scheduler.tick`` is pure bookkeeping that tolerates not
being called on cycles where no transaction can advance; every shipped
scheduler's ``tick`` is a no-op hook.
"""

from __future__ import annotations

from typing import List, Optional

#: Cached horizon of a station with no pending event (int64 max).
NO_EVENT = (1 << 63) - 1


class ColumnarEngine:
    """The stepping state of one :meth:`System.run` window.

    Built fresh per ``run()`` call (systems can be reconfigured between
    windows, e.g. by the GA) and held only by the run loop, never by
    the System, so checkpoints pickle the System exactly as under the
    per-cycle engine.
    """

    def __init__(self, system) -> None:
        self.system = system
        n = len(system.cores)
        self._n = n
        self._req0 = n
        self._reqlink = 2 * n
        self._ctrl = 2 * n + 1
        self._resp0 = 2 * n + 2
        self._resplink = 3 * n + 2
        stations: List = list(system.cores)
        stations.extend(system.request_paths)
        stations.append(system.request_link)
        stations.append(system.controller)
        stations.extend(system.response_paths)
        stations.append(system.response_link)
        self._inj: Optional[int] = None
        if system._fault_hooks:
            stations.append(system.resilience.injector)
            self._inj = len(stations) - 1
        self._stations = stations
        size = len(stations)
        self._size = size

        # Cached ``next_event_cycle`` per station and its re-poll flag.
        self._h: List[int] = [NO_EVENT] * size
        self._dirty: List[bool] = [True] * size
        self._next_event = [s.next_event_cycle for s in stations]
        self._core_tick = [c.tick for c in system.cores]
        self._core_skip = [c.skip_idle for c in system.cores]
        self._path_tick = [p.tick for p in system.request_paths]
        self._path_skip = [
            getattr(p, "skip_idle", None) for p in system.request_paths
        ]
        self._resp_tick = [p.tick for p in system.response_paths]
        # Request-path buffer occupancy before the cores run, compared
        # after: a change means the core fed the path this cycle.
        self._path_occ = [0] * n
        self._done = [c.done for c in system.cores]
        self._undone = sum(1 for d in self._done if not d)

        # Engine self-profiler (repro.obs.profile).  ``None`` keeps
        # every instrumentation site behind a single falsy local check
        # so the disabled path stays at branch cost.
        obs = system.observability
        self._prof = obs.profiler if obs is not None else None
        names = (
            [f"core{i}" for i in range(n)]
            + [f"req_path{i}" for i in range(n)]
            + ["req_link", "memctrl"]
            + [f"resp_path{i}" for i in range(n)]
            + ["resp_link"]
        )
        if self._inj is not None:
            names.append("injector")
        self._station_names = names

    def all_done(self) -> bool:
        """Every core has finished its trace."""
        return not self._undone

    # -- horizon maintenance ---------------------------------------------

    def refresh_horizons(self, cycle: int) -> None:
        """Re-poll ``next_event_cycle`` for dirty stations only."""
        h = self._h
        dirty = self._dirty
        poll = self._next_event
        prof = self._prof
        repolled = 0
        for i in range(self._size):
            if dirty[i]:
                event = poll[i](cycle)
                h[i] = NO_EVENT if event is None else event
                dirty[i] = False
                repolled += 1
        if prof is not None:
            prof.record_horizon_refresh(repolled)

    def _mark_all_dirty(self) -> None:
        dirty = self._dirty
        for i in range(self._size):
            dirty[i] = True

    # -- stepping --------------------------------------------------------

    def step(self) -> None:
        """One stepped cycle: run due/fed stations in tick order."""
        sys_ = self.system
        cycle = sys_.current_cycle
        h = self._h
        dirty = self._dirty
        n = self._n
        prof = self._prof
        names = self._station_names

        if self._inj is not None and h[self._inj] <= cycle:
            # The injector may mutate arbitrary stations this cycle
            # (bursts into shapers, staging floods, link stalls); run
            # the canonical full tick and re-poll everything.
            if prof is not None:
                prof.record_full_tick_fallback()
                prof.record_station("injector", ticks=1)
            sys_.tick()
            self._mark_all_dirty()
            done = self._done
            undone = 0
            for i, core in enumerate(sys_.cores):
                done[i] = core.done
                if not done[i]:
                    undone += 1
            self._undone = undone
            return

        stations = self._stations
        done = self._done
        path_occ = self._path_occ
        req0 = self._req0
        for i in range(n):
            path_occ[i] = stations[req0 + i].occupancy
            if done[i]:
                continue
            if h[i] <= cycle:
                self._core_tick[i](cycle)
                dirty[i] = True
                if prof is not None:
                    prof.record_station(names[i], ticks=1)
                if stations[i].done:
                    done[i] = True
                    self._undone -= 1
            else:
                # Provably a bookkeeping-only cycle for this core:
                # replay it in closed form (same contract the span
                # skip uses, over a one-cycle span).
                self._core_skip[i](cycle, cycle + 1)
                if prof is not None:
                    prof.record_station(names[i], skips=1)

        any_path_ran = False
        for i in range(n):
            j = req0 + i
            if h[j] <= cycle or stations[j].occupancy != path_occ[i]:
                self._path_tick[i](cycle)
                dirty[j] = True
                any_path_ran = True
                if prof is not None:
                    prof.record_station(names[j], ticks=1)
            else:
                skip = self._path_skip[i]
                if skip is not None:
                    skip(cycle, cycle + 1)
                if prof is not None:
                    prof.record_station(names[j], skips=1)

        controller = sys_.controller
        staging = sys_._mc_staging
        j = self._reqlink
        if h[j] <= cycle or any_path_ran:
            link = sys_.request_link
            link.tick(
                cycle,
                dest_ready=controller.can_accept() and not staging,
            )
            dirty[j] = True
            if prof is not None:
                prof.record_station("req_link", ticks=1)
            for txn in link.pop_arrivals(cycle):
                staging.append(txn)
        elif prof is not None:
            prof.record_station("req_link", skips=1)

        fed_controller = False
        if staging and controller.can_accept():
            while staging and controller.can_accept():
                controller.enqueue(staging.popleft(), cycle)
            fed_controller = True
        if h[self._ctrl] <= cycle or fed_controller:
            controller.tick(cycle)
            dirty[self._ctrl] = True
            if prof is not None:
                prof.record_station("memctrl", ticks=1)
        elif prof is not None:
            prof.record_station("memctrl", skips=1)

        any_resp_ran = False
        for i in range(n):
            j = self._resp0 + i
            path = stations[j]
            fed_path = False
            if controller.pending_response_count(i):
                while path.can_accept():
                    popped = controller.pop_responses(i, limit=1)
                    if not popped:
                        break
                    path.push_response(popped[0], cycle)
                    fed_path = True
                if fed_path:
                    # Freed egress room can unfence this core's
                    # transactions; the controller's horizon must be
                    # re-polled even if it did not run.
                    dirty[self._ctrl] = True
            if h[j] <= cycle or fed_path:
                self._resp_tick[i](cycle)
                dirty[j] = True
                any_resp_ran = True
                if prof is not None:
                    prof.record_station(names[j], ticks=1)
            elif prof is not None:
                prof.record_station(names[j], skips=1)

        j = self._resplink
        if h[j] <= cycle or any_resp_ran:
            link = sys_.response_link
            link.tick(cycle)
            dirty[j] = True
            if prof is not None:
                prof.record_station("resp_link", ticks=1)
            for txn in link.pop_arrivals(cycle):
                sys_._deliver(txn, cycle)
                core_id = txn.core_id
                # A fill wakes the core and may queue writebacks into
                # its request path.
                dirty[core_id] = True
                dirty[self._req0 + core_id] = True
        elif prof is not None:
            prof.record_station("resp_link", skips=1)

        if sys_._obs_cycle_hooks:
            sys_.observability.on_cycle_end(cycle)
        sys_.current_cycle = cycle + 1

    def next_target(self, limit: int) -> Optional[int]:
        """The cycle the next step must run at, or ``None`` to not skip.

        Call right after :meth:`refresh_horizons`.  A due horizon or a
        cross-station coupling with same-cycle work pins the clock to
        per-cycle stepping; otherwise the earliest cached horizon,
        capped at ``limit``, is the next cycle anything can change.
        """
        sys_ = self.system
        earliest = min(self._h)
        if earliest <= sys_.current_cycle:
            return None
        controller = sys_.controller
        if sys_._mc_staging and controller.can_accept():
            return None
        response_paths = sys_.response_paths
        for i in range(self._n):
            if response_paths[i].can_accept() and (
                controller.pending_response_count(i)
            ):
                return None
        return earliest if earliest < limit else limit
