"""In-memory span recorder and the wrappers that time repro's layers.

Every boundary is timed from outside: the wrappers replace public
functions and methods of ``repro`` at run time and put the originals
back afterwards, so nothing under ``src/`` knows it is being measured.

Two kinds of boundary:

* *coarse* spans (trace generation, system build, engine run, MI,
  detect, executor map, result-cache I/O, pool tasks) are kept as
  records with name, layer, start, end, parent and call id, and are
  written out as a Chrome trace;
* *hot* spans (station ``tick`` methods, cache-hierarchy accesses,
  DRAM timing checks and command issue) run millions of times per
  pass, so they only add to their layer's self time and call count.

Self time follows the usual rule: a span's duration minus the part of
it that its child spans cover.  Times come from ``time.monotonic_ns``
(``CLOCK_MONOTONIC`` on Linux), which pool workers share with the
parent, so worker spans can be placed inside the parent's map spans.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import monotonic_ns as _now
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers reported, in print order.  ``ga``, ``lint``, ``obs`` and
#: ``resilience`` are not measured as layers of their own.
LAYERS = (
    "analysis", "workloads", "sim", "cpu", "cache", "core", "noc",
    "memctrl", "dram", "security", "parallel",
)

#: Hot boundaries: (module, class, method, layer, count key).  A count
#: key of None times the method without counting it.
HOT = (
    ("repro.cpu.core", "Core", "tick", "cpu", "cpu.tick_calls"),
    ("repro.cache.hierarchy", "CacheHierarchy", "access", "cache",
     "cache.access_calls"),
    ("repro.cache.hierarchy", "CacheHierarchy", "fill", "cache", None),
    ("repro.core.request_shaper", "RequestCamouflage", "tick", "core",
     "core.tick_calls"),
    ("repro.core.request_shaper", "PassthroughShaper", "tick", "core",
     "core.tick_calls"),
    ("repro.core.response_shaper", "ResponseCamouflage", "tick", "core",
     "core.tick_calls"),
    ("repro.core.response_shaper", "PassthroughResponsePath", "tick",
     "core", "core.tick_calls"),
    ("repro.noc.link", "SharedLink", "tick", "noc", "noc.tick_calls"),
    ("repro.memctrl.controller", "MemoryController", "tick", "memctrl",
     "memctrl.tick_calls"),
    ("repro.dram.system", "DramSystem", "can_advance", "dram",
     "dram.timing_checks"),
    ("repro.dram.system", "DramSystem", "is_row_hit", "dram",
     "dram.timing_checks"),
    ("repro.dram.system", "DramSystem", "earliest_advance_cycle", "dram",
     "dram.timing_checks"),
    ("repro.dram.system", "DramSystem", "can_issue", "dram", None),
    ("repro.dram.system", "DramSystem", "issue", "dram", "dram.commands"),
)

#: Coarse module-level functions: (module, name, layer, span name).
COARSE_FUNCTIONS = (
    ("repro.workloads.spec", "make_trace", "workloads", "workloads.make_trace"),
    ("repro.security.mutual_information", "interarrival_mi", "security",
     "security.mi"),
    ("repro.security.mutual_information", "windowed_rate_mi", "security",
     "security.mi"),
    ("repro.security.detect", "detect_report", "security", "security.detect"),
)

#: Coarse methods: (module, class, method, layer, span name).
COARSE_METHODS = (
    ("repro.parallel.cache", "ResultCache", "get", "parallel",
     "parallel.cache_get"),
    ("repro.parallel.cache", "ResultCache", "put", "parallel",
     "parallel.cache_put"),
)

#: Span name of a pool task as recorded inside a worker.
TASK_SPAN = "parallel.task"


class Recorder:
    """Spans and counts of one process.

    ``spans`` holds coarse records ``[name, layer, start, end, parent,
    call, child_ns]``; ``parent`` is the index of the enclosing coarse
    record or -1.  ``self_ns`` is per layer, ``total_ns`` and ``counts``
    per span name or count key.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.trace_args: set = set()
        self.call: Optional[int] = None

    def begin(self, name: str, layer: str) -> list:
        parent = self.stack[-1][2] if self.stack else -1
        index = len(self.spans)
        record = [name, layer, 0, 0, parent, self.call, 0]
        self.spans.append(record)
        frame = [0, _now(), index, record]
        record[2] = frame[1]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = _now()
        self.stack.pop()
        record = frame[3]
        duration = end - frame[1]
        record[3] = end
        record[6] = frame[0]
        self.self_ns[record[1]] += duration - frame[0]
        self.total_ns[record[0]] += duration
        self.counts[record[0]] += 1
        if self.stack:
            self.stack[-1][0] += duration

    def state(self) -> Dict[str, Any]:
        """A JSON-ready copy of everything recorded so far."""
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "counts": dict(self.counts),
            "trace_args": sorted(self.trace_args),
        }


def _hot_wrapper(rec: Recorder, fn: Callable, layer: str,
                 key: Optional[str]) -> Callable:
    stack = rec.stack
    self_ns = rec.self_ns
    counts = rec.counts

    def wrapper(*args, **kwargs):
        frame = [0, _now(), stack[-1][2] if stack else -1]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _now() - frame[1]
            stack.pop()
            self_ns[layer] += duration - frame[0]
            if key is not None:
                counts[key] += 1
            if stack:
                stack[-1][0] += duration

    wrapper.__wrapped__ = fn
    return wrapper


def _span_wrapper(rec: Recorder, fn: Callable, layer: str, name: str,
                  on_exit: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        frame = rec.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(frame)
        if on_exit is not None:
            on_exit(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Replaced attributes, so they can all be put back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module.

        Modules that did ``from x import f`` hold their own binding, so
        each one that refers to the same object is patched.
        """
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _attr(module: str, qualname: str) -> Any:
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class EngineCounts:
    """EngineProfiler cycle counts summed over every ``System.run``."""

    def __init__(self) -> None:
        self.simulated = 0
        self.stepped = 0
        self.skipped = 0

    @staticmethod
    def mark(profiler) -> Tuple[int, int, int]:
        return (profiler.simulated_cycles, profiler.stepped_cycles,
                profiler.skipped_cycles)

    def add(self, profiler, before: Tuple[int, int, int]) -> None:
        self.simulated += profiler.simulated_cycles - before[0]
        self.stepped += profiler.stepped_cycles - before[1]
        self.skipped += profiler.skipped_cycles - before[2]


def _profiling_build(build: Callable) -> Callable:
    """``SystemBuilder.build`` that attaches the engine self-profiler."""

    def profiling_build(self, *args, **kwargs):
        self.with_observability(profile=True)
        return build(self, *args, **kwargs)

    profiling_build.__wrapped__ = build
    return profiling_build


def capture_reports(reports: List[Any]) -> Patches:
    """Collect every ``SystemReport`` returned by ``System.run``."""
    from repro.sim.system import System

    patches = Patches()
    run = System.run

    def capturing_run(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        reports.append(report)
        return report

    capturing_run.__wrapped__ = run
    patches.set(System, "run", capturing_run)
    return patches


def skip_engine(counts: EngineCounts) -> Patches:
    """Run every system on the columnar engine and count its skips.

    The cycle-skipping engines are bit-identical to the per-cycle one,
    so the share of cycles they jump over is the share of the run where
    no station can change state.
    """
    from repro.sim.system import System, SystemBuilder

    patches = Patches()
    patches.set(SystemBuilder, "build", _profiling_build(SystemBuilder.build))
    run = System.run

    def skipping_run(self, *args, **kwargs):
        kwargs["engine"] = "columnar"
        profiler = self.observability.profiler
        before = counts.mark(profiler)
        report = run(self, *args, **kwargs)
        counts.add(profiler, before)
        return report

    skipping_run.__wrapped__ = run
    patches.set(System, "run", skipping_run)
    return patches


def trace_layers(rec: Recorder, counts: EngineCounts,
                 reports: Optional[List[Any]] = None) -> Patches:
    """Wrap every layer boundary; returns the patches to undo it.

    Every built system also gets ``with_observability(profile=True)``
    so the engine's own stepped/skipped cycle counts are read at each
    ``System.run``.  ``reports`` collects the returned reports.
    """
    import repro.analysis.experiments  # noqa: F401  (load every binding)
    import repro.parallel.tasks  # noqa: F401
    from repro.parallel.executor import SweepExecutor
    from repro.sim.system import System, SystemBuilder

    patches = Patches()
    for module, cls, method, layer, key in HOT:
        owner = _attr(module, cls)
        patches.set(owner, method,
                    _hot_wrapper(rec, owner.__dict__[method], layer, key))

    def note_trace_args(args, kwargs, _result):
        rec.trace_args.add(json.dumps([list(args), sorted(kwargs.items())]))

    for module, name, layer, span in COARSE_FUNCTIONS:
        original = _attr(module, name)
        hook = note_trace_args if span == "workloads.make_trace" else None
        patches.replace_function(
            original, _span_wrapper(rec, original, layer, span, hook)
        )

    for module, cls, method, layer, span in COARSE_METHODS:
        owner = _attr(module, cls)
        patches.set(owner, method,
                    _span_wrapper(rec, owner.__dict__[method], layer, span))

    sweep_map = SweepExecutor.map

    def traced_map(self, *args, **kwargs):
        ran, cached = self.tasks_run, self.tasks_cached
        frame = rec.begin("parallel.map", "parallel")
        try:
            return sweep_map(self, *args, **kwargs)
        finally:
            rec.end(frame)
            rec.counts["parallel.tasks_run"] += self.tasks_run - ran
            rec.counts["parallel.tasks_cached"] += self.tasks_cached - cached

    patches.set(SweepExecutor, "map", traced_map)
    patches.set(SystemBuilder, "build", _span_wrapper(
        rec, _profiling_build(SystemBuilder.build), "sim", "sim.build"))

    run = System.run

    def traced_run(self, *args, **kwargs):
        profiler = self.observability.profiler
        before = counts.mark(profiler)
        frame = rec.begin("sim.run", "sim")
        try:
            report = run(self, *args, **kwargs)
        finally:
            rec.end(frame)
        counts.add(profiler, before)
        if reports is not None:
            reports.append(report)
        return report

    patches.set(System, "run", traced_run)
    return patches


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Environment variable naming the directory shared with pool workers.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
#: File in that directory whose presence switches worker tracing on.
TRACE_ON_FILE = "trace-on"


def install_worker_gate(trace_dir: str) -> None:
    """Wrap the pool's task functions inside a spawned worker.

    The parent pickles task functions by name, so the worker resolves
    them through ``repro.parallel.tasks`` and gets the gate instead.
    Until the parent creates the ``trace-on`` file the gate only
    forwards the call; from then on the worker records its layers and
    rewrites ``worker-<pid>.json`` after every task.
    """
    import repro.parallel.tasks as tasks

    state: Dict[str, Any] = {"rec": None}
    flag = os.path.join(trace_dir, TRACE_ON_FILE)
    dump = os.path.join(trace_dir, f"worker-{os.getpid()}.json")

    def gate(fn: Callable) -> Callable:
        def gated(payload, **kwargs):
            rec = state["rec"]
            if rec is None:
                if not os.path.exists(flag):
                    return fn(payload, **kwargs)
                rec = state["rec"] = Recorder()
                state["counts"] = EngineCounts()
                trace_layers(rec, state["counts"])
            frame = rec.begin(TASK_SPAN, "analysis")
            try:
                return fn(payload, **kwargs)
            finally:
                rec.end(frame)
                doc = rec.state()
                counts = state["counts"]
                doc["engine"] = [counts.simulated, counts.stepped,
                                 counts.skipped]
                tmp = dump + ".tmp"
                with open(tmp, "w") as handle:
                    json.dump(doc, handle)
                os.replace(tmp, dump)

        gated.__wrapped__ = fn
        return gated

    for name in dir(tasks):
        fn = getattr(tasks, name)
        if name.endswith("_task") and callable(fn):
            setattr(tasks, name, gate(fn))


def read_worker_states(trace_dir: str) -> List[Dict[str, Any]]:
    states = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as handle:
                states.append(json.load(handle))
    return states
