"""The repo benchmark: three paper-figure workloads, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mix-busy --seed 42 --seconds 30 --trace 0

``--trace 0`` repeats passes of the workload for about ``--seconds``
and prints the end-to-end metrics (medians over passes).  ``--trace 1``
runs one untraced pass, one pass on a cycle-skipping engine and one
traced pass, and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object; every operation's output
is checked against the digests in ``digests.json``.  README.md in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, SRC)

import proc_stats  # noqa: E402
import span_recorder as spans  # noqa: E402
import workload_defs as wl  # noqa: E402

#: Set-up is measured this many times per run, once before each pass
#: and the rest after the last one; the median is reported.  Spreading
#: the probes over the run lets them see the same host drift as the
#: passes do.
SETUP_PROBES = 9

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in spans.LAYERS]
    + [
        ("sim.run_s", "s", "lower"),
        ("sim.build_s", "s", "lower"),
        ("sim.cycles_simulated", "count", "lower"),
        ("sim.cycles_stepped", "count", "lower"),
        ("sim.cycles_skipped", "count", "higher"),
        ("sim.skip_ratio", "ratio", "higher"),
        ("sim.skippable_ratio", "ratio", "higher"),
        ("sim.kcycles_per_s", "kcycles/s", "higher"),
        ("cpu.tick_calls", "count", "lower"),
        ("cache.access_calls", "count", "lower"),
        ("core.tick_calls", "count", "lower"),
        ("noc.tick_calls", "count", "lower"),
        ("memctrl.tick_calls", "count", "lower"),
        ("dram.timing_checks", "count", "lower"),
        ("dram.commands", "count", "lower"),
        ("dram.command_per_check", "ratio", "higher"),
        ("workloads.make_trace_calls", "count", "lower"),
        ("workloads.make_trace_distinct", "count", "lower"),
        ("workloads.make_trace_s", "s", "lower"),
        ("security.mi_calls", "count", "lower"),
        ("security.mi_s", "s", "lower"),
        ("security.detect_calls", "count", "lower"),
        ("security.detect_s", "s", "lower"),
        ("parallel.map_s", "s", "lower"),
        ("parallel.map_self_s", "s", "lower"),
        ("parallel.tasks_run", "count", "lower"),
        ("parallel.tasks_cached", "count", "higher"),
        ("parallel.cache_get_s", "s", "lower"),
        ("parallel.cache_put_s", "s", "lower"),
        ("parallel.replay_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

_NS = 1e-9


def worker_pid(_payload):
    """Pool task used to see that every worker is up."""
    return os.getpid()


def warm_pool() -> None:
    """Spawn the executor's worker pool and wait until every worker
    has imported the simulator and answered."""
    from repro.parallel import SweepExecutor

    executor = SweepExecutor(jobs=wl.JOBS)
    seen = set()
    deadline = time.monotonic() + 120
    while len(seen) < wl.JOBS:
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not start")
        seen.update(executor.map(worker_pid, list(range(wl.JOBS))))


def get_ready(workload: str) -> None:
    """Set-up: import the layers and, on ``sweep-fanout``, warm the pool."""
    wl.import_layers()
    if workload == "sweep-fanout":
        warm_pool()


def measure_setup(workload: str, probes: int = 1) -> list:
    """Seconds from starting a fresh interpreter to ready, per probe.

    A probe stops its own pool before it exits; one that fails or hangs
    is killed, and its workers and resource tracker end when they see
    it gone."""
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        probe = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        code = None
        try:
            line = probe.stdout.readline()
            samples.append(time.monotonic() - start)
            probe.stdout.read()
            code = probe.wait(timeout=120)
        finally:
            if code is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return samples


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    That is the executor's pool workers, shut down through the pool so
    its manager thread ends too, and the ``multiprocessing`` resource
    tracker that spawning them started.  Left to interpreter exit, both
    outlive this process by a moment."""
    executor = sys.modules.get("repro.parallel.executor")
    pool = getattr(executor, "_POOL", None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    for child in multiprocessing.active_children():
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Checker:
    """Compares operation outputs with the recorded digests."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, result, note: str = "",
              same_reports: bool = True) -> None:
        """``same_reports`` is False when a traced operation's
        SystemReports differ from its untraced run."""
        self.attempted += 1
        if not same_reports:
            self.fail(label + note, "a SystemReport differs from the "
                      "untraced pass")
            return
        if isinstance(result, BaseException):
            self.fail(label + note,
                      f"raised {type(result).__name__}: {result}")
            return
        got = wl.digest(result)
        want = self.expected.get(wl.op_key(label))
        if got != want:
            self.fail(label + note, f"output digest {got}, recorded {want}")

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}")


def run_ops(ops, rec=None, reports=None):
    """Run one pass; returns ``(wall_s, results)``.

    A raising operation is recorded as its exception and the pass goes
    on.  With a recorder each operation is a root span with its own
    call id.  With a ``reports`` list (filled by a ``System.run``
    wrapper), each result is paired with the reports of its operation.
    """
    results = []
    start = time.monotonic()
    for index, (label, call) in enumerate(ops):
        frame = None
        if rec is not None:
            rec.call = index
            frame = rec.begin(f"call:{label}", "analysis")
        first = len(reports) if reports is not None else 0
        try:
            results.append(call())
        except Exception as exc:  # recorded as a failed operation
            traceback.print_exc()
            results.append(exc)
        finally:
            if frame is not None:
                rec.end(frame)
        if reports is not None:
            reports[first:] = [tuple(reports[first:])]
    return time.monotonic() - start, results


def timed_run(args, seed, scratch, checker):
    walls, cpus, setups = [], [], []
    start = time.monotonic()
    while True:
        setups += measure_setup(args.workload)
        ops = wl.pass_ops(args.workload, seed, scratch)
        cpu_before = proc_stats.cpu_times()
        wall, results = run_ops(ops)
        cpus.append(proc_stats.cpu_delta(cpu_before, proc_stats.cpu_times()))
        walls.append(wall)
        for (label, _), result in zip(ops, results):
            checker.check(label, result)
        wl.clear_scratch(scratch)
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * statistics.median(walls) >= args.seconds:
            break
    setups += measure_setup(args.workload,
                            max(1, SETUP_PROBES - len(setups)))
    print(f"passes {len(walls)}: wall_s "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"set-up probes {len(setups)}: setup_s "
          + " ".join(f"{w:.3f}" for w in setups))
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": proc_stats.peak_rss_mib(),
    }


def _report_digests(reports):
    from repro.sim.stats import report_digest

    return [report_digest(report) for report in reports]


def traced_run(args, seed, scratch, checker):
    """Untraced pass, skipping-engine pass, traced pass; per-layer metrics."""
    # 1. Untraced, keeping every SystemReport for the identity check.
    plain_reports = []
    patches = spans.capture_reports(plain_reports)
    try:
        ops = wl.pass_ops(args.workload, seed, scratch)
        untraced_wall, results = run_ops(ops, reports=plain_reports)
    finally:
        patches.restore()
    for (label, _), result in zip(ops, results):
        checker.check(label, result)
    wl.clear_scratch(scratch)

    # 2. The share of cycles a skipping engine jumps over.  jobs=1 keeps
    #    every run in this process; outputs must not change.
    skip_counts = spans.EngineCounts()
    patches = spans.skip_engine(skip_counts)
    try:
        ops = [op for op in wl.pass_ops(args.workload, seed, scratch, jobs=1)
               if not op[0].endswith(":warm")]
        _, results = run_ops(ops)
    finally:
        patches.restore()
    for (label, _), result in zip(ops, results):
        checker.check(label, result, " (columnar, jobs=1)")
    wl.clear_scratch(scratch)

    # 3. Traced, here and in the pool workers.
    rec = spans.Recorder()
    engine = spans.EngineCounts()
    traced_reports = []
    open(os.path.join(scratch, spans.TRACE_ON_FILE), "w").close()
    patches = spans.trace_layers(rec, engine, traced_reports)
    try:
        ops = wl.pass_ops(args.workload, seed, scratch)
        traced_wall, results = run_ops(ops, rec, traced_reports)
    finally:
        patches.restore()
    for (label, _), result, plain, traced in zip(
            ops, results, plain_reports, traced_reports):
        checker.check(label, result, " (traced)", _report_digests(plain)
                      == _report_digests(traced))

    workers = spans.read_worker_states(scratch)
    wl.clear_scratch(scratch)
    metrics = layer_metrics(rec, workers, engine, skip_counts)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    path = write_chrome_trace(rec, workers, args)
    print(f"chrome trace: {os.path.relpath(path, ROOT)}")
    return metrics


# ---------------------------------------------------------------------------
# per-layer arithmetic
# ---------------------------------------------------------------------------


def _union_ns(intervals):
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(rec, workers, engine, skip_counts):
    states = [rec.state()] + workers
    self_ns = {layer: 0 for layer in spans.LAYERS}
    total_ns, counts = {}, {}
    trace_args = set()
    for state in states:
        for key, value in state["self_ns"].items():
            self_ns[key] = self_ns.get(key, 0) + value
        for key, value in state["total_ns"].items():
            total_ns[key] = total_ns.get(key, 0) + value
        for key, value in state["counts"].items():
            counts[key] = counts.get(key, 0) + value
        trace_args.update(state["trace_args"])
    simulated, stepped, skipped = (engine.simulated, engine.stepped,
                                   engine.skipped)
    for state in workers:
        simulated += state["engine"][0]
        stepped += state["engine"][1]
        skipped += state["engine"][2]

    # A map's self time is what neither its own children here nor any
    # worker task covers: pickling, queueing and idle waits.
    tasks = [(span[2], span[3]) for state in workers
             for span in state["spans"] if span[0] == spans.TASK_SPAN]
    map_ns = map_self_ns = parent_cover_ns = 0
    for index, span in enumerate(rec.spans):
        if span[0] != "parallel.map":
            continue
        start, end = span[2], span[3]
        children = [(c[2], c[3]) for c in rec.spans if c[4] == index]
        clipped = [(max(s, start), min(e, end)) for s, e in tasks
                   if s < end and e > start]
        covered = _union_ns(children + clipped)
        map_ns += end - start
        map_self_ns += end - start - covered
        parent_cover_ns += covered - sum(e - s for s, e in children)
    self_ns["parallel"] -= parent_cover_ns

    replay_ns = sum(span[3] - span[2] for span in rec.spans
                    if span[0].startswith("call:") and span[0].endswith(":warm"))
    run_s = total_ns.get("sim.run", 0) * _NS
    checks = counts.get("dram.timing_checks", 0)
    metrics = {f"{layer}.self_s": self_ns[layer] * _NS for layer in spans.LAYERS}
    metrics.update({
        "sim.run_s": run_s,
        "sim.build_s": total_ns.get("sim.build", 0) * _NS,
        "sim.cycles_simulated": simulated,
        "sim.cycles_stepped": stepped,
        "sim.cycles_skipped": skipped,
        "sim.skip_ratio": skipped / simulated if simulated else 0.0,
        "sim.skippable_ratio": (skip_counts.skipped / skip_counts.simulated
                                if skip_counts.simulated else 0.0),
        "sim.kcycles_per_s": simulated / run_s / 1000 if run_s else 0.0,
        "dram.command_per_check": (counts.get("dram.commands", 0) / checks
                                   if checks else 0.0),
        "workloads.make_trace_calls": counts.get("workloads.make_trace", 0),
        "workloads.make_trace_distinct": len(trace_args),
        "workloads.make_trace_s": total_ns.get("workloads.make_trace", 0) * _NS,
        "security.mi_calls": counts.get("security.mi", 0),
        "security.mi_s": total_ns.get("security.mi", 0) * _NS,
        "security.detect_calls": counts.get("security.detect", 0),
        "security.detect_s": total_ns.get("security.detect", 0) * _NS,
        "parallel.map_s": map_ns * _NS,
        "parallel.map_self_s": map_self_ns * _NS,
        "parallel.cache_get_s": total_ns.get("parallel.cache_get", 0) * _NS,
        "parallel.cache_put_s": total_ns.get("parallel.cache_put", 0) * _NS,
        "parallel.replay_s": replay_ns * _NS,
    })
    for key in ("cpu.tick_calls", "cache.access_calls", "core.tick_calls",
                "noc.tick_calls", "memctrl.tick_calls", "dram.timing_checks",
                "dram.commands", "parallel.tasks_run", "parallel.tasks_cached"):
        metrics[key] = counts.get(key, 0)
    return metrics


def write_chrome_trace(rec, workers, args) -> str:
    """Coarse spans of this process and the workers as a Chrome trace.

    Worker spans take the call id of the operation whose span encloses
    them in time."""
    calls = [(span[2], span[3], span[5]) for span in rec.spans
             if span[0].startswith("call:")]
    events = []
    for state in [rec.state()] + workers:
        pid = state["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": "benchmark" if pid == os.getpid()
                                else "pool worker"}})
        for index, (name, layer, start, end, parent, call, _child) in (
                enumerate(state["spans"])):
            if call is None:
                call = next((c for s, e, c in calls if s <= start and end <= e),
                            None)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": 0,
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"call": call, "span": index, "parent": parent},
            })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _unit(name: str) -> str:
    for metric, unit, _ in END_TO_END + PER_LAYER:
        if metric == name:
            return unit
    raise KeyError(name)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        try:
            get_ready(args.workload)
            print("ready", flush=True)
        finally:
            stop_children()
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.trace:
            # Pool workers read this when they start, in get_ready().
            os.environ[spans.TRACE_DIR_ENV] = scratch
        get_ready(args.workload)
        seed = wl.input_seed(args.seed)
        checker = Checker(wl.load_digests()[str(seed)][args.workload])
        print(f"workload {args.workload}  seed {args.seed}  "
              f"(experiment seed {seed})")
        if args.trace:
            metrics = traced_run(args, seed, scratch, checker)
            names = [name for name, _, _ in PER_LAYER]
        else:
            metrics = timed_run(args, seed, scratch, checker)
            names = [name for name, _, _ in END_TO_END]
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)

    for name in names:
        print(f"{name:32s} {metrics[name]:>16.6f} {_unit(name)}")
    error_rate = checker.failed / checker.attempted
    print(f"{'error_rate':32s} {error_rate:>16.6f} ratio "
          f"({checker.failed} of {checker.attempted} operations failed)")
    if args.trace:
        check_predictions(args.workload, metrics)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": _unit(name)}
                    for name in names},
    }))
    return 0


def check_predictions(workload: str, metrics) -> None:
    """Print how the trace compares with README.md's predictions."""
    checks = []
    security = sum(metrics[k] for k in ("security.mi_calls",
                                        "security.detect_calls"))
    if workload != "sweep-fanout":
        checks.append(("security.* is zero off sweep-fanout", security == 0))
    for name in ("sim.skip_ratio", "sim.skippable_ratio"):
        if workload == "solo-sparse":
            checks.append((f"{name} >= 0.8", metrics[name] >= 0.8))
        if workload == "mix-busy":
            checks.append((f"{name} <= 0.2", metrics[name] <= 0.2))
    for text, held in checks:
        print(f"prediction {'holds' if held else 'CONTRADICTED'}: {text}")


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(spans.TRACE_DIR_ENV):
    # A pool worker of a traced run (spawn re-imports this script).
    spans.install_worker_gate(os.environ[spans.TRACE_DIR_ENV])
