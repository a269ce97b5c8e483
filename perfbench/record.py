"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py [--seeds 42 7]

Runs one pass of every workload per seed on the default engine (with
the worker pool on ``sweep-fanout``), then again on the columnar engine
in one process, and writes ``digests.json`` only if both agree for
every operation — so switching the default engine, or the number of
workers, cannot change an output the benchmark expects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import span_recorder as spans  # noqa: E402
import workload_defs as wl  # noqa: E402


def run_pass(workload, seed, scratch, jobs):
    ops = wl.pass_ops(workload, seed, scratch, jobs=jobs)
    start = time.monotonic()
    digests = {}
    for label, call in ops:
        key = wl.op_key(label)
        got = wl.digest(call())
        if digests.setdefault(key, got) != got:
            raise SystemExit(f"{workload} seed {seed}: warm replay of {key} "
                             f"gave {got}, cold call {digests[key]}")
    wl.clear_scratch(scratch)
    return digests, time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*",
                        default=list(wl.INPUT_SEEDS))
    args = parser.parse_args(argv)
    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=out_dir)
    table = {}
    for seed in args.seeds:
        for workload in wl.WORKLOADS:
            default, wall = run_pass(workload, seed, scratch, wl.JOBS)
            patches = spans.skip_engine(spans.EngineCounts())
            try:
                columnar, col_wall = run_pass(workload, seed, scratch, 1)
            finally:
                patches.restore()
            if default != columnar:
                diff = sorted(k for k in default if default[k] != columnar.get(k))
                print(f"{workload} seed {seed}: columnar engine differs "
                      f"on {diff}", file=sys.stderr)
                return 1
            table.setdefault(str(seed), {})[workload] = default
            print(f"seed {seed:3d} {workload:13s} default {wall:7.2f}s  "
                  f"columnar/jobs=1 {col_wall:7.2f}s", flush=True)
    os.rmdir(scratch)
    with open(wl.DIGESTS_PATH, "w") as handle:
        json.dump({"accesses": wl.ACCESSES, "cycles": wl.CYCLES,
                   "digests": table}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
