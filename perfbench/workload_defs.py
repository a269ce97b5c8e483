"""The benchmark's three workloads and the digests that check them.

A workload is a fixed list of experiment calls ("operations") from
``repro.analysis``; one *pass* runs the list once, back to back, from a
single client.  Call sizes follow ``benchmarks/conftest.py``
``BENCH_DEFAULTS``: 4000 trace accesses per program, 30k cycles per
run.  README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import Any, Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

WORKLOADS = ("mix-busy", "solo-sparse", "sweep-fanout")

#: Experiment seeds with recorded digests.  42 is the development seed
#: and 7 the held-out seed that a claimed gain must also hold on; the
#: rest widen the rotation the ``--seed`` argument draws from.
INPUT_SEEDS = (42, 1, 2, 3, 4, 5, 6, 7)

ACCESSES = 4000
CYCLES = 30000

#: Worker processes on ``sweep-fanout``.
JOBS = 2

SOLO_BENCHMARKS = ("h264ref", "sjeng", "gobmk", "apache", "hmmer")
SWEEP_BENCHMARKS = ("apache", "omnetpp")

Op = Tuple[str, Callable[[], Any]]


def input_seed(seed: int) -> int:
    """The experiment seed that ``--seed`` selects.

    A recorded seed selects itself; any other seed selects one of the
    recorded seeds by its remainder, so every input has a digest.
    """
    if seed in INPUT_SEEDS:
        return seed
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def defaults(seed: int):
    from repro.analysis import ExperimentDefaults

    return ExperimentDefaults(accesses=ACCESSES, cycles=CYCLES, seed=seed)


def digest(result: Any) -> str:
    """The output digest of one operation."""
    from repro.common.util import canonical_json_digest

    return canonical_json_digest(result)


def import_layers() -> None:
    """Import everything a pass touches (part of set-up)."""
    import repro.analysis  # noqa: F401
    import repro.analysis.experiments  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.parallel.tasks  # noqa: F401
    import repro.security  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.workloads  # noqa: F401


def pass_ops(workload: str, seed: int, scratch: str,
             jobs: int = JOBS) -> List[Op]:
    """The operations of one pass, in order.

    On ``sweep-fanout`` a pass owns a fresh result-cache directory
    under ``scratch``: the first four calls run cold and write it, the
    same four calls then replay warm from it.
    """
    from repro.analysis.experiments import (
        bdc_comparison,
        detect_suite,
        reqc_speedup_experiment,
        respc_context_experiment,
        tradeoff_sweep,
    )

    d = defaults(seed)
    if workload == "mix-busy":
        return [
            ("respc:gcc", lambda: respc_context_experiment("gcc", d)),
            ("bdc:astar-mcf", lambda: bdc_comparison("astar", "mcf", d)),
        ]
    if workload == "solo-sparse":
        return [
            (f"reqc:{name}", lambda name=name: reqc_speedup_experiment(name, d))
            for name in SOLO_BENCHMARKS
        ]
    if workload == "sweep-fanout":
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        cold: List[Op] = []
        for name in SWEEP_BENCHMARKS:
            cold.append((f"tradeoff:{name}", lambda name=name: tradeoff_sweep(
                name, d, jobs=jobs, cache_dir=cache_dir)))
            cold.append((f"detect:{name}", lambda name=name: detect_suite(
                name, d, jobs=jobs, cache_dir=cache_dir)))
        warm = [(f"{label}:warm", call) for label, call in cold]
        return cold + warm
    raise ValueError(f"unknown workload {workload!r}")


def op_key(label: str) -> str:
    """The digest-table key of an operation: a warm replay must give
    the same output as its cold call."""
    return label[: -len(":warm")] if label.endswith(":warm") else label


def clear_scratch(scratch: str) -> None:
    for name in os.listdir(scratch):
        if name.startswith("cache-"):
            shutil.rmtree(os.path.join(scratch, name), ignore_errors=True)


def load_digests() -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{seed: {workload: {operation: digest}}}`` as recorded."""
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)["digests"]
