"""Tests for repro.parallel: executor determinism, caching, retry.

The load-bearing claims here are the ISSUE-5 acceptance criteria:
``jobs=1`` and ``jobs=N`` produce byte-identical merged output (and
identical per-point report digests), and a warm cache replays a sweep
with zero simulations.  Worker tasks used by the pooled tests must be
module-level functions (the ``spawn`` start method pickles references,
not code), which is why the toy tasks live at module scope.
"""

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.analysis.experiments import ExperimentDefaults, tradeoff_sweep
from repro.analysis.sweeps import noc_latency_sweep
from repro.common.errors import (
    ConfigurationError,
    ShardTimeoutError,
    WorkerFailureError,
)
from repro.common.rng import DeterministicRng
from repro.ga.genetic import GaConfig, GeneticAlgorithm
from repro.obs import diag
from repro.parallel import (
    CACHE_SCHEMA,
    ResultCache,
    SweepExecutor,
    cache_key,
    config_digest,
    ga_population_evaluator,
)
from repro.parallel.tasks import (
    ga_fitness_task,
    make_run_payload,
    noc_latency_task,
)
from repro.resilience.retry import RetryPolicy

FAST = dataclasses.replace(ExperimentDefaults(), accesses=600, cycles=6000)


def square_task(payload):
    return {"value": payload["x"] ** 2}


def seeded_task(payload, task_seed=None):
    return {"x": payload["x"], "task_seed": task_seed}


def flaky_task(payload):
    """Fails on the first attempt, succeeds once the marker exists."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("attempted")
        raise RuntimeError("transient failure")
    return {"ok": True}


def always_fails_task(payload):
    raise ValueError("permanent failure")


def suicide_once_task(payload):
    """SIGKILLs its own pool worker the first time any task runs.

    Models the OOM killer taking a worker mid-chunk: the marker file is
    written *before* the kill, so retries (on the rebuilt pool) see it
    and succeed.
    """
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("dying")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"survived": payload["x"]}


def sleepy_task(payload):
    """Wedges: sleeps far past any test's per-attempt timeout."""
    time.sleep(payload.get("delay", 60.0))
    return {"done": True}


@pytest.fixture(autouse=True)
def _clean_diag():
    diag.reset()
    yield
    diag.reset()


class TestSubstream:
    def test_substreams_and_parent_pairwise_distinct(self):
        parent = DeterministicRng(42)
        a = parent.substream(0)
        b = parent.substream(1)
        streams = [
            [rng.randint(0, 10**9) for _ in range(8)]
            for rng in (parent, a, b)
        ]
        assert streams[0] != streams[1]
        assert streams[0] != streams[2]
        assert streams[1] != streams[2]

    def test_reproducible_and_state_independent(self):
        """Derivation depends on (seed, task_id) only — not on how much
        of the parent stream was consumed (fork/spawn safety)."""
        first = DeterministicRng(7).substream(3).seed
        parent = DeterministicRng(7)
        for _ in range(100):
            parent.random()
        assert parent.substream(3).seed == first

    def test_negative_task_id_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).substream(-1)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = config_digest("unit", {"x": 1})
        assert cache.get(digest) is None
        cache.put(digest, cache_key("unit", {"x": 1}), {"value": 2})
        assert cache.get(digest) == {"value": 2}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = config_digest("unit", {"x": 2})
        path = cache.path_for(digest)
        cache.put(digest, cache_key("unit", {"x": 2}), {"value": 4})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{truncated")
        assert cache.get(digest) is None
        assert not os.path.exists(path)

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = config_digest("unit", {"x": 3})
        path = cache.path_for(digest)
        cache.put(digest, cache_key("unit", {"x": 3}), {"value": 9})
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["cache_schema"] = CACHE_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert cache.get(digest) is None

    def test_digest_covers_kind_and_payload(self):
        base = config_digest("kind-a", {"x": 1})
        assert config_digest("kind-b", {"x": 1}) != base
        assert config_digest("kind-a", {"x": 2}) != base
        assert config_digest("kind-a", {"x": 1}) == base

    def test_prune_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for x in range(5):
            digest = config_digest("unit", {"x": x})
            cache.put(digest, cache_key("unit", {"x": x}), {"value": x})
        assert cache.prune(keep=2) == 3
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_prune_requires_a_filter(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(str(tmp_path)).prune()


class TestSweepExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)

    def test_label_count_must_match(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor().map(square_task, [{"x": 1}], labels=["a", "b"])

    def test_inline_and_pooled_agree(self):
        payloads = [{"x": x} for x in range(6)]
        inline = SweepExecutor(jobs=1).map(square_task, payloads)
        pooled = SweepExecutor(jobs=4).map(square_task, payloads)
        assert inline == pooled == [{"value": x * x} for x in range(6)]

    def test_task_seeds_are_jobs_invariant(self):
        payloads = [{"x": x} for x in range(5)]
        inline = SweepExecutor(jobs=1, seed=9).map(seeded_task, payloads)
        pooled = SweepExecutor(jobs=3, seed=9).map(seeded_task, payloads)
        assert inline == pooled
        seeds = [row["task_seed"] for row in inline]
        assert len(set(seeds)) == len(seeds)

    def test_warm_cache_does_not_shift_later_seeds(self, tmp_path):
        """The lifetime counter advances on cache hits, so a cached
        first batch leaves the second batch's seeds unchanged."""
        batch_a = [{"x": x} for x in range(3)]
        batch_b = [{"x": x} for x in range(10, 13)]
        cold = SweepExecutor(jobs=1, seed=5, cache=str(tmp_path))
        cold_a = cold.map(seeded_task, batch_a, kind="seeded")
        cold_b = cold.map(seeded_task, batch_b, kind="seeded")
        warm = SweepExecutor(jobs=1, seed=5, cache=str(tmp_path))
        warm_a = warm.map(seeded_task, batch_a, kind="seeded")
        warm_b = warm.map(seeded_task, batch_b, kind="seeded")
        assert warm_a == cold_a
        assert warm_b == cold_b
        assert warm.tasks_cached == 6 and warm.tasks_run == 0

    def test_retry_recovers_transient_failure(self, tmp_path):
        marker = str(tmp_path / "marker")
        executor = SweepExecutor(retry=RetryPolicy(max_attempts=2))
        [result] = executor.map(flaky_task, [{"marker": marker}])
        assert result == {"ok": True}
        assert executor.retries == 1
        assert diag.count("parallel.task_retry") == 1

    def test_exhausted_retries_raise_with_shard_identity(self):
        executor = SweepExecutor(retry=RetryPolicy(max_attempts=2))
        with pytest.raises(WorkerFailureError) as excinfo:
            executor.map(always_fails_task, [{"x": 1}], labels=["doomed"])
        assert excinfo.value.label == "doomed"
        assert excinfo.value.attempts == 2
        assert "permanent failure" in excinfo.value.last_error

    def test_lifecycle_events_emitted(self):
        SweepExecutor().map(square_task, [{"x": 1}, {"x": 2}])
        assert diag.count("parallel.task_submit") == 2
        assert diag.count("parallel.task_done") == 2
        events = diag.recent("parallel.task_done")
        assert [e.args_dict["task"] for e in events] == [0, 1]


class TestJobsDifferential:
    """ISSUE-5 acceptance: jobs=1 vs jobs=4 bit-identical outputs."""

    def test_sweep_merged_output_and_digests(self):
        merged_1 = noc_latency_sweep("gcc", FAST, latencies=(1, 4), jobs=1)
        merged_4 = noc_latency_sweep("gcc", FAST, latencies=(1, 4), jobs=4)
        assert merged_1 == merged_4
        payloads = []
        for latency in (1, 4):
            payload = make_run_payload("gcc", FAST)
            payload["noc_latency"] = latency
            payloads.append(payload)
        rows_1 = SweepExecutor(jobs=1).map(noc_latency_task, payloads)
        rows_4 = SweepExecutor(jobs=4).map(noc_latency_task, payloads)
        assert [r["digest"] for r in rows_1] == [r["digest"] for r in rows_4]

    def test_experiment_points_and_digests(self):
        points_1 = tradeoff_sweep("gcc", FAST, scales=(0.8, 1.4), jobs=1)
        points_4 = tradeoff_sweep("gcc", FAST, scales=(0.8, 1.4), jobs=4)
        assert points_1 == points_4
        assert all("digest" in p for p in points_1)

    def test_ga_generation(self):
        payload_base = make_run_payload("gcc", FAST)
        payload_base.update(base_ipc=1.0, window_cycles=512, seed=None)
        config = GaConfig(
            genome_length=len(FAST.spec.edges), max_gene=10,
            population_size=4, generations=1,
        )

        def one_generation(jobs):
            executor = SweepExecutor(jobs=jobs, seed=FAST.seed)
            ga = GeneticAlgorithm(config, DeterministicRng(11))
            ga.initialize()
            best = ga.step(
                map_evaluate=ga_population_evaluator(executor, payload_base)
            )
            return best, ga.history, sorted(ga._population)

        assert one_generation(1) == one_generation(4)

    def test_ga_fitness_digests_jobs_invariant(self):
        payload_base = make_run_payload("gcc", FAST)
        payload_base.update(base_ipc=1.0, window_cycles=512, seed=None)
        payloads = []
        for genome in ((2, 1, 1, 1, 1, 1, 1, 1, 1, 1),
                       (1, 1, 2, 1, 1, 1, 1, 1, 1, 1)):
            payload = dict(payload_base)
            payload["genome"] = list(genome)
            payloads.append(payload)
        rows_1 = SweepExecutor(jobs=1, seed=3).map(ga_fitness_task, payloads)
        rows_4 = SweepExecutor(jobs=4, seed=3).map(ga_fitness_task, payloads)
        assert rows_1 == rows_4


class TestRegistryMerge:
    """ISSUE-8 acceptance: the merged shard registries of a jobs=1 and
    a jobs=4 sweep render byte-identical OpenMetrics expositions."""

    def _payloads(self):
        payloads = []
        for latency in (1, 4):
            payload = make_run_payload("gcc", FAST)
            payload["noc_latency"] = latency
            payloads.append(payload)
        return payloads

    def test_merged_exposition_jobs_invariant(self):
        from repro.obs.export import render_openmetrics

        texts = {}
        for jobs in (1, 4):
            executor = SweepExecutor(jobs=jobs)
            rows = executor.map(noc_latency_task, self._payloads())
            # The registry doc is absorbed by the executor, never
            # returned to the driver (sweep JSON stays clean).
            assert all("obs_registry" not in row for row in rows)
            texts[jobs] = render_openmetrics(executor.merged_registry())
        assert texts[1] == texts[4]
        assert "sweep_points_total 2" in texts[1]
        assert "parallel_shards_merged 2" in texts[1]
        assert "sweep_point_cycles_bucket" in texts[1]
        # Worker count must not leak into the merged registry.
        assert "parallel_jobs" not in texts[1]

    def test_cached_replay_merges_identically(self, tmp_path):
        from repro.obs.export import render_openmetrics

        texts = []
        for _ in range(2):
            executor = SweepExecutor(jobs=1, cache=str(tmp_path))
            executor.map(noc_latency_task, self._payloads())
            texts.append(render_openmetrics(executor.merged_registry()))
        assert texts[0] == texts[1]


class TestBrokenPoolRebuild:
    def test_killed_pool_worker_rebuilds_and_preserves_output(self, tmp_path):
        """A pool worker SIGKILLed mid-chunk breaks the warm pool; the
        executor must rebuild it, retry only the affected shards, and
        still merge the jobs-invariant output."""
        from repro.parallel import executor as executor_mod

        marker = str(tmp_path / "killed")
        payloads = [{"x": i, "marker": marker} for i in range(6)]
        executor = SweepExecutor(jobs=2)
        results = executor.map(suicide_once_task, payloads)
        # merged output identical to what any healthy run produces
        assert results == [{"survived": i} for i in range(6)]
        assert os.path.exists(marker)
        # at least one shard was re-run after the pool broke...
        assert executor.retries >= 1
        assert diag.count("parallel.task_retry") == executor.retries
        # ...on a pool that was rebuilt, not the broken one
        assert executor_mod._POOL is not None
        assert not getattr(executor_mod._POOL, "_broken", False)


class TestShardTimeout:
    def test_wedged_shard_raises_typed_timeout(self):
        """Satellite contract: a shard exceeding its per-attempt budget
        surfaces a typed ShardTimeoutError with a watchdog-style dump,
        and the wedged pool is terminated."""
        from repro.parallel import executor as executor_mod

        executor = SweepExecutor(
            jobs=2, retry=RetryPolicy(max_attempts=1, timeout_seconds=0.5)
        )
        payloads = [{"delay": 30.0}, {"delay": 30.0}]
        with pytest.raises(ShardTimeoutError) as excinfo:
            executor.map(sleepy_task, payloads)
        err = excinfo.value
        assert err.task_index == 0
        assert err.timeout_seconds == 0.5
        assert err.dump["pool_terminated"] is True
        assert err.dump["attempts"] == 1
        assert err.dump["jobs"] == 2
        assert err.dump["label"] == err.label
        assert diag.count("parallel.shard_timeout") >= 1
        # the stuck workers were killed, not left burning a core
        assert executor_mod._POOL is None

    def test_single_shard_times_out_too(self):
        """At jobs > 1 a lone uncached shard goes to the pool like any
        other, so its per-attempt budget still applies."""
        from repro.parallel import executor as executor_mod

        executor = SweepExecutor(
            jobs=2, retry=RetryPolicy(max_attempts=1, timeout_seconds=0.5)
        )
        with pytest.raises(ShardTimeoutError) as excinfo:
            executor.map(sleepy_task, [{"delay": 5.0}])
        assert excinfo.value.task_index == 0
        assert excinfo.value.dump["attempts"] == 1
        assert excinfo.value.dump["pool_terminated"] is True
        assert executor_mod._POOL is None

    def test_inline_timeout_rejected(self):
        """An inline attempt cannot be interrupted, so a timeout at
        jobs=1 would be silently ignored: refuse it up front."""
        with pytest.raises(ConfigurationError, match="jobs > 1"):
            SweepExecutor(
                jobs=1, retry=RetryPolicy(max_attempts=1, timeout_seconds=0.5)
            )


class TestCacheHits:
    def test_second_sweep_runs_zero_simulations(self, tmp_path):
        """Warm-cache replay: identical output, zero task executions,
        verified through the diagnostics ring's event counts."""
        first = tradeoff_sweep(
            "gcc", FAST, scales=(0.8,), jobs=1, cache_dir=str(tmp_path)
        )
        first_runs = diag.count("parallel.task_done")
        assert first_runs > 0
        diag.reset()
        second = tradeoff_sweep(
            "gcc", FAST, scales=(0.8,), jobs=1, cache_dir=str(tmp_path)
        )
        assert second == first
        assert diag.count("parallel.task_done") == 0
        assert diag.count("parallel.cache_hit") == first_runs


_HOLD_POOL_SCRIPT = """
import os, sys, time
from multiprocessing import resource_tracker
from repro.parallel.executor import _warm_pool
worker = _warm_pool(1).submit(os.getpid).result(timeout=120)
print(worker, resource_tracker._resource_tracker._pid, flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Is ``pid`` alive and not a zombie?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestParentDeath:
    def test_pool_worker_and_tracker_exit_with_sigkilled_parent(self):
        """A parent killed with SIGKILL runs no shutdown code; its warm
        pool worker and the resource tracker must still go away."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", _HOLD_POOL_SCRIPT],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.1)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []
