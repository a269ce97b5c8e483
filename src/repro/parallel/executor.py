"""Deterministic fan-out of independent simulation points.

:class:`SweepExecutor` runs a list of tasks — module-level functions
applied to picklable payloads — and merges the results **in submission
order**.  Combined with the facts that every task is a pure function
of its payload and that per-task RNG substreams are derived from the
submission index alone
(:meth:`~repro.common.rng.DeterministicRng.substream`), the merged
output is bit-identical for every ``jobs`` value and every placement:
parallelism is an execution detail, never an observable one.
docs/parallel.md states the full determinism contract.

One shard loop
--------------
Every shard that misses the result cache goes through one loop
(:meth:`SweepExecutor._run`), whatever runs it.  The loop owns the
pending queue, the attempt budget, the backoff between attempts, the
per-attempt timeout, the ``parallel.task_done`` / ``task_retry``
events and a :class:`~repro.parallel.ledger.DispatchLedger` record
for every state change.  It hands work to *slots*, each of which
returns a :class:`concurrent.futures.Future` of per-shard
``(ok, value)`` outcomes:

* one inline slot when ``jobs == 1`` (the reference ordering);
* ``jobs`` slots on the warm ``spawn`` pool when ``jobs > 1``;
* one slot per live remote host when a
  :class:`~repro.parallel.dispatch.DispatchCoordinator` is attached.
  Local slots take over only once no live host is left (degraded
  mode).

Attempt rules, identical on every backend: an in-band task exception,
a per-attempt timeout, or a local pool breaking while it holds the
shard each consume one attempt of ``RetryPolicy.max_attempts`` and
count as a retry while budget remains; the last failure raises
:class:`~repro.common.errors.WorkerFailureError` — or
:class:`~repro.common.errors.ShardTimeoutError` when every attempt
timed out.  Losing a remote host consumes no attempt: the host is
retired and the shard requeued.

The ``spawn`` start method is deliberate: it is the only start method
available everywhere, and it guarantees workers build their state from
the pickled payload alone — a forked copy of a warm parent could
smuggle in mutated globals and break the jobs-invariance contract.

Pool reuse and chunking
-----------------------
``spawn`` pays a real price: each worker is a fresh interpreter that
re-imports the simulator stack before it can run its first task.  Two
measures keep that off the critical path, neither observable in the
merged output:

* **a warm persistent pool** — one module-level ``spawn`` pool is kept
  alive across ``map`` calls (rebuilt only when more workers are
  needed or the pool broke), with an ``initializer`` that pre-imports
  the simulator stack so the first real task in each worker does not
  pay the import latency, and that exits the worker once its parent
  is gone (even a SIGKILLed parent leaves no worker behind).  Worker
  reuse is safe for the same reason parallelism is: tasks are pure
  functions of their payloads and may not mutate module state they
  expect to see again.
* **task chunking** — first attempts go to the pool in contiguous
  chunks (:data:`_CHUNK_ROUNDS` per worker, ``fn`` pickled once per
  chunk) and key/value pairs shared by every payload in a chunk are
  factored out and shipped once.  Workers rebuild each payload as
  ``{**shared, **delta}``; dict equality is order-insensitive and
  tasks are functions of payload *values*, so results are unchanged.
  Cache digests are computed parent-side from the original payloads
  and never see the split.  A chunk worker returns each task's
  exception in-band, so a failure charges and retries only its own
  shard; retries go to the pool one shard at a time.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import inspect
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigurationError,
    HostLostError,
    LeaseExpiredError,
    ShardTimeoutError,
    ShardTransportError,
    WorkerFailureError,
)
from repro.common.rng import DeterministicRng
from repro.obs import diag
from repro.obs.events import CATEGORY_PARALLEL
from repro.obs.tracer import NULL_TRACER
from repro.parallel.cache import ResultCache, cache_key, config_digest
from repro.parallel.ledger import DispatchLedger
from repro.resilience.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    _default_sleep,
)

#: Chunks per worker in one ``map`` call.  Two rounds per worker keeps
#: the amortization (``fn`` + the factored-out shared spec pickle once
#: per chunk) while leaving slack for uneven task costs.
_CHUNK_ROUNDS = 2

#: What a remote slot raises when its host is gone: the host is
#: retired and the shard requeued without charging an attempt.
_HOST_LOSS = (HostLostError, LeaseExpiredError, ShardTransportError)


def _call_task(fn: Callable[..., Any], payload: Any,
               task_seed: Optional[int]) -> Any:
    """Worker-side trampoline (module-level so ``spawn`` can pickle it)."""
    if task_seed is None:
        return fn(payload)
    return fn(payload, task_seed=task_seed)


def _call_task_chunk(
    fn: Callable[..., Any],
    shared: Optional[Dict[str, Any]],
    items: Sequence[Tuple[Any, Optional[int]]],
) -> List[Tuple[bool, Any]]:
    """Run a chunk of tasks in one worker round-trip.

    ``items`` holds ``(delta, task_seed)`` pairs; when ``shared`` is
    not None each payload is rebuilt as ``{**shared, **delta}`` (the
    chunk-common keys were factored out parent-side so they pickle
    once per chunk, not once per task).  Per-task exceptions are
    returned in-band as ``(False, exception)`` so the parent can retry
    and report the exact shard that failed instead of losing the whole
    chunk.
    """
    out: List[Tuple[bool, Any]] = []
    for delta, task_seed in items:
        if shared is None:
            payload = delta
        else:
            payload = dict(shared)
            payload.update(delta)
        try:
            out.append((True, _call_task(fn, payload, task_seed)))
        except Exception as exc:  # returned, not raised: in-band
            out.append((False, exc))
    return out


def _split_common(
    payloads: Sequence[Any],
) -> Tuple[Optional[Dict[str, Any]], List[Any]]:
    """Factor the key/value pairs shared by every payload in a chunk.

    Returns ``(shared, deltas)`` where each original payload equals
    ``{**shared, **delta}``.  Only dict payloads participate; the
    identical-type guard keeps ``1``/``True``-style coercions from
    swapping a value's type during reconstruction.
    """
    if len(payloads) < 2 or not all(isinstance(p, dict) for p in payloads):
        return None, list(payloads)
    first = payloads[0]
    shared = {
        key: value
        for key, value in first.items()
        if all(
            key in p and type(p[key]) is type(value) and p[key] == value
            for p in payloads[1:]
        )
    }
    if not shared:
        return None, list(payloads)
    deltas = [
        {k: v for k, v in p.items() if k not in shared} for p in payloads
    ]
    return shared, deltas


#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_S = 0.25


def _exit_with_parent(parent: int) -> None:  # pragma: no cover - in workers
    """Exit this worker once ``parent`` is gone (it was reparented).

    A parent killed with SIGKILL runs no shutdown code, so without this
    its pool workers — and the ``multiprocessing`` resource tracker
    they keep a pipe to — would outlive it.  ``os._exit`` skips the
    interpreter's teardown, which could block on the dead parent.
    """
    while os.getppid() == parent:
        # repro-lint: disable-next-line=RL001 — a liveness poll, no result
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _warm_worker(parent: int) -> None:  # pragma: no cover - in workers
    """Pool initializer: tie the worker to its parent, then pre-import
    the simulator stack.

    A daemon thread exits the worker when ``parent`` (the pid that
    built the pool, passed in so a parent already dead is noticed too)
    dies — see :func:`_exit_with_parent`.  A ``spawn`` worker starts as
    a bare interpreter; importing the analysis/simulation modules here
    means the first real task pays only simulation time, not import
    time.  Best-effort: a failed import just leaves the lazy imports
    inside the tasks to do it.
    """
    threading.Thread(
        target=_exit_with_parent, args=(parent,),
        name="repro-parent-watch", daemon=True,
    ).start()
    try:
        import repro.analysis.experiments  # noqa: F401
        import repro.sim.system  # noqa: F401
    # An exception escaping a pool initializer breaks the entire pool
    # (every future fails), while a missed pre-import only costs time:
    # swallowing anything here is strictly safer than surfacing it.
    # repro-lint: disable-next-line=RL006
    except Exception:
        pass


# The warm pool is deliberately module-global mutable state: the whole
# point is reuse across SweepExecutor instances.  It never influences
# results (workers are stateless between pure tasks), only latency.
_POOL: Optional[concurrent.futures.ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _warm_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The shared spawn pool, rebuilt only when too small or broken."""
    global _POOL, _POOL_WORKERS
    pool = _POOL
    if (
        pool is not None
        and not getattr(pool, "_broken", False)
        and _POOL_WORKERS >= workers
    ):
        return pool
    if pool is not None:
        pool.shutdown(wait=False)
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_warm_worker,
        initargs=(os.getpid(),),
    )
    _POOL = pool
    _POOL_WORKERS = workers
    return pool


def _discard_pool() -> None:
    """Drop the warm pool (after breakage, or at interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False)
    _POOL = None
    _POOL_WORKERS = 0


def _terminate_pool() -> None:
    """Drop the warm pool *and* kill its worker processes.

    ``shutdown(wait=False)`` alone leaves a wedged worker running its
    stuck task forever; after a shard timeout the only way to reclaim
    the CPU is to terminate the processes outright.  Futures still on
    the old pool fail with ``BrokenProcessPool`` and retry on a fresh
    pool — pure tasks make that safe.
    """
    pool = _POOL
    processes = list(getattr(pool, "_processes", {}).values()) if pool else []
    _discard_pool()
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            pass  # already exited / never fully started


atexit.register(_discard_pool)


def _wants_task_seed(fn: Callable[..., Any]) -> bool:
    """Does ``fn`` declare a ``task_seed`` keyword parameter?"""
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return "task_seed" in parameters


def _clock() -> float:
    """Wall time for per-attempt deadlines; it never reaches a result."""
    # repro-lint: disable-next-line=RL001 — attempt budgets are wall-clock
    return time.monotonic()


def _describe(error: Any) -> str:
    """One-line cause: remote hosts report task errors as strings."""
    if isinstance(error, str):
        return error
    return f"{type(error).__name__}: {error}"


def _chunks(shards: List["_Shard"], workers: int) -> List[List["_Shard"]]:
    """Contiguous chunks, :data:`_CHUNK_ROUNDS` per worker, the longer
    ones first so the short ones fill in at the end."""
    n_chunks = min(len(shards), workers * _CHUNK_ROUNDS)
    base, extra = divmod(len(shards), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(shards[start:start + size])
        start += size
    return chunks


@dataclass
class _Shard:
    """Parent-side bookkeeping for one submitted task."""

    index: int
    payload: Any
    label: str
    task_seed: Optional[int]
    digest: Optional[str] = None
    cached: bool = False
    handoffs: int = 0  # times handed to a slot
    failures: int = 0  # attempts consumed
    timeouts: int = 0  # of those, per-attempt timeouts


@dataclass
class _Unit:
    """Shards in flight on one slot, and when their attempt runs out."""

    slot: Any
    shards: List[_Shard]
    future: "concurrent.futures.Future[List[Tuple[bool, Any]]]"
    deadline: Optional[float]


class _LocalSlot:
    """A place on this machine: inline when ``workers == 0``, else one
    of the warm pool's ``workers`` processes."""

    local = True
    name = ""

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def submit(self, fn: Callable[..., Any], shards: List[_Shard]) -> Any:
        shared, deltas = _split_common([s.payload for s in shards])
        items = [(delta, s.task_seed) for delta, s in zip(deltas, shards)]
        future: Any = concurrent.futures.Future()
        try:
            if self.workers:
                return _warm_pool(self.workers).submit(
                    _call_task_chunk, fn, shared, items
                )
            future.set_result(_call_task_chunk(fn, shared, items))
        except Exception as exc:  # BrokenProcessPool while submitting
            future.set_exception(exc)
        return future

    def abandon(self) -> None:
        """Kill the wedged pool; its other units fail and are charged."""
        _terminate_pool()


class SweepExecutor:
    """Order-preserving, cache-aware parallel map over sweep points.

    Parameters
    ----------
    jobs:
        Local slots.  ``1`` (the default) runs every task inline in
        the calling process — no pool, no pickling round-trip — and is
        the reference ordering every other placement must match.
        ``jobs > 1`` runs every uncached shard on the warm pool.
    seed:
        Root of the per-task substream derivation.  Task *i* of the
        executor's lifetime receives
        ``DeterministicRng(seed).substream(i)``'s seed (only passed to
        task functions that declare a ``task_seed`` keyword).  The
        counter advances for cache-hit tasks too, so a warm cache
        never shifts later tasks' seeds.
    cache:
        ``None``, a directory path, or a :class:`ResultCache`.  Only
        ``map`` calls that pass ``kind`` participate in caching.
    retry:
        :class:`RetryPolicy` for every attempt on every slot (default:
        2 attempts, no timeout, no backoff).  A ``timeout_seconds``
        needs ``jobs > 1``: an inline attempt cannot be interrupted.
    tracer:
        Optional :class:`~repro.obs.tracer.EventTracer`; lifecycle
        events are always mirrored into :mod:`repro.obs.diag`.
    dispatch:
        Optional :class:`~repro.parallel.dispatch.DispatchCoordinator`.
        When set, shards run on its live remote hosts; once none is
        left the rest run on the local slots (degraded mode).
        Placement never affects results — see docs/dispatch.md.
    ledger:
        Path, :class:`DispatchLedger`, or ``None`` (in-memory): where
        every shard state change of the last ``map`` is recorded.
    sleep:
        Backoff primitive (tests pass a recorder); the real
        ``time.sleep`` by default.
    """

    def __init__(
        self,
        jobs: int = 1,
        seed: int = 0,
        cache: Optional[Any] = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        tracer: Any = NULL_TRACER,
        dispatch: Optional[Any] = None,
        ledger: Any = None,
        sleep: Callable[[float], None] = _default_sleep,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if jobs == 1 and retry.timeout_seconds is not None:
            raise ConfigurationError(
                "retry.timeout_seconds needs jobs > 1: an inline attempt "
                "cannot be interrupted"
            )
        self.jobs = jobs
        self.retry = retry
        self.tracer = tracer
        self.dispatch = dispatch
        if not isinstance(ledger, DispatchLedger):
            ledger = DispatchLedger(ledger)
        self.ledger = ledger
        self._sleep = sleep
        self._seed_root = DeterministicRng(seed)
        self._tasks_submitted = 0
        if isinstance(cache, str):
            cache = ResultCache(cache)
        self.cache: Optional[ResultCache] = cache
        self.tasks_run = 0
        self.tasks_cached = 0
        self.retries = 0
        # Serialized per-task registry documents, absorbed from task
        # results in submission order — see merged_registry().
        self._shard_registries: List[Dict[str, Any]] = []

    # -- events ------------------------------------------------------------

    def _emit(self, name: str, index: int, **args: Any) -> None:
        diag.emit_diagnostic(
            name, category=CATEGORY_PARALLEL, task=index, **args
        )
        if self.tracer.enabled:
            self.tracer.emit(index, CATEGORY_PARALLEL, name, **args)

    # -- the one entry point ----------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        payloads: Sequence[Any],
        kind: Optional[str] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every payload; results in submission order.

        ``fn`` must be a module-level (picklable) function of one
        payload, optionally accepting a ``task_seed`` keyword.
        ``kind`` names the task family for the result cache; without
        it (or without a cache) every task runs.  ``labels`` are
        per-task names for events and failure messages.
        """
        if labels is not None and len(labels) != len(payloads):
            raise ConfigurationError("need one label per payload")
        wants_seed = _wants_task_seed(fn)
        shards: List[_Shard] = []
        for position, payload in enumerate(payloads):
            index = self._tasks_submitted
            self._tasks_submitted += 1
            shards.append(
                _Shard(
                    index=index,
                    payload=payload,
                    label=(labels[position] if labels is not None
                           else f"{kind or getattr(fn, '__name__', 'task')}"
                                f"[{index}]"),
                    task_seed=(self._seed_root.substream(index).seed
                               if wants_seed else None),
                )
            )

        self.ledger.begin(
            kind or getattr(fn, "__name__", "task"),
            self.dispatch.host_names if self.dispatch is not None else [],
            len(shards),
        )
        results: Dict[int, Any] = {}
        to_run: List[_Shard] = []
        for shard in shards:
            if self.cache is not None and kind is not None:
                doc = self._key_doc(shard)
                shard.digest = config_digest(kind, doc)
                cached = self.cache.get(shard.digest)
                if cached is not None:
                    shard.cached = True
                    results[shard.index] = cached
                    self.tasks_cached += 1
                    self._emit("parallel.cache_hit", shard.index,
                               label=shard.label, digest=shard.digest)
                    self.ledger.record(shard.index, "cached",
                                       label=shard.label, digest=shard.digest)
                    continue
                self._emit("parallel.cache_miss", shard.index,
                           label=shard.label, digest=shard.digest)
            to_run.append(shard)
            self._emit("parallel.task_submit", shard.index,
                       label=shard.label)
            self.ledger.record(shard.index, "queued", label=shard.label)

        if to_run:
            self._run(fn, to_run, kind, len(shards) - len(to_run), results)
        return [
            self._absorb_registry(results[shard.index]) for shard in shards
        ]

    def _absorb_registry(self, result: Any) -> Any:
        """Strip and collect a task result's ``obs_registry`` document.

        Simulation tasks embed their worker-local registry snapshot
        under this key (:mod:`repro.parallel.tasks`); it is executor
        metadata, not sweep output, so it must not leak into result
        consumers (``tradeoff_sweep`` passes task dicts verbatim into
        the CLI's canonical JSON).  Collection order is submission
        order — shards were just iterated in it — which makes
        :meth:`merged_registry` independent of ``jobs``.
        """
        if isinstance(result, dict) and "obs_registry" in result:
            self._shard_registries.append(result["obs_registry"])
            result = {
                key: value
                for key, value in result.items()
                if key != "obs_registry"
            }
        return result

    def merged_registry(self):
        """One cluster-level registry folded from every shard document.

        Counters and histogram buckets add across shards, gauges take
        the last write in submission order, and the executor's own
        ``parallel.*`` progress gauges ride along — byte-identical
        exposition for every ``jobs`` value (and for warm-cache
        replays, since cached results keep their shard documents).
        """
        from repro.obs.export import merge_serialized

        registry = merge_serialized(self._shard_registries)
        # No worker-count or wall-time families here: the merged
        # registry must render byte-identically for every ``jobs``
        # value, so only jobs-invariant quantities may appear.
        registry.gauge("parallel.tasks_submitted").set(self._tasks_submitted)
        registry.gauge("parallel.tasks_run").set(self.tasks_run)
        registry.gauge("parallel.tasks_cached").set(self.tasks_cached)
        registry.gauge("parallel.retries").set(self.retries)
        registry.gauge("parallel.shards_merged").set(
            len(self._shard_registries)
        )
        return registry

    def _key_doc(self, shard: _Shard) -> Any:
        if shard.task_seed is None:
            return shard.payload
        return {"payload": shard.payload, "task_seed": shard.task_seed}

    # -- the shard loop -----------------------------------------------------

    def _run(
        self,
        fn: Callable[..., Any],
        to_run: List[_Shard],
        kind: Optional[str],
        cached: int,
        results: Dict[int, Any],
    ) -> None:
        """Run every shard of ``to_run`` to a result or a raised failure.

        Each turn hands queued work to free slots, waits for the first
        unit to finish or run out of time, and settles every unit that
        has.  Results are stored by index; ``parallel.task_done``
        fires as the completed prefix of ``to_run`` grows, so it fires
        once per shard in submission order on every backend.
        """
        remote = self.dispatch
        workers = min(self.jobs, len(to_run))
        if self.jobs == 1:
            local_slots = [_LocalSlot(0)]
        else:
            # The pool is sized for ``jobs`` (spawn starts processes on
            # demand), so maps of different sizes share one pool.
            local_slots = [_LocalSlot(self.jobs) for _ in range(workers)]
        if remote is None and self.jobs > 1:
            queue: Deque[List[_Shard]] = deque(_chunks(to_run, workers))
        else:
            queue = deque([shard] for shard in to_run)
        running: List[_Unit] = []
        local = remote is None
        done = 0
        try:
            if remote is not None:
                remote.begin(kind or getattr(fn, "__name__", "task"),
                             len(to_run), cached)
            while queue or running:
                if not local and not remote.slots():
                    local = True
                    remote.degrade(sum(len(unit) for unit in queue))
                    self.ledger.set_degraded(True)
                busy = [unit.slot for unit in running]
                for slot in local_slots if local else remote.slots():
                    if not queue:
                        break
                    if all(slot is not other for other in busy):
                        self._hand_off(fn, slot, queue.popleft(), running)
                self._settle(running, queue, results)
                while done < len(to_run) and to_run[done].index in results:
                    shard = to_run[done]
                    done += 1
                    self.tasks_run += 1
                    self._emit("parallel.task_done", shard.index,
                               label=shard.label)
                    if self.cache is not None and shard.digest is not None:
                        # The cached value keeps its obs_registry, so
                        # cache hits replay their shard registries
                        # exactly like fresh runs.
                        self.cache.put(
                            shard.digest,
                            cache_key(kind, self._key_doc(shard)),
                            results[shard.index],
                        )
        finally:
            if remote is not None:
                remote.end(len(to_run))

    def _hand_off(
        self, fn: Callable[..., Any], slot: Any, shards: List[_Shard],
        running: List[_Unit],
    ) -> None:
        for shard in shards:
            shard.handoffs += 1
            self.ledger.record(shard.index, "leased", label=shard.label,
                               host=slot.name, attempts=shard.handoffs)
        timeout = self.retry.timeout_seconds
        running.append(_Unit(
            slot, shards, slot.submit(fn, shards),
            None if timeout is None
            else _clock() + timeout * len(shards),
        ))

    def _settle(
        self, running: List[_Unit], queue: Deque[List[_Shard]],
        results: Dict[int, Any],
    ) -> None:
        """Wait for the next unit to finish or time out; settle those
        that have, in submission order."""
        deadlines = [u.deadline for u in running if u.deadline is not None]
        concurrent.futures.wait(
            [unit.future for unit in running],
            timeout=(max(0.0, min(deadlines) - _clock())
                     if deadlines else None),
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        now = _clock()
        for unit in sorted(running, key=lambda u: u.shards[0].index):
            if unit.future.done():
                try:
                    outcomes = unit.future.result()
                except _HOST_LOSS as exc:
                    running.remove(unit)
                    unit.slot.retire(exc)
                    for shard in unit.shards:
                        self._resubmit(shard, queue)
                    continue
                except Exception as exc:  # BrokenProcessPool and kin
                    outcomes = [(False, exc)] * len(unit.shards)
            elif unit.deadline is not None and now >= unit.deadline:
                unit.slot.abandon()
                outcomes = [(False, self._timeout(shard, unit))
                            for shard in unit.shards]
            else:
                continue
            running.remove(unit)
            for shard, (ok, value) in zip(unit.shards, outcomes):
                if ok:
                    results[shard.index] = value
                    self.ledger.record(
                        shard.index,
                        "local" if unit.slot.local else "completed",
                        label=shard.label, host=unit.slot.name,
                        attempts=shard.handoffs, digest=shard.digest or "",
                    )
                else:
                    self._charge(shard, value, queue)

    def _timeout(self, shard: _Shard, unit: _Unit) -> ShardTimeoutError:
        """The typed timeout for a shard whose attempt ran out of time.

        Watchdog discipline (docs/resilience.md): the failure carries
        a structured dump of what was stuck and the event ring gets a
        mirror of it.  The slot was already abandoned — a wedged pool
        is terminated so the stuck worker cannot keep burning a core
        behind the sweep's back; a remote host is retired.
        """
        timeout = self.retry.timeout_seconds or 0.0
        self._emit(
            "parallel.shard_timeout", shard.index, label=shard.label,
            attempt=shard.failures + 1, timeout_seconds=timeout,
        )
        return ShardTimeoutError(
            f"shard {shard.label} exceeded its {timeout}s attempt budget "
            f"(attempt {shard.failures + 1}, chunk of {len(unit.shards)})",
            task_index=shard.index,
            label=shard.label,
            timeout_seconds=timeout,
            dump={
                "shard": shard.index,
                "label": shard.label,
                "attempt": shard.failures + 1,
                "timeout_seconds": timeout,
                "chunk_size": len(unit.shards),
                "jobs": self.jobs,
                "pool_terminated": unit.slot.local,
            },
        )

    def _charge(
        self, shard: _Shard, error: Any, queue: Deque[List[_Shard]]
    ) -> None:
        """Count one failed attempt of ``shard``: requeue it while the
        budget lasts, else raise the run-ending error."""
        shard.failures += 1
        if isinstance(error, ShardTimeoutError):
            shard.timeouts += 1
        if shard.failures < self.retry.max_attempts:
            self.retries += 1
            self._emit(
                "parallel.task_retry", shard.index, label=shard.label,
                attempt=shard.failures + 1, error=_describe(error),
            )
            self._resubmit(shard, queue)
            return
        self.ledger.record(shard.index, "failed", label=shard.label,
                           attempts=shard.handoffs, detail=_describe(error))
        if shard.timeouts == shard.failures:
            # Every attempt hit the budget: surface the typed timeout
            # (with its structured dump), not the generic wrapper.
            error.dump["attempts"] = shard.failures
            raise error
        raise WorkerFailureError(
            f"task {shard.label} failed after {shard.failures} "
            f"attempt(s): {error}",
            task_index=shard.index,
            label=shard.label,
            attempts=shard.failures,
            last_error=_describe(error),
        ) from (error if isinstance(error, BaseException) else None)

    def _resubmit(self, shard: _Shard, queue: Deque[List[_Shard]]) -> None:
        """Back off, then queue ``shard`` for one more hand-off."""
        delay = self.retry.backoff_delay(shard.handoffs)
        if delay > 0.0:
            self._sleep(delay)
        self.ledger.record(shard.index, "requeued", label=shard.label,
                           attempts=shard.handoffs)
        queue.append([shard])
