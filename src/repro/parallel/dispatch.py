"""Fault-tolerant multi-host sweep dispatch.

:class:`DispatchCoordinator` gives a :class:`~repro.parallel.executor.
SweepExecutor` one *remote slot* per live worker host
(:mod:`repro.parallel.worker`), speaking the digest-verified frame
protocol (:mod:`repro.parallel.protocol`).  The executor's shard loop
owns the queue, the attempt budget, backoff, timeouts and the ledger
for every backend; the coordinator owns only what is remote:

* **connect + handshake** — every host is connected (and its
  ``code_version`` checked) when a sweep begins; a host that fails is
  retired before any shard reaches it.
* **leases** — each dispatched shard carries a lease id; the wait for
  the next frame is bounded by ``lease_seconds``, and the worker's
  heartbeats (sent while it executes) renew that wait.  Silence past
  the deadline is a :class:`~repro.common.errors.LeaseExpiredError`:
  the host is presumed wedged or partitioned.
* **host retirement** — a lost host (reset, EOF), an expired lease, or
  a corrupt frame retires that host for the rest of the run; the shard
  loop requeues its shard without charging an attempt.  A task that
  raises on the host comes back in-band and is charged like a local
  failure.
* **degraded mode** — when no live host is left, the shard loop runs
  the rest on its local slots; :meth:`DispatchCoordinator.degrade`
  flags that through the ``dispatch.degraded`` event and gauge.  The
  sweep *completes*; it never silently loses shards.

Determinism: the coordinator owns *placement*, never *results*.
Shard payloads, seeds and the submission-order merge are all fixed by
the executor, so which host runs a shard — or whether it ran twice,
or locally — is unobservable in the merged output.  The coordinator's
own ``dispatch.*`` metrics live in a **separate registry** from the
executor's merged sweep registry for the same reason: host counts and
re-dispatches are run-dependent and must not leak into the
byte-identical exposition.

The :class:`ChaosProxy` makes the failure paths testable the way the
resilience layer's :class:`~repro.resilience.faults.FaultInjector`
made shaper faults testable: frozen spec dataclasses keyed off shard
index (never wall clock), firing deterministically at the
coordinator's transport boundary.
"""

from __future__ import annotations

import concurrent.futures
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.common.errors import (
    ConfigurationError,
    DispatchError,
    HostLostError,
    LeaseExpiredError,
    ShardTransportError,
)
from repro.obs import diag
from repro.obs.events import CATEGORY_DISPATCH
from repro.obs.metrics import MetricsRegistry
from repro.parallel.protocol import FrameChannel, hello_payload
from repro.parallel.worker import task_spec
from repro.resilience.retry import RetryPolicy

#: Dispatch default: three tries per shard, exponential backoff between
#: re-dispatches starting at 100 ms, capped at 2 s.
DEFAULT_DISPATCH_RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    backoff_seconds=0.1,
    backoff_factor=2.0,
    backoff_max_seconds=2.0,
)

#: Default lease deadline: how long the coordinator waits for a frame
#: (result *or* heartbeat) before declaring the shard's host wedged.
DEFAULT_LEASE_SECONDS = 30.0

#: TCP connect budget per host.
DEFAULT_CONNECT_TIMEOUT = 5.0


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (the ``--hosts`` flag)."""
    out: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"host spec {part!r} is not of the form 'host:port'"
            )
        try:
            out.append((host, int(port)))
        except ValueError as exc:
            raise ConfigurationError(
                f"host spec {part!r} has a non-integer port"
            ) from exc
    if not out:
        raise ConfigurationError(f"no hosts in spec {spec!r}")
    return out


# -- chaos ------------------------------------------------------------


@dataclass(frozen=True)
class HostCrash:
    """Retire the host that picks up ``shard_index``, at send time.

    Models a worker process dying between accepting a shard and
    acknowledging it: the coordinator sees the connection vanish
    (:class:`HostLostError`) and must re-dispatch elsewhere.
    """

    shard_index: int


@dataclass(frozen=True)
class LinkStall:
    """Stall the link while ``shard_index`` is in flight.

    The coordinator's frame wait times out exactly as if heartbeats
    stopped arriving — the lease expires and the shard re-dispatches.
    """

    shard_index: int


@dataclass(frozen=True)
class FrameCorruption:
    """Corrupt the frame carrying ``shard_index``'s result.

    The digest check fails (:class:`ShardTransportError`); the
    contract under test is that a corrupt frame is *never* merged —
    the shard re-runs and the stream is abandoned.
    """

    shard_index: int


@dataclass(frozen=True)
class SlowHost:
    """Inject ``heartbeats`` synthetic heartbeats before
    ``shard_index``'s real result frame.

    Exercises the lease-renewal path: a slow-but-alive host must keep
    its lease and its shard, with zero effect on the merged output.
    """

    shard_index: int
    heartbeats: int = 3


class ChaosProxy:
    """Deterministic failure injection at the coordinator's transport
    boundary.

    Specs are keyed off the *shard index* being dispatched — never
    wall clock, thread timing, or host identity alone — so a chaos
    scenario replays identically on every run (the FaultInjector
    discipline from :mod:`repro.resilience.faults`).  Each spec fires
    exactly once; everything that fires is appended to :attr:`log`.
    """

    def __init__(self, specs: Sequence[Any] = ()) -> None:
        for spec in specs:
            if not isinstance(
                spec, (HostCrash, LinkStall, FrameCorruption, SlowHost)
            ):
                raise ConfigurationError(
                    f"unknown chaos spec {type(spec).__name__}"
                )
        self.specs = tuple(specs)
        self.log: List[Dict[str, Any]] = []
        # Receives each spec still acts on: a SlowHost injects its
        # heartbeats first, then fires on the real result.
        self._left = [
            spec.heartbeats + 1 if isinstance(spec, SlowHost) else 1
            for spec in self.specs
        ]
        self._lock = threading.Lock()

    def _take(self, kinds: Any, host: str, shard: int) -> Tuple[Any, int]:
        """Consume one action of the first live spec of ``kinds`` aimed
        at ``shard``; ``(spec, actions left)``, or ``(None, 0)``."""
        with self._lock:
            for position, spec in enumerate(self.specs):
                if (
                    isinstance(spec, kinds)
                    and spec.shard_index == shard
                    and self._left[position]
                ):
                    self._left[position] -= 1
                    left = self._left[position]
                    if not left:
                        self.log.append({"spec": type(spec).__name__,
                                         "shard": shard, "host": host})
                    return spec, left
        return None, 0

    def before_send(self, host: str, shard: int) -> None:
        """Hook before a shard frame is sent; may raise."""
        if self._take(HostCrash, host, shard)[0] is not None:
            raise HostLostError(
                f"chaos: host crashed taking shard {shard}",
                host=host, shard=shard,
            )

    def recv(
        self,
        host: str,
        shard: int,
        lease: str,
        real_recv: Callable[[], Tuple[str, Any]],
    ) -> Tuple[str, Any]:
        """Hook around one frame receive; may raise or inject."""
        spec, left = self._take(
            (LinkStall, FrameCorruption, SlowHost), host, shard
        )
        if isinstance(spec, LinkStall):
            raise socket.timeout(f"chaos: link stalled on shard {shard}")
        if isinstance(spec, FrameCorruption):
            raise ShardTransportError(
                f"chaos: frame digest mismatch on shard {shard}",
                host=host, shard=shard,
            )
        if isinstance(spec, SlowHost) and left:
            return "heartbeat", {
                "shard": shard,
                "lease": lease,
                "seq": spec.heartbeats - left + 1,
                "synthetic": True,
            }
        return real_recv()


# -- coordinator ------------------------------------------------------


@dataclass
class _HostSlot:
    """One worker host, as a slot of the executor's shard loop."""

    coordinator: "DispatchCoordinator" = field(repr=False)
    address: Tuple[str, int]
    channel: Optional[FrameChannel] = None
    alive: bool = True

    local = False

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def submit(self, fn: Callable[..., Any], shards: List[Any]) -> Any:
        """Run one shard on this host; a future of its outcome."""
        [shard] = shards
        assert self.coordinator._threads is not None
        return self.coordinator._threads.submit(
            self.coordinator._execute_on_host, self, task_spec(fn), shard
        )

    def retire(self, error: BaseException) -> None:
        self.coordinator._retire_host(self, error)

    def abandon(self) -> None:
        """The shard overran its attempt: stop trusting this host."""
        self.retire(TimeoutError("per-attempt timeout"))


class DispatchCoordinator:
    """Remote slots for a :class:`SweepExecutor`; survives the hosts
    not surviving.

    Parameters
    ----------
    hosts:
        ``(host, port)`` pairs, or a ``"h:p,h:p"`` spec string.
    lease_seconds:
        Frame-wait deadline per dispatched shard (renewed by
        heartbeats).
    chaos:
        Optional :class:`ChaosProxy`.
    connect_timeout:
        TCP connect and handshake budget per host.

    The retry policy, backoff sleep and ledger belong to the executor
    (``SweepExecutor(retry=, sleep=, ledger=)``): one policy per run,
    whatever the placement.
    """

    def __init__(
        self,
        hosts: Any,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        chaos: Optional[ChaosProxy] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        if isinstance(hosts, str):
            hosts = parse_hosts(hosts)
        if not hosts:
            raise ConfigurationError("dispatch needs at least one host")
        if lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be positive")
        self.lease_seconds = lease_seconds
        self.connect_timeout = connect_timeout
        self.chaos = chaos
        self._hosts = [_HostSlot(self, tuple(addr)) for addr in hosts]
        # Host threads of the current sweep (see begin/end).
        self._threads: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self.degraded = False
        self.registry = MetricsRegistry()
        self.registry.gauge("dispatch.hosts_configured").set(len(self._hosts))
        self.registry.gauge("dispatch.hosts_alive").set(0)
        self.registry.gauge("dispatch.degraded").set(0)
        # Pre-register every counter family so `repro dispatch status`
        # and scrapes see a stable zero-filled set, not one that grows
        # as failures happen to occur.
        for family in (
            "dispatch.shards_dispatched",
            "dispatch.shards_completed",
            "dispatch.cached_shards",
            "dispatch.redispatches",
            "dispatch.heartbeats",
            "dispatch.task_failures",
            "dispatch.transport_errors",
            "dispatch.lease_expiries",
            "dispatch.hosts_retired",
            "dispatch.local_fallback_shards",
        ):
            self.registry.counter(family)

    # -- events / counters --------------------------------------------

    def _emit(self, name: str, shard: int = -1, **args: Any) -> None:
        diag.emit_diagnostic(
            name, category=CATEGORY_DISPATCH, shard=shard, **args
        )

    def _count(self, family: str, amount: int = 1) -> None:
        # Host threads and the shard loop both count.
        with self._lock:
            self.registry.counter(family).inc(amount)

    # -- the shard loop's view ----------------------------------------

    @property
    def host_names(self) -> List[str]:
        return [state.name for state in self._hosts]

    def slots(self) -> List[_HostSlot]:
        """The live hosts, one slot each."""
        return [state for state in self._hosts if state.alive]

    def begin(self, kind: str, shards: int, cached: int) -> None:
        """Connect every live host (concurrently) before a sweep."""
        live = self.slots()
        self._threads = concurrent.futures.ThreadPoolExecutor(
            max_workers=len(self._hosts), thread_name_prefix="dispatch"
        )
        connects = [self._threads.submit(self._connect, s) for s in live]
        for state, future in zip(live, connects):
            try:
                future.result()
            except DispatchError as exc:
                self._retire_host(state, exc)
        self.registry.gauge("dispatch.hosts_alive").set(len(self.slots()))
        self._count("dispatch.cached_shards", cached)
        self._emit(
            "dispatch.sweep_begin", kind=kind, shards=shards,
            cached=cached, hosts=len(self._hosts),
        )

    def degrade(self, shards: int) -> None:
        """No live host is left: ``shards`` will run locally."""
        self.degraded = True
        self.registry.gauge("dispatch.degraded").set(1)
        self._count("dispatch.local_fallback_shards", shards)
        self._emit(
            "dispatch.degraded", shards=shards, reason="all hosts retired",
        )

    def end(self, shards: int) -> None:
        """Wait for in-flight host threads, then close the sweep."""
        assert self._threads is not None
        self._threads.shutdown(wait=True)
        self._emit(
            "dispatch.sweep_done", shards=shards, degraded=self.degraded,
        )

    # -- connection management ----------------------------------------

    def _connect(self, state: _HostSlot) -> None:
        """Connect + handshake one host; raises DispatchError flavours."""
        if state.channel is not None:
            return
        try:
            sock = socket.create_connection(
                state.address, timeout=self.connect_timeout
            )
        except OSError as exc:
            raise HostLostError(
                f"connect to {state.name} failed: {exc}", host=state.name
            ) from exc
        channel = FrameChannel(sock, state.name)
        try:
            channel.send(
                "hello", hello_payload(repro.__version__, "coordinator")
            )
            kind, payload = channel.recv(timeout=self.connect_timeout)
        except socket.timeout as exc:
            channel.close()
            raise HostLostError(
                f"handshake with {state.name} timed out", host=state.name
            ) from exc
        except DispatchError:
            channel.close()
            raise
        if kind != "hello_ack" or not isinstance(payload, dict):
            detail = ""
            if kind == "error" and isinstance(payload, dict):
                detail = f": {payload.get('error', '')}"
            channel.close()
            raise ShardTransportError(
                f"handshake with {state.name} rejected ({kind}){detail}",
                host=state.name,
            )
        if payload.get("code_version") != repro.__version__:
            channel.close()
            raise ShardTransportError(
                f"{state.name} runs code_version "
                f"{payload.get('code_version')!r} != {repro.__version__} — "
                "results would not be cache-compatible",
                host=state.name,
            )
        state.channel = channel
        self._emit("dispatch.host_up", host=state.name)

    def _retire_host(self, state: _HostSlot, error: BaseException) -> None:
        if not state.alive:
            return
        state.alive = False
        if isinstance(error, LeaseExpiredError):
            self._count("dispatch.lease_expiries")
        elif isinstance(error, ShardTransportError):
            self._count("dispatch.transport_errors")
        self._count("dispatch.hosts_retired")
        self.registry.gauge("dispatch.hosts_alive").set(len(self.slots()))
        if state.channel is not None:
            state.channel.close()
            state.channel = None
        self._emit(
            "dispatch.host_retired", host=state.name,
            error=f"{type(error).__name__}: {error}",
        )

    def close(self) -> None:
        """Drop all connections (worker hosts keep serving)."""
        for state in self._hosts:
            if state.channel is not None:
                state.channel.close()
                state.channel = None

    # -- one shard on one host (runs on a host thread) ----------------

    def _execute_on_host(
        self, state: _HostSlot, spec: str, shard: Any
    ) -> List[Tuple[bool, Any]]:
        """Send ``shard`` (an executor ``_Shard``) and wait for its
        result frame; a task error comes back in-band as a string."""
        lease = f"{shard.index}:{shard.handoffs}"
        if self.chaos is not None:
            self.chaos.before_send(state.name, shard.index)
        channel = state.channel
        assert channel is not None
        channel.send(
            "shard",
            {
                "shard": shard.index,
                "lease": lease,
                "fn": spec,
                "payload": shard.payload,
                "task_seed": shard.task_seed,
                "label": shard.label,
            },
        )
        self._count("dispatch.shards_dispatched")
        if shard.handoffs > 1:
            self._count("dispatch.redispatches")
        self._emit(
            "dispatch.shard_leased", shard=shard.index, host=state.name,
            lease=lease,
        )

        def real_recv() -> Tuple[str, Any]:
            return channel.recv(timeout=self.lease_seconds)

        while True:
            try:
                if self.chaos is not None:
                    kind, payload = self.chaos.recv(
                        state.name, shard.index, lease, real_recv
                    )
                else:
                    kind, payload = real_recv()
            except socket.timeout as exc:
                raise LeaseExpiredError(
                    f"lease {lease} on {state.name} expired after "
                    f"{self.lease_seconds}s without heartbeat or result",
                    host=state.name, shard=shard.index,
                    lease_seconds=self.lease_seconds,
                ) from exc
            if not isinstance(payload, dict):
                raise ShardTransportError(
                    f"non-object {kind!r} payload from {state.name}",
                    host=state.name, shard=shard.index,
                )
            if payload.get("lease") != lease:
                # A frame from a previous lease (e.g. a result that
                # raced its own expiry): log and keep waiting — stale
                # results are *never* merged.
                self._emit(
                    "dispatch.stale_frame", shard=shard.index,
                    host=state.name, kind=kind,
                    stale_lease=str(payload.get("lease")),
                )
                continue
            if kind == "heartbeat":
                self._count("dispatch.heartbeats")
                self._emit(
                    "dispatch.heartbeat", shard=shard.index,
                    host=state.name, seq=payload.get("seq", 0),
                )
                continue
            if kind == "result":
                if payload.get("ok"):
                    self._count("dispatch.shards_completed")
                    self._emit(
                        "dispatch.shard_done", shard=shard.index,
                        host=state.name, attempts=shard.handoffs,
                    )
                    return [(True, payload.get("value"))]
                error = payload.get("error", "unknown error")
                self._count("dispatch.task_failures")
                self._emit(
                    "dispatch.shard_task_failed", shard=shard.index,
                    host=state.name, attempts=shard.handoffs, error=error,
                )
                return [(False, error)]
            raise ShardTransportError(
                f"unexpected {kind!r} frame from {state.name} while "
                f"waiting on lease {lease}",
                host=state.name, shard=shard.index,
            )
