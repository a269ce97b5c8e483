"""Dispatch worker host: serves sweep shards over the frame protocol.

One :class:`WorkerHost` is one remote execution endpoint for the
dispatch coordinator (:mod:`repro.parallel.dispatch`): it accepts one
coordinator connection at a time, performs the version handshake, and
then executes ``shard`` requests one by one — each on a one-process
warm ``spawn`` pool (:func:`repro.parallel.executor._warm_pool`), so a
worker host pays interpreter spawn and simulator imports once.  A host
runs one shard at a time; to use more processes on one machine, start
more worker hosts.

While a shard executes on the pool, the serving thread sends
``heartbeat`` frames every ``heartbeat_seconds`` so the coordinator's
liveness table can tell "slow but alive" from "dead": a wedged or
killed worker stops heartbeating and its shard's lease expires.

Determinism: the worker adds nothing to a result — it runs the same
module-level task function, with the same payload and the same
executor-derived ``task_seed``, that a local run would, and ships the
JSON-typed result back verbatim.  Task functions are resolved from an
explicit ``module:qualname`` allowlist (``task_modules``), never from
arbitrary pickled code: the coordinator names a function, the worker
decides whether it is willing to run it.

Failure handling mirrors the executor's in-band convention: a task
exception becomes an ``ok=false`` result frame (the executor's shard
loop charges an attempt and requeues the shard), while transport
errors tear down the connection and return the host to its accept
loop, ready for the next coordinator.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import socket
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import repro
from repro.common.errors import (
    ConfigurationError,
    HostLostError,
    ShardTransportError,
)
from repro.obs import diag
from repro.obs.events import CATEGORY_DISPATCH
from repro.parallel.executor import _call_task, _discard_pool, _warm_pool
from repro.parallel.protocol import (
    PROTOCOL_VERSION,
    FrameChannel,
    hello_payload,
)

#: Default task-function allowlist: the repo's own sweep task module.
DEFAULT_TASK_MODULES: Tuple[str, ...] = ("repro.parallel.tasks",)

#: Handshake / idle-read budget.  A peer that connects but never
#: completes the hello within this window is dropped so the accept
#: loop cannot be wedged by a port scanner.
HANDSHAKE_TIMEOUT = 30.0


def resolve_task(
    spec: str, task_modules: Sequence[str]
) -> Callable[..., Any]:
    """Resolve ``"module:qualname"`` against the allowlist.

    Only module-level callables from explicitly allowed modules
    resolve; anything else is a :class:`ConfigurationError` (reported
    in-band to the coordinator as a failed shard).
    """
    if ":" not in spec:
        raise ConfigurationError(
            f"task spec {spec!r} is not of the form 'module:qualname'"
        )
    module_name, _, qualname = spec.partition(":")
    if module_name not in task_modules:
        raise ConfigurationError(
            f"task module {module_name!r} is not in this worker's "
            f"allowlist {tuple(task_modules)}"
        )
    module = importlib.import_module(module_name)
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise ConfigurationError(
                f"{module_name!r} has no attribute {qualname!r}"
            )
    if not callable(obj):
        raise ConfigurationError(f"task {spec!r} is not callable")
    return obj


def task_spec(fn: Callable[..., Any]) -> str:
    """The ``module:qualname`` wire name of a module-level task."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ConfigurationError(
            f"task {fn!r} is not an addressable module-level function"
        )
    return f"{module}:{qualname}"


class WorkerHost:
    """One dispatch worker endpoint.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (``bind()``
        returns the actual one — tests depend on this).
    task_modules:
        Module allowlist for :func:`resolve_task`.
    heartbeat_seconds:
        Interval between heartbeat frames while a shard executes.
    inline:
        Run tasks in the serving thread instead of the pool.  No
        heartbeats are sent mid-task (the task must fit in the lease);
        used by tests and by trivially cheap task functions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        task_modules: Sequence[str] = DEFAULT_TASK_MODULES,
        heartbeat_seconds: float = 1.0,
        inline: bool = False,
    ) -> None:
        if heartbeat_seconds <= 0:
            raise ConfigurationError("heartbeat_seconds must be positive")
        self.host = host
        self.port = port
        self.task_modules = tuple(task_modules)
        self.heartbeat_seconds = heartbeat_seconds
        self.inline = inline
        self.shards_served = 0
        self.shards_failed = 0
        self._listener: Optional[socket.socket] = None
        self._active_channel: Optional[FrameChannel] = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------

    def bind(self) -> Tuple[str, int]:
        """Bind the listening socket; returns ``(host, actual_port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(1)
        self._listener = listener
        self.port = listener.getsockname()[1]
        return self.host, self.port

    def close(self) -> None:
        """Stop serving: unblocks ``serve_forever`` from any thread."""
        self._closing = True
        if self._active_channel is not None:
            self._active_channel.close()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed, or never connected
            try:
                self._listener.close()
            except OSError:
                pass  # already closed
        if not self.inline:
            _discard_pool()

    def serve_forever(self) -> None:
        """Accept coordinators until closed or told to shut down."""
        if self._listener is None:
            self.bind()
        assert self._listener is not None
        diag.emit_diagnostic(
            "dispatch.worker_listening", category=CATEGORY_DISPATCH,
            host=f"{self.host}:{self.port}", inline=self.inline,
        )
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                if self._closing:
                    return
                raise
            peer = f"{addr[0]}:{addr[1]}"
            channel = FrameChannel(conn, peer)
            self._active_channel = channel
            try:
                self._serve_connection(channel, peer)
            except (HostLostError, ShardTransportError, socket.timeout) as exc:
                # The coordinator went away or sent garbage: drop the
                # connection, log it, and go back to accepting — a
                # worker host outlives any one coordinator.
                diag.emit_diagnostic(
                    "dispatch.worker_conn_lost", category=CATEGORY_DISPATCH,
                    peer=peer, error=f"{type(exc).__name__}: {exc}",
                )
            finally:
                self._active_channel = None
                channel.close()
            if self._closing:
                return

    # -- per-connection protocol -------------------------------------

    def _serve_connection(self, channel: FrameChannel, peer: str) -> None:
        kind, payload = channel.recv(timeout=HANDSHAKE_TIMEOUT)
        if kind != "hello" or not isinstance(payload, dict):
            raise ShardTransportError(
                f"expected hello frame, got {kind!r}", host=peer
            )
        for field, expected in (
            ("protocol", PROTOCOL_VERSION),
            ("code_version", repro.__version__),
        ):
            if payload.get(field) != expected:
                mismatch = f"{field} {payload.get(field)!r} != {expected}"
                channel.send("error", {"error": mismatch})
                raise ShardTransportError(
                    f"coordinator {mismatch}", host=peer
                )
        channel.send("hello_ack", hello_payload(repro.__version__, "worker"))
        diag.emit_diagnostic(
            "dispatch.worker_handshake", category=CATEGORY_DISPATCH,
            peer=peer,
        )
        while True:
            kind, payload = channel.recv(timeout=None)
            if kind != "shard" or not isinstance(payload, dict):
                raise ShardTransportError(
                    f"expected shard frame, got {kind!r}", host=peer
                )
            self._serve_shard(channel, payload)

    def _serve_shard(
        self, channel: FrameChannel, request: Dict[str, Any]
    ) -> None:
        shard = request.get("shard", -1)
        lease = request.get("lease", "")
        result: Dict[str, Any] = {"shard": shard, "lease": lease}
        diag.emit_diagnostic(
            "dispatch.worker_shard_start", category=CATEGORY_DISPATCH,
            shard=shard, label=request.get("label", ""),
        )
        try:
            fn = resolve_task(request.get("fn", ""), self.task_modules)
            value = self._execute(
                fn, request.get("payload"), request.get("task_seed"),
                channel, shard, lease,
            )
            result["ok"] = True
            result["value"] = value
            self.shards_served += 1
        except (HostLostError, ShardTransportError):
            raise  # connection-level: caller retires the connection
        except Exception as exc:  # noqa: BLE001 — in-band task failure
            result["ok"] = False
            result["error"] = f"{type(exc).__name__}: {exc}"
            self.shards_failed += 1
        channel.send("result", result)
        diag.emit_diagnostic(
            "dispatch.worker_shard_done", category=CATEGORY_DISPATCH,
            shard=shard, ok=result["ok"],
        )

    def _execute(
        self,
        fn: Callable[..., Any],
        payload: Any,
        task_seed: Optional[int],
        channel: FrameChannel,
        shard: Any,
        lease: Any,
    ) -> Any:
        if self.inline:
            return _call_task(fn, payload, task_seed)
        pool = _warm_pool(1)
        future = pool.submit(_call_task, fn, payload, task_seed)
        seq = 0
        while True:
            done, _ = concurrent.futures.wait(
                [future], timeout=self.heartbeat_seconds
            )
            if done:
                break
            seq += 1
            channel.send(
                "heartbeat", {"shard": shard, "lease": lease, "seq": seq}
            )
            diag.emit_diagnostic(
                "dispatch.worker_heartbeat", category=CATEGORY_DISPATCH,
                shard=shard, seq=seq,
            )
        if getattr(pool, "_broken", False):
            _discard_pool()
        return future.result()
