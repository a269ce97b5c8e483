"""System builder and the cycle-driven simulation loop.

A :class:`System` is the paper's Figure 5 made executable.  Use
:class:`SystemBuilder` to assemble one:

>>> from repro.sim import SystemBuilder
>>> from repro.workloads import make_trace
>>> builder = SystemBuilder(seed=7)
>>> _ = builder.add_core(make_trace("astar", 500))
>>> _ = builder.add_core(make_trace("mcf", 500))
>>> system = builder.build()
>>> report = system.run(20000)
>>> report.num_cores
2

Shaping is attached per core: ``request_shaping=`` for ReqC,
``response_shaping=`` for RespC, both for BDC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import DeterministicRng
from repro.core.bins import BinConfiguration, BinSpec
from repro.core.epoch_shaper import EpochRateShaper, RateSet
from repro.core.request_shaper import PassthroughShaper, RequestCamouflage
from repro.core.response_shaper import PassthroughResponsePath, ResponseCamouflage
from repro.core.shaper import BinShaper
from repro.cpu.core import Core, CoreConfig
from repro.cpu.trace import MemoryTrace
from repro.dram.address import AddressMapping
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming
from repro.memctrl.controller import MemoryController
from repro.memctrl.schedulers import (
    FixedServiceScheduler,
    FrFcfsScheduler,
    PriorityFrFcfsScheduler,
    Scheduler,
    TemporalPartitioningScheduler,
)
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink
from repro.noc.mesh import MeshNetwork
from repro.obs.hub import Observability, ObservabilityConfig
from repro.obs.tracer import NULL_TRACER
from repro.resilience.runtime import ResilienceConfig, ResilienceRuntime
from repro.resilience.watchdog import Watchdog
from repro.sim.columnar import ColumnarEngine
from repro.sim.stats import CoreStats, SystemReport


@dataclass(frozen=True)
class RequestShapingPlan:
    """ReqC attachment for one core.

    ``strict_binning`` selects the exact-bin release rule (tightest
    distribution matching, used for the Figure 11 accuracy experiment)
    over the default any-credited-bin rule.
    """

    config: BinConfiguration
    spec: BinSpec = BinSpec()
    generate_fake: bool = True
    strict_binning: bool = False
    jitter: bool = False


@dataclass(frozen=True)
class ResponseShapingPlan:
    """RespC attachment for one core."""

    config: BinConfiguration
    spec: BinSpec = BinSpec()
    generate_fake: bool = True
    enable_warning: bool = True
    strict_binning: bool = False
    jitter: bool = False


@dataclass(frozen=True)
class EpochShapingPlan:
    """Fletcher'14 epoch-rate shaping attachment (baseline/extension).

    Mutually exclusive with ``request_shaping`` on the same core: it
    replaces the request path with an
    :class:`~repro.core.epoch_shaper.EpochRateShaper`.
    """

    rates: Optional[RateSet] = None
    epoch_cycles: int = 8192


@dataclass
class _CorePlan:
    trace: MemoryTrace
    request_shaping: Optional[RequestShapingPlan]
    response_shaping: Optional[ResponseShapingPlan]
    epoch_shaping: Optional[EpochShapingPlan] = None


# Sampler probes and wiring callables, as module-level classes rather
# than builder closures: the wired system must pickle for
# checkpoint/restore (repro.resilience.snapshot), and locally defined
# lambdas cannot.  Every probe reads only span-constant state — the
# interval sampler's closed-form-fill contract (repro.obs.metrics).


class _OutstandingGapProbe:
    """RespC's acceleration signal: this core's misses still inside
    the memory system (outstanding minus already buffered responses)."""

    __slots__ = ("_core", "_path")

    def __init__(self, core, path) -> None:
        self._core = core
        self._path = path

    def __call__(self) -> int:
        return max(0, self._core.outstanding_misses - self._path.occupancy)


class _AttrProbe:
    """Reads one cumulative-counter attribute of one component."""

    __slots__ = ("_obj", "_attr")

    def __init__(self, obj, attr: str) -> None:
        self._obj = obj
        self._attr = attr

    def __call__(self):
        return getattr(self._obj, self._attr)


class _QueueDepthProbe:
    __slots__ = ("_controller",)

    def __init__(self, controller) -> None:
        self._controller = controller

    def __call__(self) -> int:
        return len(self._controller.queue)


class _RowHitRateProbe:
    __slots__ = ("_controller",)

    def __init__(self, controller) -> None:
        self._controller = controller

    def __call__(self) -> float:
        hits = self._controller.row_hits
        total = hits + self._controller.row_misses
        return hits / total if total else 0.0


class _CreditSumProbe:
    __slots__ = ("_path",)

    def __init__(self, path) -> None:
        self._path = path

    def __call__(self) -> int:
        return sum(self._path.shaper.credits_remaining())


class _FakeFractionProbe:
    __slots__ = ("_path",)

    def __init__(self, path) -> None:
        self._path = path

    def __call__(self) -> float:
        fake = self._path.fake_sent
        total = self._path.real_sent + fake
        return fake / total if total else 0.0


class SystemBuilder:
    """Fluent assembly of a full system."""

    def __init__(self, seed: int = 12345) -> None:
        self._seed = seed
        self._core_plans: List[_CorePlan] = []
        self._scheduler_kind = "frfcfs"
        self._scheduler_kwargs: Dict = {}
        self._timing = DramTiming()
        self._organization = DramOrganization()
        self._enable_refresh = True
        self._hierarchy_config = HierarchyConfig()
        self._core_config = CoreConfig()
        self._noc_latency = 4
        self._noc_port_capacity = 16
        self._noc_topology = "shared"
        self._obs_config: Optional[ObservabilityConfig] = None
        self._resilience_config: Optional[ResilienceConfig] = None
        self._queue_capacity = 32
        self._page_policy = "open"
        self._write_queue_policy = None
        self._bank_partitioning = False
        self._address_space = 1 << 30

    # -- configuration -----------------------------------------------------

    def add_core(
        self,
        trace: MemoryTrace,
        request_shaping: Optional[RequestShapingPlan] = None,
        response_shaping: Optional[ResponseShapingPlan] = None,
        epoch_shaping: Optional[EpochShapingPlan] = None,
    ) -> int:
        """Register a core; returns its id (assignment order)."""
        if request_shaping is not None and epoch_shaping is not None:
            raise ConfigurationError(
                "a core takes either bin shaping or epoch-rate shaping "
                "on its request path, not both"
            )
        self._core_plans.append(
            _CorePlan(trace, request_shaping, response_shaping, epoch_shaping)
        )
        return len(self._core_plans) - 1

    def with_scheduler(self, kind: str, **kwargs) -> "SystemBuilder":
        """Select the memory scheduling policy.

        ``kind`` ∈ {"frfcfs", "priority", "tp", "fs"}; kwargs are
        forwarded to the scheduler constructor (e.g. ``turn_length``
        for TP, ``interval`` for FS).
        """
        if kind not in ("frfcfs", "priority", "tp", "fs"):
            raise ConfigurationError(f"unknown scheduler kind {kind!r}")
        self._scheduler_kind = kind
        self._scheduler_kwargs = dict(kwargs)
        return self

    def with_dram(
        self,
        timing: Optional[DramTiming] = None,
        organization: Optional[DramOrganization] = None,
        enable_refresh: Optional[bool] = None,
    ) -> "SystemBuilder":
        if timing is not None:
            self._timing = timing
        if organization is not None:
            self._organization = organization
        if enable_refresh is not None:
            self._enable_refresh = enable_refresh
        return self

    def with_noc(
        self,
        latency: int = 4,
        port_capacity: int = 16,
        topology: str = "shared",
    ) -> "SystemBuilder":
        """Configure the on-chip channels.

        ``topology`` is ``"shared"`` (single arbitrated link, the
        default model) or ``"mesh"`` (2D mesh of input-buffered
        routers — position-dependent contention; see
        :mod:`repro.noc.mesh`).  The grant-trace bound is an
        observability setting:
        ``with_observability(noc_grant_trace_limit=N)``.
        """
        if topology not in ("shared", "mesh"):
            raise ConfigurationError(f"unknown NoC topology {topology!r}")
        self._noc_latency = latency
        self._noc_port_capacity = port_capacity
        self._noc_topology = topology
        return self

    def with_observability(
        self,
        config: Optional[ObservabilityConfig] = None,
        **kwargs,
    ) -> "SystemBuilder":
        """Attach the :mod:`repro.obs` stack to the built system.

        Pass a ready :class:`~repro.obs.hub.ObservabilityConfig`, or
        its fields as keyword arguments (``trace=True``,
        ``sample_interval=1024``, ``monitor=True``, ...).  Without this
        call the system carries no observability state at all; with it,
        only the enabled facilities cost anything.
        """
        if config is not None and kwargs:
            raise ConfigurationError(
                "pass either an ObservabilityConfig or keyword fields, "
                "not both"
            )
        self._obs_config = (
            config if config is not None else ObservabilityConfig(**kwargs)
        )
        return self

    def with_resilience(
        self,
        config: Optional[ResilienceConfig] = None,
        **kwargs,
    ) -> "SystemBuilder":
        """Attach the :mod:`repro.resilience` layer to the built system.

        Pass a ready :class:`~repro.resilience.runtime.ResilienceConfig`
        or its fields as keyword arguments (``checkpoint_every=50_000``,
        ``watchdog_cycles=10_000``, ``jitter_budget=256``,
        ``faults=(...)``, ...).  Enables periodic whole-system
        checkpoints, the diagnostic-dumping watchdog, graceful shaper
        degradation and the fault-injection harness — see
        docs/resilience.md.
        """
        if config is not None and kwargs:
            raise ConfigurationError(
                "pass either a ResilienceConfig or keyword fields, not both"
            )
        self._resilience_config = (
            config if config is not None else ResilienceConfig(**kwargs)
        )
        return self

    def with_core_config(self, config: CoreConfig) -> "SystemBuilder":
        self._core_config = config
        return self

    def with_hierarchy_config(self, config: HierarchyConfig) -> "SystemBuilder":
        self._hierarchy_config = config
        return self

    def with_queue_capacity(self, capacity: int) -> "SystemBuilder":
        self._queue_capacity = capacity
        return self

    def with_page_policy(self, policy: str) -> "SystemBuilder":
        """Row-buffer management: ``"open"`` (default) or ``"closed"``."""
        if policy not in ("open", "closed"):
            raise ConfigurationError(f"unknown page policy {policy!r}")
        self._page_policy = policy
        return self

    def with_write_queue(self, policy=None) -> "SystemBuilder":
        """Enable the controller's dedicated write path.

        ``policy`` is a :class:`~repro.memctrl.write_queue.WriteQueuePolicy`
        (defaults apply when omitted).
        """
        from repro.memctrl.write_queue import WriteQueuePolicy

        self._write_queue_policy = policy or WriteQueuePolicy()
        return self

    def with_bank_partitioning(self) -> "SystemBuilder":
        """Give each core a private subset of banks (FS pairing)."""
        self._bank_partitioning = True
        return self

    def with_address_space(self, size_bytes: int) -> "SystemBuilder":
        """Bound for fake-request target addresses."""
        self._address_space = size_bytes
        return self

    # -- assembly ---------------------------------------------------------------

    def _make_scheduler(self, num_cores: int) -> Scheduler:
        kind = self._scheduler_kind
        kwargs = dict(self._scheduler_kwargs)
        needs_priority = any(
            p.response_shaping is not None and p.response_shaping.enable_warning
            for p in self._core_plans
        )
        if kind == "frfcfs" and needs_priority:
            # RespC's acceleration warning needs a priority-capable
            # scheduler; upgrade transparently.
            kind = "priority"
        if kind == "frfcfs":
            return FrFcfsScheduler()
        if kind == "priority":
            return PriorityFrFcfsScheduler(num_cores)
        if kind == "tp":
            domain_of_core = kwargs.pop(
                "domain_of_core", list(range(num_cores))
            )
            return TemporalPartitioningScheduler(domain_of_core, **kwargs)
        if kind == "fs":
            return FixedServiceScheduler(num_cores, **kwargs)
        raise ConfigurationError(f"unknown scheduler kind {kind!r}")

    def _make_mappings(self, num_cores: int):
        default = AddressMapping(self._organization)
        if not self._bank_partitioning:
            return default, None
        banks = self._organization.banks_per_rank
        if num_cores > banks:
            raise ConfigurationError(
                f"bank partitioning needs >= one bank per core "
                f"({num_cores} cores, {banks} banks) — the scalability "
                "limit of FS the paper points out"
            )
        share = banks // num_cores
        per_core = {
            c: AddressMapping.partitioned(
                self._organization,
                list(range(c * share, (c + 1) * share)),
            )
            for c in range(num_cores)
        }
        return default, per_core

    def build(self) -> "System":
        if not self._core_plans:
            raise ConfigurationError("a system needs at least one core")
        num_cores = len(self._core_plans)
        rng = DeterministicRng(self._seed)

        dram = DramSystem(
            timing=self._timing,
            organization=self._organization,
            enable_refresh=self._enable_refresh,
        )
        scheduler = self._make_scheduler(num_cores)
        default_mapping, per_core_mapping = self._make_mappings(num_cores)
        controller = MemoryController(
            dram,
            scheduler=scheduler,
            mapping=default_mapping,
            per_core_mapping=per_core_mapping,
            queue_capacity=self._queue_capacity,
            page_policy=self._page_policy,
            write_queue_policy=self._write_queue_policy,
        )
        noc_trace_limit = (
            self._obs_config.noc_grant_trace_limit
            if self._obs_config is not None
            else None
        )
        if self._noc_topology == "mesh":
            request_link = MeshNetwork(
                num_cores, direction="to_hub",
                port_capacity=self._noc_port_capacity,
                trace_limit=noc_trace_limit,
            )
            response_link = MeshNetwork(
                num_cores, direction="from_hub",
                port_capacity=self._noc_port_capacity,
                trace_limit=noc_trace_limit,
            )
        else:
            request_link = SharedLink(
                num_cores, latency=self._noc_latency,
                port_capacity=self._noc_port_capacity,
                trace_limit=noc_trace_limit,
            )
            response_link = SharedLink(
                num_cores, latency=self._noc_latency,
                port_capacity=self._noc_port_capacity,
                trace_limit=noc_trace_limit,
            )

        jitter_budget = (
            self._resilience_config.jitter_budget
            if self._resilience_config is not None
            else None
        )
        request_paths = []
        for core_id, plan in enumerate(self._core_plans):
            if plan.epoch_shaping is not None:
                epoch_plan = plan.epoch_shaping
                request_paths.append(
                    EpochRateShaper(
                        core_id=core_id,
                        link=request_link,
                        port=core_id,
                        rng=rng.fork(2000 + core_id),
                        rates=epoch_plan.rates or RateSet(),
                        epoch_cycles=epoch_plan.epoch_cycles,
                        address_space_bytes=self._address_space,
                        line_bytes=self._hierarchy_config.l1.line_bytes,
                    )
                )
            elif plan.request_shaping is None:
                request_paths.append(
                    PassthroughShaper(core_id, request_link, core_id)
                )
            else:
                shaping = plan.request_shaping
                request_paths.append(
                    RequestCamouflage(
                        core_id=core_id,
                        shaper=BinShaper(
                            shaping.spec, shaping.config,
                            strict=shaping.strict_binning,
                            jitter_rng=(
                                rng.fork(3000 + core_id)
                                if shaping.jitter else None
                            ),
                            jitter_budget=jitter_budget,
                        ),
                        link=request_link,
                        port=core_id,
                        rng=rng.fork(1000 + core_id),
                        address_space_bytes=self._address_space,
                        line_bytes=self._hierarchy_config.l1.line_bytes,
                        generate_fake=shaping.generate_fake,
                    )
                )

        cores = [
            Core(
                core_id=core_id,
                trace=plan.trace,
                hierarchy=CacheHierarchy(self._hierarchy_config),
                request_sink=request_paths[core_id],
                config=self._core_config,
            )
            for core_id, plan in enumerate(self._core_plans)
        ]

        response_paths = []
        for core_id, plan in enumerate(self._core_plans):
            if plan.response_shaping is None:
                response_paths.append(
                    PassthroughResponsePath(core_id, response_link, core_id)
                )
            else:
                shaping = plan.response_shaping
                warn_target = (
                    scheduler
                    if shaping.enable_warning
                    and isinstance(scheduler, PriorityFrFcfsScheduler)
                    else None
                )
                path = ResponseCamouflage(
                    core_id=core_id,
                    shaper=BinShaper(
                        shaping.spec, shaping.config,
                        strict=shaping.strict_binning,
                        jitter_rng=(
                            rng.fork(4000 + core_id)
                            if shaping.jitter else None
                        ),
                        jitter_budget=jitter_budget,
                    ),
                    link=response_link,
                    port=core_id,
                    scheduler=warn_target,
                    generate_fake=shaping.generate_fake,
                )
                path.set_outstanding_fn(
                    _OutstandingGapProbe(cores[core_id], path)
                )
                response_paths.append(path)

        observability: Optional[Observability] = None
        if self._obs_config is not None:
            observability = Observability(self._obs_config)
            self._wire_observability(
                observability, cores, request_paths, response_paths,
                request_link, response_link, controller, dram,
            )

        resilience: Optional[ResilienceRuntime] = None
        if self._resilience_config is not None:
            resilience = ResilienceRuntime(
                self._resilience_config,
                rng,
                address_space_bytes=self._address_space,
                line_bytes=self._hierarchy_config.l1.line_bytes,
            )
            if observability is not None:
                resilience.attach_tracer(observability.tracer)
                if observability.monitor is not None:
                    # Graceful degradation is only *graceful* if it is
                    # flagged: route every shaper's degradation edge
                    # into the live monitor.
                    for path in list(request_paths) + list(response_paths):
                        shaper = getattr(path, "shaper", None)
                        if shaper is not None:
                            shaper.set_degradation_sink(
                                observability.monitor.flag_degraded
                            )

        return System(
            cores=cores,
            request_paths=request_paths,
            response_paths=response_paths,
            request_link=request_link,
            response_link=response_link,
            controller=controller,
            observability=observability,
            resilience=resilience,
        )

    def _wire_observability(
        self,
        obs: Observability,
        cores,
        request_paths,
        response_paths,
        request_link,
        response_link,
        controller,
        dram,
    ) -> None:
        """Hand the tracer to every component; register probes/watches.

        Every probe reads span-constant state (queue depths, credit
        registers, cumulative counters), so the interval sampler's
        closed-form fill across next-event skips is exact — see
        ``repro.obs.metrics`` for the contract.
        """
        tracer = obs.tracer
        request_link.attach_tracer(tracer, "request")
        response_link.attach_tracer(tracer, "response")
        controller.tracer = tracer
        dram.tracer = tracer
        for core_id, (req_path, resp_path) in enumerate(
            zip(request_paths, response_paths)
        ):
            if isinstance(req_path, RequestCamouflage):
                req_path.shaper.attach_tracer(tracer, core_id, "request")
            elif isinstance(req_path, EpochRateShaper):
                req_path.attach_tracer(tracer)
            if isinstance(resp_path, ResponseCamouflage):
                resp_path.shaper.attach_tracer(tracer, core_id, "response")

        if obs.sampler is not None:
            sampler = obs.sampler
            sampler.add_probe(
                "memctrl.queue_depth", _QueueDepthProbe(controller)
            )
            sampler.add_probe(
                "memctrl.row_hits", _AttrProbe(controller, "row_hits")
            )
            sampler.add_probe(
                "memctrl.row_misses", _AttrProbe(controller, "row_misses")
            )
            sampler.add_probe(
                "memctrl.row_hit_rate", _RowHitRateProbe(controller)
            )
            sampler.add_probe(
                "noc.request_grants", _AttrProbe(request_link, "total_grants")
            )
            sampler.add_probe(
                "noc.response_grants",
                _AttrProbe(response_link, "total_grants"),
            )
            for core_id, req_path in enumerate(request_paths):
                if isinstance(req_path, RequestCamouflage):
                    sampler.add_probe(
                        f"core{core_id}.request_credits",
                        _CreditSumProbe(req_path),
                    )
                sampler.add_probe(
                    f"core{core_id}.real_sent",
                    _AttrProbe(req_path, "real_sent"),
                )
                sampler.add_probe(
                    f"core{core_id}.fake_sent",
                    _AttrProbe(req_path, "fake_sent"),
                )
                sampler.add_probe(
                    f"core{core_id}.fake_fraction",
                    _FakeFractionProbe(req_path),
                )

        if obs.monitor is not None:
            for core_id, plan in enumerate(self._core_plans):
                req_path = request_paths[core_id]
                resp_path = response_paths[core_id]
                if plan.request_shaping is not None:
                    obs.monitor.watch(
                        core_id, "request",
                        req_path.intrinsic_histogram,
                        req_path.shaped_histogram,
                        plan.request_shaping.config.normalized(),
                    )
                elif plan.epoch_shaping is not None:
                    obs.monitor.watch(
                        core_id, "request",
                        req_path.intrinsic_histogram,
                        req_path.shaped_histogram,
                    )
                if plan.response_shaping is not None:
                    obs.monitor.watch(
                        core_id, "response",
                        resp_path.intrinsic_histogram,
                        resp_path.shaped_histogram,
                        plan.response_shaping.config.normalized(),
                    )


class System:
    """A fully wired system, ready to run."""

    def __init__(
        self,
        cores: Sequence[Core],
        request_paths: Sequence,
        response_paths: Sequence,
        request_link: SharedLink,
        response_link: SharedLink,
        controller: MemoryController,
        observability: Optional[Observability] = None,
        resilience: Optional[ResilienceRuntime] = None,
    ) -> None:
        self.cores = list(cores)
        self.request_paths = list(request_paths)
        self.response_paths = list(response_paths)
        self.request_link = request_link
        self.response_link = response_link
        self.controller = controller
        self.observability = observability
        self.resilience = resilience
        # Cached so the per-tick guard is one boolean test, not an
        # attribute chain (near-zero overhead when disabled).
        self._obs_cycle_hooks = (
            observability is not None and observability.has_cycle_hooks
        )
        self._fault_hooks = (
            resilience is not None and resilience.injector is not None
        )
        self.current_cycle = 0
        self._mc_staging: Deque[MemoryTransaction] = deque()
        # Per-core delivery records: latencies of real demand fills.
        self._latencies: List[List[int]] = [[] for _ in cores]
        self._response_times: List[List] = [[] for _ in cores]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def scheduler(self) -> Scheduler:
        return self.controller.scheduler

    def all_cores_done(self) -> bool:
        return all(core.done for core in self.cores)

    def delivered_count(self, core_id: int) -> int:
        """Real demand fills delivered to ``core_id`` so far."""
        return len(self._latencies[core_id])

    # -- main loop ------------------------------------------------------------

    def tick(self) -> None:
        """Advance the whole system by one cycle."""
        cycle = self.current_cycle
        if self._fault_hooks:
            # Fault injection runs before any component so the order of
            # injected work relative to normal work is fixed — identical
            # under both engines.
            self.resilience.injector.on_cycle(self, cycle)
        for core in self.cores:
            core.tick(cycle)
        for path in self.request_paths:
            path.tick(cycle)

        dest_ready = self.controller.can_accept() and not self._mc_staging
        if self._fault_hooks and self.resilience.injector.request_link_stalled(
            cycle
        ):
            dest_ready = False
        self.request_link.tick(cycle, dest_ready=dest_ready)
        for txn in self.request_link.pop_arrivals(cycle):
            self._mc_staging.append(txn)
        while self._mc_staging and self.controller.can_accept():
            self.controller.enqueue(self._mc_staging.popleft(), cycle)

        self.controller.tick(cycle)

        for core_id in range(self.num_cores):
            path = self.response_paths[core_id]
            # Drain only what the response path can buffer; the rest
            # stays in the controller's bounded egress, throttling
            # further service for this core (return-channel flow
            # control).
            while path.can_accept():
                popped = self.controller.pop_responses(core_id, limit=1)
                if not popped:
                    break
                path.push_response(popped[0], cycle)
            path.tick(cycle)

        self.response_link.tick(cycle)
        for txn in self.response_link.pop_arrivals(cycle):
            self._deliver(txn, cycle)

        if self._obs_cycle_hooks:
            self.observability.on_cycle_end(cycle)

        self.current_cycle = cycle + 1

    # -- clock jumps -----------------------------------------------------------

    def _skip_idle_span(self, target: int) -> None:
        """Jump the clock to ``target``, replaying skipped bookkeeping."""
        cycle = self.current_cycle
        for core in self.cores:
            core.skip_idle(cycle, target)
        for path in self.request_paths:
            skip = getattr(path, "skip_idle", None)
            if skip is not None:
                skip(cycle, target)
        if self._obs_cycle_hooks:
            # Sample boundaries inside [cycle, target) fall in a span
            # with no state changes: fill them with the current probe
            # values *before* the tick at ``target`` mutates anything.
            self.observability.on_cycle_end(target - 1)
        self.current_cycle = target

    def _deliver(self, txn: MemoryTransaction, cycle: int) -> None:
        txn.delivered_cycle = cycle
        core = self.cores[txn.core_id]
        if txn.kind is TransactionType.READ:
            latency = cycle - txn.created_cycle
            self._latencies[txn.core_id].append(latency)
            self._response_times[txn.core_id].append((cycle, latency))
            core.receive_fill(txn, cycle)
        # Fake reads and write-back acks carry no architectural state.

    def run(
        self,
        max_cycles: int,
        stop_when_done: bool = True,
        watchdog_cycles: int = 200_000,
        engine: str = "columnar",
    ) -> SystemReport:
        """Run for up to ``max_cycles`` more cycles; returns a report.

        Can be called repeatedly — the clock continues from where the
        previous call stopped (used by the GA's generation windows).

        ``watchdog_cycles`` guards against configuration deadlocks
        (e.g. a shaper whose credits can never release against a
        stalled core): if no core retires an instruction and no
        response is delivered for that many consecutive cycles while
        work is still pending, the run aborts with a
        :class:`~repro.common.errors.WatchdogError` (a
        :class:`~repro.common.errors.SimulationError` subclass)
        carrying a structured diagnostic dump instead of spinning
        forever.  Set to 0 to disable.  A
        :meth:`SystemBuilder.with_resilience` ``watchdog_cycles``
        setting overrides this argument, and ``checkpoint_every``
        makes the loop snapshot the whole system at every multiple of
        N cycles (see docs/resilience.md).

        ``engine`` selects the stepping strategy: ``"columnar"``
        (default) ticks only the stations that can act each stepped
        cycle and jumps the clock over spans where no station can
        change state (see :mod:`repro.sim.columnar`); ``"cycle"``
        ticks every station every cycle through :meth:`tick`, the
        reference the columnar engine is tested against.  Both produce
        a bit-identical :class:`~repro.sim.stats.SystemReport`.
        """
        if max_cycles <= 0:
            raise SimulationError(f"max_cycles must be positive: {max_cycles}")
        if engine not in ("columnar", "cycle"):
            raise SimulationError(
                f"unknown engine {engine!r}: expected 'columnar' or 'cycle'"
            )
        obs = self.observability
        # Re-derive the cached hook flag: a serve publisher can be
        # attached between builds and runs (repro serve), after
        # __init__ froze the original value.
        self._obs_cycle_hooks = obs is not None and obs.has_cycle_hooks
        res = self.resilience
        checkpoint_every = 0
        watchdog_dump_path = ""
        if res is not None:
            checkpoint_every = res.config.checkpoint_every
            watchdog_dump_path = res.config.watchdog_dump_path
            if res.config.watchdog_cycles is not None:
                watchdog_cycles = res.config.watchdog_cycles
        watchdog = Watchdog(
            watchdog_cycles,
            dump_path=watchdog_dump_path,
            tracer=obs.tracer if obs is not None else NULL_TRACER,
        )
        watchdog.reset(self)
        if obs is not None and obs.publisher is not None:
            # Serve mode only: the stall margin depends on the observe
            # cadence, which differs between engines — keep it out of
            # the registry on the deterministic cross-engine paths.
            watchdog.bind_metrics(obs.metrics)
        stepper = ColumnarEngine(self) if engine == "columnar" else None
        if stepper is None:
            step, all_done = self.tick, self.all_cores_done
        else:
            step, all_done = stepper.step, stepper.all_done
        prof = obs.profiler if obs is not None else None
        if prof is not None:
            prof.begin_run(engine, self.current_cycle)
        try:
            end = self.current_cycle + max_cycles
            if stepper is not None:
                stepper.refresh_horizons(self.current_cycle)
            while self.current_cycle < end:
                if stop_when_done and all_done():
                    break
                step()
                if (
                    checkpoint_every
                    and self.current_cycle % checkpoint_every == 0
                ):
                    res.take_checkpoint(self)
                target = None
                if stepper is not None:
                    stepper.refresh_horizons(self.current_cycle)
                    if self.current_cycle < end and not (
                        stop_when_done and all_done()
                    ):
                        target = stepper.next_target(end)
                if watchdog_cycles and target is not None:
                    # Never jump past the watchdog horizon in one step:
                    # a frozen (deadlocked) system must still trip the
                    # progress check, exactly as the per-cycle loop
                    # would while spinning through the same span.
                    target = min(target, watchdog.horizon(self.current_cycle))
                if checkpoint_every and target is not None:
                    # Land every clock jump exactly on checkpoint
                    # boundaries — behaviour-preserving by the engine's
                    # no-state-change guarantee, like the horizon cap.
                    target = min(
                        target,
                        res.next_checkpoint_boundary(self.current_cycle),
                    )
                skipped = target is not None and target > self.current_cycle
                if skipped:
                    if prof is not None:
                        prof.record_skip(target - self.current_cycle)
                    self._skip_idle_span(target)
                    if (
                        checkpoint_every
                        and self.current_cycle % checkpoint_every == 0
                    ):
                        res.take_checkpoint(self)
                # Check progress only every 256 cycles to keep the hot
                # loop cheap (the watchdog granularity does not
                # matter), plus after every skip, whose span is
                # progress-free by construction.
                if watchdog_cycles and (
                    skipped or (self.current_cycle & 0xFF) == 0
                ):
                    watchdog.observe(self)
        finally:
            if prof is not None:
                prof.end_run(self.current_cycle)
        if obs is not None:
            obs.on_run_end(self.current_cycle)
        return self.report()

    # -- reporting ------------------------------------------------------------------

    def report(self) -> SystemReport:
        core_stats = []
        for core in self.cores:
            req_path = self.request_paths[core.core_id]
            resp_path = self.response_paths[core.core_id]
            core_stats.append(
                CoreStats(
                    core_id=core.core_id,
                    trace_name=core.trace.name,
                    cycles=core.cycles,
                    retired_instructions=core.retired_instructions,
                    finish_cycle=core.finish_cycle,
                    demand_requests=core.demand_requests,
                    writeback_requests=core.writeback_requests,
                    fake_requests_sent=getattr(req_path, "fake_sent", 0),
                    fake_responses_sent=getattr(resp_path, "fake_sent", 0),
                    memory_stall_cycles=core.memory_stall_cycles,
                    llc_misses=core.hierarchy.l2.misses,
                    llc_accesses=core.hierarchy.llc_access_count,
                    request_intrinsic=req_path.intrinsic_histogram,
                    request_shaped=req_path.shaped_histogram,
                    response_intrinsic=resp_path.intrinsic_histogram,
                    response_shaped=resp_path.shaped_histogram,
                    memory_latencies=list(self._latencies[core.core_id]),
                    response_times=list(self._response_times[core.core_id]),
                )
            )
        return SystemReport(
            cycles_run=self.current_cycle,
            cores=core_stats,
            row_hits=self.controller.row_hits,
            row_misses=self.controller.row_misses,
            refreshes=self.controller.refreshes,
            request_link_grants=self.request_link.total_grants,
            response_link_grants=self.response_link.total_grants,
            scheduler_name=self.controller.scheduler.name,
        )
