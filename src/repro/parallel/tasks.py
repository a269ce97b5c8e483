"""Worker task functions for the parallel sweep executor.

Each task here is the unit one worker process executes: a module-level
function (so ``spawn`` can pickle a reference to it) of one plain-JSON
payload dict, returning a plain-JSON result dict.  Keeping both sides
JSON-typed gives three properties at once:

* the payload digests canonically for the result cache
  (:func:`repro.parallel.cache.config_digest`);
* the result round-trips through the cache without loss, so a cache
  hit is byte-equivalent to a fresh run;
* the sequential (``jobs=1``) and pooled paths run the *same code* on
  the *same values* — jobs-invariance holds by construction, and the
  differential tests only have to confirm it survives the process
  boundary.

Every simulation task also returns the full
:func:`~repro.sim.stats.report_digest` of its run, so sweep outputs
can be compared point-by-point across ``--jobs`` values from the CLI.

Heavy imports (the simulator stack) happen inside the functions: the
parent builds payloads without them, and each spawned worker pays the
import cost once for its lifetime, not once per task.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def _defaults_from(payload: Dict[str, Any]):
    from repro.analysis.experiments import ExperimentDefaults
    from repro.core.bins import BinSpec

    spec = BinSpec(
        edges=tuple(payload["spec_edges"]),
        replenish_period=int(payload["spec_period"]),
    )
    return ExperimentDefaults(
        accesses=int(payload["accesses"]),
        cycles=int(payload["cycles"]),
        seed=int(payload["seed"]),
        spec=spec,
    ), spec


#: Bucket edges (cycles) of the per-point run-length histogram in the
#: shard registry documents.
_POINT_CYCLE_EDGES = (
    1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
)


def _registry_doc(*reports) -> Dict[str, Any]:
    """The worker's serialized registry snapshot for one task.

    Every simulation task attaches this under ``"obs_registry"``; the
    executor strips it from the visible result and folds it into the
    cluster-level registry (``SweepExecutor.merged_registry``), so a
    ``repro sweep --serve`` scrape aggregates all shards as one
    system.  Only jobs-invariant, report-derived quantities appear —
    the merged exposition must be byte-identical across ``--jobs``.
    """
    from repro.obs.export import serialize_registry
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    points = registry.counter("sweep.points")
    cycles = registry.counter("sweep.cycles")
    retired = registry.counter("sweep.retired_instructions")
    demand = registry.counter("sweep.demand_requests")
    fake = registry.counter("sweep.fake_requests")
    row_hits = registry.counter("sweep.row_hits")
    row_misses = registry.counter("sweep.row_misses")
    point_cycles = registry.histogram(
        "sweep.point_cycles", _POINT_CYCLE_EDGES
    )
    for report in reports:
        points.inc()
        cycles.inc(report.cycles_run)
        row_hits.inc(report.row_hits)
        row_misses.inc(report.row_misses)
        point_cycles.record(report.cycles_run)
        for core in report.cores:
            retired.inc(core.retired_instructions)
            demand.inc(core.demand_requests)
            fake.inc(
                core.fake_requests_sent + core.fake_responses_sent
            )
    return serialize_registry(registry)


def make_run_payload(benchmark: str, defaults, spec=None) -> Dict[str, Any]:
    """The shared payload core: benchmark + run geometry + spec."""
    spec = spec if spec is not None else defaults.spec
    return {
        "benchmark": benchmark,
        "accesses": defaults.accesses,
        "cycles": defaults.cycles,
        "seed": defaults.seed,
        "spec_edges": list(spec.edges),
        "spec_period": spec.replenish_period,
    }


def make_mix_payload(names: Sequence[str], defaults,
                     alone_ipcs: Sequence[float], **fields) -> Dict[str, Any]:
    """A :func:`mix_slowdown_task` payload: the program mix, its
    slowdown denominators and any baseline/shaping ``fields``."""
    payload = make_run_payload(names[0], defaults)
    del payload["benchmark"]
    payload["names"] = list(names)
    payload["alone_ipcs"] = list(alone_ipcs)
    payload.update(fields)
    return payload


# ---------------------------------------------------------------------------
# alone runs (sweep stage 0: baselines and intrinsic profiles)
# ---------------------------------------------------------------------------


def alone_base_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one benchmark alone, unshaped; return its intrinsic profile.

    The result carries everything later stages derive from the base
    run — IPC, cycle count, and the intrinsic request gap sequence —
    so a cached base run reconstructs the sweep's anchors without
    re-simulating.  ``payload["core_slot"]`` places the program where
    it sits inside a mix (the Figure 13 alone-IPC denominators).
    """
    from repro.analysis.experiments import run_alone
    from repro.sim.stats import report_digest

    defaults, _spec = _defaults_from(payload)
    report = run_alone(
        payload["benchmark"], defaults,
        core_slot=int(payload.get("core_slot", 0)),
    )
    stats = report.core(0)
    return {
        "ipc": stats.ipc,
        "cycles_run": report.cycles_run,
        "gaps": list(stats.request_intrinsic.gaps),
        "digest": report_digest(report),
        "obs_registry": _registry_doc(report),
    }


# ---------------------------------------------------------------------------
# trade-off sweep points (Figure 2)
# ---------------------------------------------------------------------------


def tradeoff_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One shaped point of the Figure 2 trade-off sweep.

    Runs the benchmark alone under the payload's credit configuration
    and reports IPC plus the full detectability-lab score set — the
    windowed-rate MI between the intrinsic and shaped request streams
    and the zoo's AUC / XCorr / spectral probes against the
    configuration's own target distribution.  ``bias_correction`` is
    always on — every point of the sweep, anchors included, must use
    one estimator configuration or the curve is not mutually
    comparable (the ISSUE-5 anchor bug).
    """
    from repro.analysis.experiments import run_alone
    from repro.core.bins import BinConfiguration
    from repro.security.detect import detect_report
    from repro.security.mutual_information import event_times, windowed_rate_mi
    from repro.sim.stats import report_digest
    from repro.sim.system import RequestShapingPlan

    defaults, spec = _defaults_from(payload)
    config = BinConfiguration(tuple(payload["credits"]))
    report = run_alone(
        payload["benchmark"], defaults,
        request_plan=RequestShapingPlan(config=config, spec=spec),
    )
    stats = report.core(0)
    mi = windowed_rate_mi(
        event_times(stats.request_intrinsic.gaps),
        event_times(stats.request_shaped.gaps),
        int(payload["window_cycles"]),
        report.cycles_run,
        bias_correction=True,
    )
    zoo = detect_report(
        label=str(payload["label"]),
        intrinsic_gaps=stats.request_intrinsic.gaps,
        observed_gaps=stats.request_shaped.gaps,
        spec=spec,
        target_frequencies=config.normalized(),
        seed=int(payload.get("detect_seed", payload["seed"])),
        window_cycles=int(payload["window_cycles"]),
        mi_bits=mi,
    )
    return {
        "label": payload["label"],
        "ipc": stats.ipc,
        "mi": mi,
        "auc": zoo.auc,
        "auc_logistic": zoo.auc_logistic,
        "auc_stumps": zoo.auc_stumps,
        "xcorr": zoo.xcorr,
        "spectral": zoo.spectral,
        "digest": report_digest(report),
        "obs_registry": _registry_doc(report),
    }


def detect_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One configuration of the attacker-zoo detectability suite.

    With ``payload["credits"]`` the benchmark runs under that shaping
    configuration; without it the run is unshaped (the observed stream
    IS the intrinsic one — the covert-channel worst case).
    ``payload["target_credits"]`` is always present: the distribution
    the zoo's classifiers test the observed stream against.
    """
    from repro.analysis.experiments import run_alone
    from repro.core.bins import BinConfiguration
    from repro.security.detect import detect_report
    from repro.sim.stats import report_digest
    from repro.sim.system import RequestShapingPlan

    defaults, spec = _defaults_from(payload)
    plan = None
    if payload.get("credits") is not None:
        plan = RequestShapingPlan(
            config=BinConfiguration(tuple(payload["credits"])), spec=spec
        )
    report = run_alone(payload["benchmark"], defaults, request_plan=plan)
    stats = report.core(0)
    observed_gaps = (
        stats.request_shaped.gaps if plan is not None
        else stats.request_intrinsic.gaps
    )
    target = BinConfiguration(
        tuple(payload["target_credits"])
    ).normalized()
    zoo = detect_report(
        label=str(payload["label"]),
        intrinsic_gaps=stats.request_intrinsic.gaps,
        observed_gaps=observed_gaps,
        spec=spec,
        target_frequencies=target,
        seed=int(payload.get("detect_seed", payload["seed"])),
        window_cycles=int(payload["window_cycles"]),
    )
    return {
        "label": payload["label"],
        "ipc": stats.ipc,
        "mi": zoo.mi_bits,
        "auc": zoo.auc,
        "auc_logistic": zoo.auc_logistic,
        "auc_stumps": zoo.auc_stumps,
        "xcorr": zoo.xcorr,
        "spectral": zoo.spectral,
        "segments": zoo.segments,
        "report_digest": zoo.digest(),
        "digest": report_digest(report),
        "obs_registry": _registry_doc(report),
    }


# ---------------------------------------------------------------------------
# mix slowdown points (TP / FS sweeps, scalability)
# ---------------------------------------------------------------------------


def mix_slowdown_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one protected mix; report per-core IPCs and avg slowdown.

    ``payload["names"]`` is the program mix, ``scheduler`` /
    ``scheduler_kwargs`` / ``bank_partitioning`` pick the baseline,
    optional ``request_plans`` (core-id string -> credit list) installs
    per-core Camouflage shapers, and ``alone_ipcs`` provides the
    slowdown denominators.  ``slip_fraction`` is included when the
    scheduler exposes one (the FS leak proxy).  Optional
    ``payload["detect"]`` (``{"core": K, "seed": S}``) scores core K's
    request streams against the zoo; requires a ``request_plans``
    entry for that core (its credits are the target distribution).
    """
    from repro.analysis.experiments import (
        ExperimentDefaults,  # noqa: F401 — via _defaults_from
        _avg_slowdown,
        _build_mix,
    )
    from repro.core.bins import BinConfiguration
    from repro.sim.stats import report_digest
    from repro.sim.system import RequestShapingPlan

    defaults, spec = _defaults_from(payload)
    request_plans = None
    if payload.get("request_plans"):
        request_plans = {
            int(core): RequestShapingPlan(
                config=BinConfiguration(tuple(plan["credits"])),
                spec=spec,
                generate_fake=bool(plan.get("generate_fake", True)),
            )
            for core, plan in payload["request_plans"].items()
        }
    system = _build_mix(
        list(payload["names"]), defaults,
        request_plans=request_plans,
        scheduler=payload.get("scheduler", "frfcfs"),
        scheduler_kwargs=payload.get("scheduler_kwargs") or {},
        bank_partitioning=bool(payload.get("bank_partitioning", False)),
    )
    report = system.run(defaults.cycles, stop_when_done=False)
    ipcs = [core.ipc for core in report.cores]
    result: Dict[str, Any] = {
        "ipcs": ipcs,
        "slowdown": _avg_slowdown(ipcs, list(payload["alone_ipcs"])),
        "digest": report_digest(report),
        "obs_registry": _registry_doc(report),
    }
    slip = getattr(system.scheduler, "slip_fraction", None)
    if callable(slip):
        result["slip_fraction"] = slip()
    if payload.get("detect"):
        from repro.security.detect import detect_report

        detect_cfg = payload["detect"]
        core_id = int(detect_cfg["core"])
        stats = report.core(core_id)
        target = BinConfiguration(tuple(
            payload["request_plans"][str(core_id)]["credits"]
        )).normalized()
        zoo = detect_report(
            label=f"core{core_id}",
            intrinsic_gaps=stats.request_intrinsic.gaps,
            observed_gaps=stats.request_shaped.gaps,
            spec=spec,
            target_frequencies=target,
            seed=int(detect_cfg.get("seed", payload["seed"])),
            window_cycles=detect_cfg.get("window_cycles"),
        )
        result["mi"] = zoo.mi_bits
        result["auc"] = zoo.auc
        result["xcorr"] = zoo.xcorr
        result["spectral"] = zoo.spectral
    return result


def noc_latency_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Single-core mean memory latency at one NoC hop latency."""
    from repro.sim.stats import report_digest
    from repro.sim.system import SystemBuilder
    from repro.workloads.spec import make_trace

    defaults, _spec = _defaults_from(payload)
    builder = SystemBuilder(seed=defaults.seed)
    builder.with_noc(latency=int(payload["noc_latency"]))
    builder.add_core(
        make_trace(payload["benchmark"], defaults.accesses,
                   seed=defaults.seed)
    )
    report = builder.build().run(defaults.cycles, stop_when_done=False)
    return {
        "mean_latency": report.core(0).mean_memory_latency(),
        "digest": report_digest(report),
        "obs_registry": _registry_doc(report),
    }


# ---------------------------------------------------------------------------
# mesh-position leakage points
# ---------------------------------------------------------------------------


def mesh_position_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Two-world distinguishability at one mesh position.

    Runs the adversary next to each candidate victim at
    ``payload["position"]`` and returns the distinguishability of its
    latency samples between the worlds (one point of
    :func:`repro.analysis.sweeps.mesh_position_leakage`).
    """
    from repro.analysis.experiments import staircase_config
    from repro.core.bins import BinSpec
    from repro.security.attacks import corunner_distinguishability
    from repro.sim.stats import report_digest
    from repro.sim.system import RequestShapingPlan, SystemBuilder
    from repro.workloads.spec import make_trace

    defaults, _spec = _defaults_from(payload)
    spec = BinSpec(replenish_period=512)
    position = int(payload["position"])
    num_cores = int(payload["num_cores"])
    shaped = bool(payload["shaped"])

    def run_world(victim_name: str):
        builder = SystemBuilder(seed=defaults.seed).with_noc(topology="mesh")
        for core in range(num_cores):
            if core == 0:
                builder.add_core(
                    make_trace("gcc", defaults.accesses, seed=1)
                )
            elif core == position:
                plan = None
                if shaped:
                    plan = RequestShapingPlan(
                        config=staircase_config(spec, 1 / 16), spec=spec
                    )
                builder.add_core(
                    make_trace(victim_name, defaults.accesses,
                               seed=2 + core, base_address=core << 33),
                    request_shaping=plan,
                )
            else:
                builder.add_core(
                    make_trace("sjeng", defaults.accesses // 4,
                               seed=50 + core, base_address=core << 33)
                )
        report = builder.build().run(defaults.cycles, stop_when_done=False)
        return report

    world_a = run_world(payload["victims"][0])
    world_b = run_world(payload["victims"][1])
    return {
        "position": position,
        "distinguishability": corunner_distinguishability(
            world_a.core(0).memory_latencies,
            world_b.core(0).memory_latencies,
        ),
        "digest_a": report_digest(world_a),
        "digest_b": report_digest(world_b),
        "obs_registry": _registry_doc(world_a, world_b),
    }


# ---------------------------------------------------------------------------
# GA population fitness
# ---------------------------------------------------------------------------


def ga_fitness_task(
    payload: Dict[str, Any], task_seed: Optional[int] = None
) -> Dict[str, Any]:
    """Offline fitness of one genome: slowdown plus a leakage penalty.

    The genome (a credit vector) shapes the benchmark's requests; the
    cost is ``slowdown + zoo_score(mi, auc, xcorr)`` — the Figure 2
    trade-off collapsed to a scalar, which is what the offline GA
    minimises when searching shaping configurations without a live
    system.  With the default weights (``mi_weight=1``, ``auc_weight``
    and ``xcorr_weight`` 0) this is exactly the historical
    ``slowdown + mi_weight * windowed_mi``; non-zero zoo weights turn
    the fitness multi-objective, scoring each genome against the
    trained-classifier and cross-correlation attackers with the
    genome's own normalized credits as the target distribution.
    ``task_seed`` (the executor's per-genome substream seed) seeds the
    evaluation run when the payload does not pin one, so every genome
    is scored on a decorrelated, reproducible stream.
    """
    from repro.analysis.experiments import run_alone
    from repro.core.bins import BinConfiguration
    from repro.security.detect import detect_report, zoo_score
    from repro.security.mutual_information import event_times, windowed_rate_mi
    from repro.sim.stats import report_digest
    from repro.sim.system import RequestShapingPlan

    seed = payload.get("seed")
    if seed is None:
        seed = 0 if task_seed is None else task_seed % (1 << 31)
    defaults, spec = _defaults_from(dict(payload, seed=seed))
    config = BinConfiguration(tuple(payload["genome"]))
    report = run_alone(
        payload["benchmark"], defaults,
        request_plan=RequestShapingPlan(config=config, spec=spec),
    )
    stats = report.core(0)
    base_ipc = float(payload["base_ipc"])
    slowdown = base_ipc / stats.ipc if stats.ipc > 0 else 1e6
    mi = windowed_rate_mi(
        event_times(stats.request_intrinsic.gaps),
        event_times(stats.request_shaped.gaps),
        int(payload["window_cycles"]),
        report.cycles_run,
        bias_correction=True,
    )
    auc_weight = float(payload.get("auc_weight", 0.0))
    xcorr_weight = float(payload.get("xcorr_weight", 0.0))
    result: Dict[str, Any] = {
        "slowdown": slowdown,
        "mi": mi,
        "digest": report_digest(report),
        "obs_registry": _registry_doc(report),
    }
    auc = xcorr = 0.0
    if auc_weight > 0.0 or xcorr_weight > 0.0:
        zoo = detect_report(
            label="genome",
            intrinsic_gaps=stats.request_intrinsic.gaps,
            observed_gaps=stats.request_shaped.gaps,
            spec=spec,
            target_frequencies=config.normalized(),
            seed=int(payload.get("detect_seed", seed)),
            window_cycles=int(payload["window_cycles"]),
            mi_bits=mi,
        )
        auc, xcorr = zoo.auc, zoo.xcorr
        result["auc"] = auc
        result["xcorr"] = xcorr
    result["fitness"] = slowdown + zoo_score(
        mi, auc, xcorr,
        mi_weight=float(payload.get("mi_weight", 1.0)),
        auc_weight=auc_weight,
        xcorr_weight=xcorr_weight,
    )
    return result


def ga_population_evaluator(executor, payload_base: Dict[str, Any]):
    """A ``map_evaluate`` for :meth:`GeneticAlgorithm.step`.

    Wraps ``executor`` (a :class:`~repro.parallel.SweepExecutor`) so
    one generation's fitness runs fan out as :func:`ga_fitness_task`
    shards — each genome under ``payload_base`` plus its own
    deterministic ``task_seed`` (the executor's lifetime counter keeps
    seeds stable across generations and cache states).  Returns
    fitnesses in population order, which is all the GA's breeding
    loop needs for bit-identical evolution at any ``jobs`` value.
    """

    def map_evaluate(genomes) -> List[float]:
        payloads = []
        for genome in genomes:
            payload = dict(payload_base)
            payload["genome"] = [int(g) for g in genome]
            payloads.append(payload)
        rows = executor.map(
            ga_fitness_task, payloads, kind="ga-fitness",
            labels=[f"genome{i}" for i in range(len(payloads))],
        )
        return [row["fitness"] for row in rows]

    return map_evaluate
