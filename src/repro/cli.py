"""Command-line interface: run paper experiments without writing code.

Usage::

    python -m repro.cli list
    python -m repro.cli fig11 [--scale 0.5]
    python -m repro.cli fig12 --benchmark mcf
    python -m repro.cli covert --key 0x2AAAAAAA --bits 32 [--no-shaping]
    python -m repro.cli mi
    python -m repro.cli tradeoff --benchmark apache --jobs 4
    python -m repro.cli fig13 --adversary gcc --victim mcf
    python -m repro.cli sweep tradeoff --jobs 4 --cache-dir .repro-cache
    python -m repro.cli cache ls --cache-dir .repro-cache
    python -m repro.cli lint [paths...] [--format json]

Each subcommand runs the corresponding experiment driver from
:mod:`repro.analysis.experiments` and prints the same rows/series the
paper's figure reports.  ``--scale`` shrinks the default run length
for quick looks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    ExperimentDefaults,
    bdc_comparison,
    covert_channel_experiment,
    measure_mi_suite,
    reqc_speedup_experiment,
    run_mix,
    tradeoff_sweep,
)
from repro.analysis.format import ascii_series, format_distribution, format_table
from repro.core.bins import BinConfiguration
from repro.obs import ALL_CATEGORIES, ObservabilityConfig
from repro.sim.system import RequestShapingPlan, ResponseShapingPlan, SystemBuilder
from repro.workloads.spec import BENCHMARK_NAMES

_EXPERIMENTS = {
    "fig11": "shape a benchmark's requests onto the DESIRED staircase",
    "fig12": "ReqC speedup over a constant-rate shaper",
    "fig13": "BDC vs TP vs FS program average slowdown",
    "covert": "Algorithm-1 covert channel attack (Figs 14/15)",
    "mi": "mutual-information table (section IV-B2)",
    "tradeoff": "security/performance sweep (Figure 2)",
    "detect": "attacker-zoo detectability lab (MI / AUC / XCorr / spectral)",
    "calibrate": "measured workload characteristics (trace substitution)",
    "trace": "run a BDC-shaped mix with event tracing; export Chrome JSON",
    "stats": "run with metrics sampling and the live shaping monitor",
    "run": "run a BDC-shaped mix with checkpoints and a stall watchdog",
    "resume": "restore a checkpoint and continue the run bit-identically",
    "faults": "run a fault-injection scenario (repro.resilience harness)",
    "sweep": "run a parameter sweep across worker processes (--jobs)",
    "dispatch": "run a sweep worker host / inspect a dispatch ledger",
    "cache": "inspect/prune/clear the sweep result cache",
    "serve": "serve live /metrics, /healthz and /monitor during a run",
    "profile": "engine self-profile: per-station work and skip-span rollup",
}

#: Sweeps runnable via ``repro sweep <name>``; each maps to a driver
#: accepting (defaults, executor) — results print as canonical JSON so
#: ``--jobs 1`` and ``--jobs N`` outputs can be byte-compared.
_SWEEP_NAMES = (
    "tradeoff",
    "detect",
    "scalability",
    "tp-turn",
    "fs-interval",
    "noc-latency",
    "mesh-position",
)


def _defaults(args) -> ExperimentDefaults:
    return ExperimentDefaults().scaled(args.scale)


def _cmd_list(_args) -> int:
    print(format_table(
        ["experiment", "description"],
        [[name, desc] for name, desc in _EXPERIMENTS.items()],
    ))
    return 0


def _cmd_fig11(args) -> int:
    desired = BinConfiguration((10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
    defaults = _defaults(args)
    report = run_mix(
        [args.benchmark], defaults,
        request_plans={
            0: RequestShapingPlan(
                config=desired, spec=defaults.spec, strict_binning=True
            )
        },
    )
    stats = report.core(0)
    print(f"benchmark: {args.benchmark}")
    print("intrinsic:",
          format_distribution(stats.request_intrinsic.counts))
    print("shaped:   ",
          format_distribution(stats.request_shaped.counts))
    print("DESIRED:  ", format_distribution(desired.credits))
    tv = 0.5 * sum(
        abs(a - b)
        for a, b in zip(stats.request_shaped.frequencies(),
                        desired.normalized())
    )
    print(f"TV distance to DESIRED: {tv:.4f}")
    return 0


def _cmd_fig12(args) -> int:
    benchmarks = [args.benchmark] if args.benchmark else list(BENCHMARK_NAMES)
    rows = []
    for bench in benchmarks:
        result = reqc_speedup_experiment(bench, _defaults(args))
        rows.append([bench, result["cs_ipc"], result["camouflage_ipc"],
                     result["speedup"]])
    print(format_table(
        ["benchmark", "cs_ipc", "camouflage_ipc", "speedup"], rows
    ))
    return 0


def _cmd_fig13(args) -> int:
    result = bdc_comparison(args.adversary, args.victim, _defaults(args),
                            tune=args.tune)
    print(format_table(
        ["technique", "avg slowdown"],
        [
            ["temporal partitioning", result["tp_slowdown"]],
            ["fixed service + banks", result["fs_slowdown"]],
            ["camouflage (BDC)", result["camouflage_slowdown"]],
        ],
    ))
    return 0


def _cmd_covert(args) -> int:
    key = int(args.key, 0)
    result = covert_channel_experiment(
        key, bits=args.bits, shaped=not args.no_shaping,
        pulse_cycles=args.pulse, defaults=_defaults(args),
    )
    counts = [float(c) for c in result["window_counts"]]
    print(f"key: {key:#x} ({args.bits} bits), "
          f"shaping: {'off' if args.no_shaping else 'on'}")
    print("traffic/pulse:", ascii_series(counts, width=args.bits))
    print("key bits:     ", "".join(map(str, result["key_bits"])))
    print("decoded bits: ", "".join(map(str, result["decoded_bits"])))
    print(f"bit error rate: {result['bit_error_rate']:.3f} "
          "(0 = fully leaked, 0.5 = chance)")
    return 0


def _cmd_mi(args) -> int:
    results = measure_mi_suite(defaults=_defaults(args))
    rows = [
        [name, values["paired"], values["windowed"]]
        for name, values in results.items()
    ]
    print(format_table(
        ["scheme", "paired_mi_bits", "windowed_mi_bits"], rows, precision=4
    ))
    return 0


def _cmd_calibrate(args) -> int:
    from repro.analysis.calibration import (
        calibrate_suite,
        check_substitution_claims,
    )

    benchmarks = [args.benchmark] if args.benchmark else None
    calibrations = calibrate_suite(_defaults(args), benchmarks)
    rows = [
        [c.name, c.ipc, c.llc_mpki, c.requests_per_kilocycle,
         c.row_hit_rate, c.burstiness]
        for c in sorted(calibrations.values(),
                        key=lambda c: -c.requests_per_kilocycle)
    ]
    print(format_table(
        ["benchmark", "ipc", "llc_mpki", "req/kcycle", "row_hit_rate",
         "burstiness"],
        rows,
    ))
    if benchmarks is None:
        print()
        claims = check_substitution_claims(calibrations)
        print(format_table(
            ["substitution claim", "held"],
            [[claim, held] for claim, held in claims.items()],
        ))
    return 0


def _cmd_tradeoff(args) -> int:
    points = tradeoff_sweep(
        args.benchmark, _defaults(args),
        jobs=args.jobs, cache_dir=args.cache_dir,
    )
    print(format_table(
        ["config", "ipc", "mi_bits", "auc", "xcorr", "spectral", "digest"],
        [
            [p["label"], p["ipc"], p["mi"], p["auc"], p["xcorr"],
             p["spectral"], p["digest"]]
            for p in points
        ],
    ))
    return 0


def _cmd_detect(args) -> int:
    import json as json_module

    from repro.analysis.experiments import detect_suite
    from repro.common.util import canonical_doc

    doc = detect_suite(
        args.benchmark, _defaults(args),
        jobs=args.jobs, cache_dir=args.cache_dir,
    )
    # Canonical JSON on stdout: repeated runs and different --jobs
    # values must byte-compare (the CI detect-smoke check); chatter
    # stays on stderr.
    text = json_module.dumps(canonical_doc(doc), sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"detect report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    import json as json_module

    from repro.analysis.experiments import detect_suite, scalability_experiment
    from repro.analysis.sweeps import (
        fs_interval_sweep,
        mesh_position_leakage,
        noc_latency_sweep,
        tp_turn_length_sweep,
    )
    from repro.common.util import canonical_doc
    from repro.parallel import SweepExecutor
    from repro.resilience.retry import DEFAULT_RETRY_POLICY

    defaults = _defaults(args)
    dispatch = None
    retry = DEFAULT_RETRY_POLICY
    if args.hosts:
        from repro.parallel.dispatch import (
            DEFAULT_DISPATCH_RETRY_POLICY,
            DispatchCoordinator,
        )

        dispatch = DispatchCoordinator(
            args.hosts, lease_seconds=args.lease_seconds
        )
        retry = DEFAULT_DISPATCH_RETRY_POLICY
    executor = SweepExecutor(
        jobs=args.jobs, seed=defaults.seed, cache=args.cache_dir,
        retry=retry, dispatch=dispatch, ledger=args.ledger,
    )
    server = None
    if args.serve:
        from repro.obs.server import MetricsServer

        # Server chatter goes to stderr: sweep stdout stays canonical
        # JSON so `--jobs 1` / `--jobs N` outputs byte-compare.
        server = MetricsServer(
            host=args.serve_host, port=args.serve_port
        ).start()
        print(f"serving merged sweep metrics at {server.url}",
              file=sys.stderr)
    drivers = {
        "tradeoff": lambda: tradeoff_sweep(
            args.benchmark or "apache", defaults, executor=executor
        ),
        "detect": lambda: detect_suite(
            args.benchmark or "apache", defaults, executor=executor
        ),
        "scalability": lambda: scalability_experiment(
            args.benchmark or "gcc", defaults, executor=executor
        ),
        "tp-turn": lambda: tp_turn_length_sweep(
            defaults=defaults, executor=executor
        ),
        "fs-interval": lambda: fs_interval_sweep(
            defaults=defaults, executor=executor
        ),
        "noc-latency": lambda: noc_latency_sweep(
            args.benchmark or "mcf", defaults, executor=executor
        ),
        "mesh-position": lambda: mesh_position_leakage(
            defaults=defaults, executor=executor
        ),
    }
    result = drivers[args.name]()
    # Canonical JSON on stdout: `repro sweep X --jobs 1` and `--jobs 4`
    # outputs must be byte-identical (the CI parallel-smoke check).
    print(json_module.dumps(
        canonical_doc(result), sort_keys=True, indent=2
    ))
    print(
        f"tasks: run={executor.tasks_run} cached={executor.tasks_cached} "
        f"retries={executor.retries}",
        file=sys.stderr,
    )
    if dispatch is not None:
        counters = dispatch.registry.as_dict()
        print(
            "dispatch: "
            f"hosts={int(counters['dispatch.hosts_configured'])} "
            f"completed={int(counters['dispatch.shards_completed'])} "
            f"cached={int(counters['dispatch.cached_shards'])} "
            f"redispatched={int(counters['dispatch.redispatches'])} "
            f"degraded={str(dispatch.degraded).lower()}",
            file=sys.stderr,
        )
        dispatch.close()
    if args.metrics_out:
        from repro.obs.export import render_openmetrics

        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(render_openmetrics(executor.merged_registry()))
        print(f"merged exposition written to {args.metrics_out}",
              file=sys.stderr)
    if args.dispatch_log:
        from repro.obs import diag
        from repro.obs.events import CATEGORY_DISPATCH

        with open(args.dispatch_log, "w", encoding="utf-8") as fh:
            for event in diag.recent(category=CATEGORY_DISPATCH):
                fh.write(json_module.dumps(
                    event.as_jsonl_obj(), sort_keys=True
                ) + "\n")
        print(f"dispatch event log written to {args.dispatch_log}",
              file=sys.stderr)
    if server is not None:
        from repro.obs.export import render_openmetrics

        server.publish(render_openmetrics(executor.merged_registry()))
        if args.serve_linger > 0:
            _serve_linger(args.serve_linger, {"signal": None})
        server.close()
    return 0


def _cmd_cache(args) -> int:
    from repro.parallel import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.verb == "ls":
        entries = cache.entries()
        print(format_table(
            ["digest", "kind", "bytes"],
            [[e.digest, e.kind, e.size_bytes] for e in entries],
        ))
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {args.cache_dir}")
        return 0
    if args.verb == "prune":
        removed = cache.prune(
            keep=args.keep, older_than_days=args.older_than_days
        )
    else:  # clear
        removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {args.cache_dir}")
    return 0


def _cmd_dispatch(args) -> int:
    if args.verb == "worker":
        import signal

        from repro.parallel.worker import WorkerHost

        worker = WorkerHost(
            host=args.host,
            port=args.port,
            task_modules=tuple(
                m.strip() for m in args.task_modules.split(",") if m.strip()
            ),
            heartbeat_seconds=args.heartbeat,
            inline=args.inline,
        )
        bound_host, bound_port = worker.bind()
        # The parseable line the coordinator-launching side waits for.
        print(f"dispatch worker listening on {bound_host}:{bound_port}",
              flush=True)

        def _drain(signum, _frame):
            print(f"dispatch worker draining on signal {signum}",
                  flush=True)
            worker.close()

        signal.signal(signal.SIGTERM, _drain)
        try:
            worker.serve_forever()
        except KeyboardInterrupt:
            worker.close()
        print(
            f"dispatch worker stopped "
            f"(served={worker.shards_served} failed={worker.shards_failed})"
        )
        return 0

    # status: render a persisted ledger.
    from repro.parallel.ledger import DispatchLedger

    ledger = DispatchLedger.load(args.ledger)
    doc = ledger.doc
    counts = ledger.counts()
    total = doc.get("shard_count", sum(counts.values()))
    print(f"sweep:    {doc.get('kind', '') or '(unknown)'}")
    print(f"hosts:    {', '.join(doc.get('hosts', [])) or '(none)'}")
    print(f"shards:   {total}")
    print(f"degraded: {str(bool(doc.get('degraded'))).lower()}")
    print(format_table(
        ["state", "shards"],
        [[state, counts[state]] for state in sorted(counts)
         if counts[state] or state in ("completed", "queued")],
    ))
    rows = [
        [index, entry.get("state", ""), entry.get("label", ""),
         entry.get("host", ""), entry.get("attempts", "")]
        for index, entry in sorted(
            doc.get("shards", {}).items(), key=lambda kv: int(kv[0])
        )
    ]
    if rows:
        print(format_table(
            ["shard", "state", "label", "host", "attempts"], rows
        ))
    unfinished = sum(
        counts[state] for state in ("queued", "leased", "requeued", "failed")
    )
    return 1 if unfinished else 0


def _observed_system(args, obs_config: ObservabilityConfig):
    """A two-core mix with BDC on core 0 and the obs stack attached.

    The observed workload is the fig11 DESIRED staircase shaping the
    chosen benchmark against an unshaped co-runner — the canonical
    setup every observability demo and doc example uses.
    """
    from repro.workloads import make_trace

    defaults = _defaults(args)
    desired = BinConfiguration((10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
    builder = SystemBuilder(seed=defaults.seed)
    builder.with_observability(obs_config)
    builder.add_core(
        make_trace(args.benchmark, num_accesses=defaults.accesses,
                   seed=defaults.seed),
        request_shaping=RequestShapingPlan(config=desired,
                                           spec=defaults.spec),
        response_shaping=ResponseShapingPlan(config=desired,
                                             spec=defaults.spec),
    )
    builder.add_core(
        make_trace(args.corunner, num_accesses=defaults.accesses,
                   seed=defaults.seed + 1, base_address=1 << 26),
    )
    return builder.build(), defaults


def _cmd_trace(args) -> int:
    categories = (
        tuple(args.categories.split(",")) if args.categories else None
    )
    system, defaults = _observed_system(args, ObservabilityConfig(
        trace=True,
        trace_limit=args.limit,
        trace_categories=categories,
    ))
    system.run(defaults.cycles, stop_when_done=False, engine=args.engine)
    tracer = system.observability.tracer
    tracer.write_chrome(args.out)
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
    print(format_table(
        ["category", "events"],
        sorted(tracer.counts.items()),
    ))
    print(f"{len(tracer.events)} events retained "
          f"({tracer.dropped} dropped by the {args.limit}-event ring)")
    print(f"Chrome trace written to {args.out}"
          + (f"; JSONL to {args.jsonl}" if args.jsonl else ""))
    return 0


def _cmd_stats(args) -> int:
    system, defaults = _observed_system(args, ObservabilityConfig(
        sample_interval=args.interval,
        monitor=True,
        monitor_interval=max(args.interval, 1024),
    ))
    report = system.run(defaults.cycles, stop_when_done=False,
                        engine=args.engine)
    obs = system.observability

    print(format_table(
        ["core", "trace", "retired", "mean_lat", "p95_lat", "fake_req"],
        [
            [s.core_id, s.trace_name, s.retired_instructions,
             round(s.mean_memory_latency(), 1),
             round(s.latency_percentile(95.0), 1),
             s.fake_requests_sent]
            for s in report.cores
        ],
    ))
    print(f"row hit rate: {report.row_hit_rate():.3f}  "
          f"(hits={report.row_hits}, misses={report.row_misses})")

    sampler = obs.sampler
    depth = [float(v) for _, v in sampler.series("memctrl.queue_depth")]
    if depth:
        print("\nmemctrl queue depth over time "
              f"(1 sample / {sampler.interval} cycles):")
        print(ascii_series(depth, width=min(72, len(depth))))
    tail = sampler.rows()[-args.rows:]
    if tail:
        print(format_table(
            ["cycle", *sampler.probe_names], tail, precision=3
        ))

    monitor = obs.monitor
    rows = monitor.summary_rows()
    if rows:
        headers = ["core", "direction", "events", "tvd_target",
                   "tvd_intrinsic", "mi_bits"]
        if monitor.detect:
            headers += ["auc", "xcorr"]
        print("\nshaping monitor (latest checkpoint per stream):")
        print(format_table(headers, rows))
    all_violations = monitor.violations + monitor.final_violations
    if all_violations:
        worst = max(all_violations, key=lambda v: v.tvd_target)
        print(f"{len(all_violations)} guarantee violation(s); worst: "
              f"core {worst.core_id} {worst.direction} "
              f"TVD={worst.tvd_target:.4f} > {worst.threshold} "
              f"at cycle {worst.cycle}")
    else:
        print("no shaping-guarantee violations")
    detect_total = monitor.detect_violation_count
    if detect_total:
        print(f"{detect_total} detectability violation(s) "
              "(zoo attacker beat its threshold)")
    return 0


def _cmd_run(args) -> int:
    from repro.resilience.snapshot import snapshot_system
    from repro.sim.stats import report_digest

    system, defaults = _observed_resilient_system(args, profile=args.serve)
    server = publisher = None
    if args.serve:
        from repro.obs.server import MetricsServer, ServePublisher

        obs = system.observability
        server = MetricsServer(
            host=args.serve_host, port=args.serve_port
        ).start()
        publisher = ServePublisher(obs, server,
                                   interval=args.publish_interval)
        obs.attach_publisher(publisher)
        publisher.publish(system.current_cycle)
        print(f"serving metrics at {server.url} "
              "(/metrics /healthz /monitor)")
    cycles = args.cycles or defaults.cycles
    try:
        report = system.run(cycles, stop_when_done=False, engine=args.engine)
    except Exception as error:
        if server is not None:
            server.close()
        print(f"run aborted: {type(error).__name__}: {error}")
        dump_path = getattr(error, "dump_path", "")
        if dump_path:
            print(f"diagnostic dump written to {dump_path}")
        return 1
    if publisher is not None:
        publisher.publish(system.current_cycle)
        if args.serve_linger > 0:
            _serve_linger(args.serve_linger, {"signal": None})
        server.close()
    res = system.resilience
    if res is not None and res.checkpoints_taken:
        print(f"checkpoints: {res.checkpoints_taken} taken, "
              f"latest {res.last_checkpoint_path}")
    if args.snapshot_out:
        snapshot_system(system, args.snapshot_out)
        print(f"final snapshot written to {args.snapshot_out}")
    print(f"stopped at cycle {system.current_cycle}")
    print(f"report digest: {report_digest(report)}")
    return 0


def _observed_resilient_system(args, profile: bool = False):
    """The ``_observed_system`` mix plus the resilience layer.

    ``profile=True`` (the serving paths) also turns on the engine
    self-profiler and the interval sampler so the `/metrics` endpoint
    exposes profiler and probe-derived gauge families.
    """
    from repro.resilience import ResilienceConfig
    from repro.workloads import make_trace

    defaults = _defaults(args)
    desired = BinConfiguration((10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
    builder = SystemBuilder(seed=defaults.seed)
    builder.with_observability(ObservabilityConfig(
        trace=True, trace_limit=args.limit, monitor=True,
        profile=profile,
        sample_interval=1024 if profile else None,
    ))
    builder.with_resilience(ResilienceConfig(
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep=args.checkpoint_keep,
        watchdog_cycles=args.watchdog,
        watchdog_dump_path=args.watchdog_dump or "",
    ))
    builder.add_core(
        make_trace(args.benchmark, num_accesses=defaults.accesses,
                   seed=defaults.seed),
        request_shaping=RequestShapingPlan(config=desired,
                                           spec=defaults.spec),
        response_shaping=ResponseShapingPlan(config=desired,
                                             spec=defaults.spec),
    )
    builder.add_core(
        make_trace(args.corunner, num_accesses=defaults.accesses,
                   seed=defaults.seed + 1, base_address=1 << 26),
    )
    return builder.build(), defaults


def _cmd_resume(args) -> int:
    from repro.resilience.snapshot import read_snapshot_info, restore_system
    from repro.sim.stats import report_digest

    info = read_snapshot_info(args.snapshot)
    print(f"snapshot: kind={info.get('kind')} cycle={info.get('cycle')} "
          f"cores={info.get('num_cores')}")
    if (args.cycles > 0) == (args.until > 0):
        print("pass exactly one of --cycles (additional) or --until "
              "(absolute target cycle)")
        return 2
    system = restore_system(args.snapshot)
    remaining = args.cycles if args.cycles > 0 else args.until - system.current_cycle
    if remaining <= 0:
        print(f"nothing to do: snapshot already at cycle "
              f"{system.current_cycle} >= --until {args.until}")
        return 2
    try:
        report = system.run(remaining, stop_when_done=False,
                            engine=args.engine)
    except Exception as error:
        print(f"resumed run aborted: {type(error).__name__}: {error}")
        return 1
    print(f"stopped at cycle {system.current_cycle}")
    print(f"report digest: {report_digest(report)}")
    return 0


def _cmd_faults(args) -> int:
    import json as json_module

    from repro.resilience import run_scenario, scenario_names

    result = run_scenario(
        args.scenario, cycles=args.cycles, dump_path=args.dump or "",
        engine=args.engine,
    )
    print(json_module.dumps(result, indent=2, sort_keys=True, default=str))
    # The resilience contract: a fault run must end in a typed error,
    # a flagged degraded mode, or clean completion with bounds intact.
    if result.get("outcome") == "silent_failure":
        return 1
    if result.get("bound_held") is False:
        return 1
    return 0


def _serve_linger(seconds: float, stop) -> None:
    """Hold the metrics endpoint open for late scrapes.

    Wakes promptly when a drain signal flips ``stop["signal"]``.  The
    pause is purely operational (a scrape window) and never observable
    in any deterministic output, so the wall-clock use is quarantined
    here.
    """
    import time as time_module

    remaining = float(seconds)
    while remaining > 0 and stop["signal"] is None:
        # repro-lint: disable-next-line=RL001
        time_module.sleep(min(0.2, remaining))
        remaining -= 0.2


def _cmd_serve(args) -> int:
    import json as json_module
    import signal

    from repro.obs.server import MetricsServer, ServePublisher
    from repro.sim.stats import report_digest

    system, defaults = _observed_resilient_system(args, profile=True)
    obs = system.observability
    server = MetricsServer(host=args.host, port=args.port).start()
    publisher = ServePublisher(obs, server, interval=args.publish_interval)
    obs.attach_publisher(publisher)
    publisher.publish(system.current_cycle)

    stop = {"signal": None}

    def _on_signal(signum, _frame):
        stop["signal"] = signum

    # Signal handlers can only be installed from the main thread; when
    # embedded (tests drive main() from a worker thread) serve still
    # works, it just cannot drain on SIGTERM.
    import threading

    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {
            signum: signal.signal(signum, _on_signal)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
    print(f"serving metrics at {server.url} "
          "(/metrics /healthz /monitor); SIGTERM drains")
    try:
        cycles = args.cycles or defaults.cycles
        target = system.current_cycle + cycles
        # Run in publish-interval chunks so a drain signal is honoured
        # at the next chunk boundary, not only at the end of the run.
        while system.current_cycle < target and stop["signal"] is None:
            step = min(args.publish_interval, target - system.current_cycle)
            system.run(step, stop_when_done=False, engine=args.engine)
        publisher.publish(system.current_cycle)
        report = system.report()
        print(f"stopped at cycle {system.current_cycle}")
        print(f"report digest: {report_digest(report)}")
        if args.profile_out:
            rollup = obs.profiler.rollup(include_wall=True,
                                         monitor=obs.monitor)
            with open(args.profile_out, "w", encoding="utf-8") as fh:
                json_module.dump(rollup, fh, indent=2, sort_keys=True)
            print(f"profiler rollup written to {args.profile_out}")
        if stop["signal"] is None and args.linger > 0:
            _serve_linger(args.linger, stop)
        if stop["signal"] is not None:
            server.mark_draining()
            res = system.resilience
            if res is not None:
                path = res.take_checkpoint(system)
                print(f"drain checkpoint written to {path}")
            publisher.publish(system.current_cycle, status="draining")
            print(f"drained on signal {stop['signal']} at cycle "
                  f"{system.current_cycle}")
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.close()
    return 0


def _cmd_profile(args) -> int:
    import json as json_module

    from repro.sim.stats import report_digest

    system, defaults = _observed_system(args, ObservabilityConfig(
        monitor=True,
        sample_interval=1024,
        profile=True,
    ))
    cycles = args.cycles or defaults.cycles
    report = system.run(cycles, stop_when_done=False, engine=args.engine)
    obs = system.observability
    rollup = obs.profiler.rollup(include_wall=True, monitor=obs.monitor)
    counts = rollup["cycles"]
    stepped_pct = (
        100.0 * counts["stepped"] / counts["simulated"]
        if counts["simulated"] else 0.0
    )
    print(f"engine: {args.engine}")
    print(f"cycles: simulated={counts['simulated']} "
          f"stepped={counts['stepped']} ({stepped_pct:.1f}%) "
          f"skipped={counts['skipped']} "
          f"in {rollup['skip_spans']['total']} idle spans")
    if rollup["stations"]:
        print("\nper-station work:")
        print(format_table(
            ["station", "ticks", "skips", "share"],
            [[row["station"], row["ticks"], row["skips"],
              f"{100.0 * row['share']:.1f}%"]
             for row in rollup["stations"]],
        ))
        col = rollup["columnar"]
        print(f"horizon refreshes: {col['horizon_refreshes']}  "
              f"dirty re-polls: {col['dirty_repolls']}  "
              f"full-tick fallbacks: {col['full_tick_fallbacks']}")
    shaping = rollup.get("shaping")
    if shaping is not None:
        print(f"shaping: checkpoints={shaping['checkpoints']} "
              f"violations={shaping['violations']} "
              f"degradations={shaping['degradations']}")
    print(f"wall: {rollup['wall']['ms']} ms (observability-only; never "
          "enters the registry, reports or digests)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json_module.dump(rollup, fh, indent=2, sort_keys=True)
        print(f"profiler rollup written to {args.out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.render_exposition(at_cycle=system.current_cycle))
        print(f"OpenMetrics exposition written to {args.metrics_out}")
    print(f"report digest: {report_digest(report)}")
    return 0


def _add_engine_arg(p) -> None:
    """`--engine` flag shared by every verb that runs one system."""
    p.add_argument("--engine", default="columnar",
                   choices=("columnar", "cycle"),
                   help="stepping engine; 'cycle' is the per-cycle "
                        "reference (reports are identical)")


def _add_serve_args(p) -> None:
    """`--serve` companion flags shared by `repro run` and `repro sweep`."""
    p.add_argument("--serve", action="store_true",
                   help="expose /metrics, /healthz and /monitor while "
                        "the command runs")
    p.add_argument("--serve-host", default="127.0.0.1",
                   help="bind address for --serve")
    p.add_argument("--serve-port", type=int, default=0,
                   help="bind port for --serve (0 = ephemeral)")
    p.add_argument("--publish-interval", type=int, default=4096,
                   metavar="CYCLES",
                   help="simulated cycles between registry snapshots")
    p.add_argument("--serve-linger", type=float, default=0.0,
                   metavar="SECONDS",
                   help="keep serving after the command finishes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Camouflage (HPCA 2017) reproduction experiments",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale the run length (0.25 = quick look)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    p = sub.add_parser("fig11", help=_EXPERIMENTS["fig11"])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)

    p = sub.add_parser("fig12", help=_EXPERIMENTS["fig12"])
    p.add_argument("--benchmark", default=None, choices=BENCHMARK_NAMES)

    p = sub.add_parser("fig13", help=_EXPERIMENTS["fig13"])
    p.add_argument("--adversary", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--victim", default="mcf", choices=("astar", "mcf"))
    p.add_argument("--tune", action="store_true",
                   help="run the online GA CONFIG phase first")

    p = sub.add_parser("covert", help=_EXPERIMENTS["covert"])
    p.add_argument("--key", default="0x2AAAAAAA")
    p.add_argument("--bits", type=int, default=32)
    p.add_argument("--pulse", type=int, default=3000)
    p.add_argument("--no-shaping", action="store_true")

    sub.add_parser("mi", help=_EXPERIMENTS["mi"])

    p = sub.add_parser("tradeoff", help=_EXPERIMENTS["tradeoff"])
    p.add_argument("--benchmark", default="apache", choices=BENCHMARK_NAMES)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep points")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache directory")

    p = sub.add_parser("detect", help=_EXPERIMENTS["detect"])
    p.add_argument("--benchmark", default="apache", choices=BENCHMARK_NAMES)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the suite rungs")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache directory")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the canonical DetectReport JSON here")

    p = sub.add_parser("sweep", help=_EXPERIMENTS["sweep"])
    p.add_argument("name", choices=_SWEEP_NAMES,
                   help="which sweep to run")
    p.add_argument("--benchmark", default=None, choices=BENCHMARK_NAMES,
                   help="override the sweep's default benchmark")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = inline, the reference)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache directory")
    p.add_argument("--hosts", default=None, metavar="H:P,H:P",
                   help="dispatch shards to these worker hosts "
                        "(repro dispatch worker) instead of the "
                        "local pool")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="persistent shard ledger: every state change "
                        "of every shard, local or remote")
    p.add_argument("--lease-seconds", type=float, default=30.0,
                   help="per-shard lease deadline for --hosts")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the merged OpenMetrics exposition here")
    p.add_argument("--dispatch-log", default=None, metavar="PATH",
                   help="write dispatch.* diagnostics as JSONL here")
    _add_serve_args(p)

    p = sub.add_parser("dispatch", help=_EXPERIMENTS["dispatch"])
    dispatch_sub = p.add_subparsers(dest="verb", required=True)
    p = dispatch_sub.add_parser(
        "worker", help="serve sweep shards to a dispatch coordinator"
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (0 = ephemeral, printed at startup)")
    p.add_argument("--task-modules", default="repro.parallel.tasks",
                   metavar="MODS",
                   help="comma-separated task-function module allowlist")
    p.add_argument("--heartbeat", type=float, default=1.0,
                   metavar="SECONDS",
                   help="heartbeat interval while a shard executes")
    p.add_argument("--inline", action="store_true",
                   help="run tasks in the serving thread (no pool, "
                        "no mid-task heartbeats)")
    p = dispatch_sub.add_parser(
        "status", help="render a dispatch ledger written by sweep --ledger"
    )
    p.add_argument("--ledger", required=True, metavar="PATH",
                   help="ledger file to inspect")

    p = sub.add_parser("cache", help=_EXPERIMENTS["cache"])
    p.add_argument("verb", choices=("ls", "prune", "clear"))
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--keep", type=int, default=None, metavar="N",
                   help="prune: retain only the newest N entries")
    p.add_argument("--older-than-days", type=float, default=None,
                   metavar="DAYS",
                   help="prune: remove entries older than DAYS")

    p = sub.add_parser("calibrate", help=_EXPERIMENTS["calibrate"])
    p.add_argument("--benchmark", default=None, choices=BENCHMARK_NAMES)

    p = sub.add_parser("trace", help=_EXPERIMENTS["trace"])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--corunner", default="mcf", choices=BENCHMARK_NAMES)
    _add_engine_arg(p)
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="also export line-delimited JSON")
    p.add_argument("--limit", type=int, default=65536,
                   help="event ring capacity")
    p.add_argument("--categories", default=None,
                   help="comma-separated subset of "
                        + ",".join(ALL_CATEGORIES))

    p = sub.add_parser("stats", help=_EXPERIMENTS["stats"])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--corunner", default="mcf", choices=BENCHMARK_NAMES)
    _add_engine_arg(p)
    p.add_argument("--interval", type=int, default=1024,
                   help="cycles between metric samples")
    p.add_argument("--rows", type=int, default=8,
                   help="sampled rows to print (tail)")

    p = sub.add_parser("run", help=_EXPERIMENTS["run"])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--corunner", default="mcf", choices=BENCHMARK_NAMES)
    _add_engine_arg(p)
    p.add_argument("--cycles", type=int, default=0,
                   help="run length (default: the experiment default)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="snapshot the whole system every N cycles")
    p.add_argument("--checkpoint-dir", default="checkpoints",
                   help="directory for periodic snapshots")
    p.add_argument("--checkpoint-keep", type=int, default=3,
                   help="most-recent snapshots to retain")
    p.add_argument("--watchdog", type=int, default=None, metavar="CYCLES",
                   help="stall budget before aborting (0 disables)")
    p.add_argument("--watchdog-dump", default=None, metavar="PATH",
                   help="JSON diagnostic dump path on watchdog trip")
    p.add_argument("--snapshot-out", default=None, metavar="PATH",
                   help="write a final snapshot when the run finishes")
    p.add_argument("--limit", type=int, default=65536,
                   help="event ring capacity")
    _add_serve_args(p)

    p = sub.add_parser("serve", help=_EXPERIMENTS["serve"])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--corunner", default="mcf", choices=BENCHMARK_NAMES)
    _add_engine_arg(p)
    p.add_argument("--cycles", type=int, default=0,
                   help="run length (default: the experiment default)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for the metrics endpoint")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (0 = ephemeral, printed at startup)")
    p.add_argument("--publish-interval", type=int, default=4096,
                   metavar="CYCLES",
                   help="simulated cycles between registry snapshots")
    p.add_argument("--linger", type=float, default=0.0, metavar="SECONDS",
                   help="keep serving after the run finishes")
    p.add_argument("--profile-out", default=None, metavar="PATH",
                   help="write the profiler rollup JSON when done")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="snapshot the whole system every N cycles")
    p.add_argument("--checkpoint-dir", default="checkpoints",
                   help="directory for drain/periodic snapshots")
    p.add_argument("--checkpoint-keep", type=int, default=3,
                   help="most-recent snapshots to retain")
    p.add_argument("--watchdog", type=int, default=None, metavar="CYCLES",
                   help="stall budget before aborting (0 disables)")
    p.add_argument("--watchdog-dump", default=None, metavar="PATH",
                   help="JSON diagnostic dump path on watchdog trip")
    p.add_argument("--limit", type=int, default=65536,
                   help="event ring capacity")

    p = sub.add_parser("profile", help=_EXPERIMENTS["profile"])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--corunner", default="mcf", choices=BENCHMARK_NAMES)
    _add_engine_arg(p)
    p.add_argument("--cycles", type=int, default=0,
                   help="run length (default: the experiment default)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the flame-style rollup JSON here")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="also write the OpenMetrics exposition here")

    p = sub.add_parser("resume", help=_EXPERIMENTS["resume"])
    p.add_argument("snapshot", help="snapshot file written by 'repro run'")
    _add_engine_arg(p)
    p.add_argument("--cycles", type=int, default=0,
                   help="additional cycles to run")
    p.add_argument("--until", type=int, default=0, metavar="CYCLE",
                   help="absolute cycle to run to (for digest comparison "
                        "against an uninterrupted 'repro run')")

    p = sub.add_parser("faults", help=_EXPERIMENTS["faults"])
    p.add_argument("--scenario", required=True,
                   help="one of: livelock, flood, saturate, degrade, "
                        "epoch-stress, malformed-trace")
    _add_engine_arg(p)
    p.add_argument("--cycles", type=int, default=0,
                   help="override the scenario's default run length")
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="write the scenario's JSON report/dump here")

    p = sub.add_parser(
        "lint",
        help="run the repro-lint invariant checkers (RL001..RL009)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.add_argument("--select", metavar="IDS",
                   help="comma-separated checker ids to run")
    p.add_argument("--baseline", metavar="PATH",
                   help="override the configured baseline file")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline file entirely")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-digest findings cache")
    p.add_argument("--timings", action="store_true",
                   help="print per-checker wall-clock times to stderr")
    p.add_argument("--list-checkers", action="store_true",
                   help="print the checker catalog and exit")

    return parser


def _cmd_lint(args) -> int:
    from repro.lint.runner import run as lint_run

    return lint_run(
        paths=args.paths,
        output_format=args.format,
        baseline_path=args.baseline,
        no_baseline=args.no_baseline,
        select=args.select,
        list_checkers=args.list_checkers,
        no_cache=args.no_cache,
        timings=args.timings,
    )


_HANDLERS = {
    "list": _cmd_list,
    "lint": _cmd_lint,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "covert": _cmd_covert,
    "mi": _cmd_mi,
    "tradeoff": _cmd_tradeoff,
    "detect": _cmd_detect,
    "calibrate": _cmd_calibrate,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "faults": _cmd_faults,
    "sweep": _cmd_sweep,
    "dispatch": _cmd_dispatch,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
