"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig11", "--benchmark", "doom"])

    def test_scale_parsed(self):
        args = build_parser().parse_args(["--scale", "0.5", "list"])
        assert args.scale == 0.5

    def test_covert_key_hex(self):
        args = build_parser().parse_args(["covert", "--key", "0xFF"])
        assert int(args.key, 0) == 255


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "covert" in out

    def test_fig11_quick(self, capsys):
        assert main(["--scale", "0.2", "fig11", "--benchmark", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "TV distance" in out

    def test_fig12_single_benchmark(self, capsys):
        assert main(["--scale", "0.2", "fig12", "--benchmark", "apache"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "apache" in out

    def test_covert_quick(self, capsys):
        assert main([
            "--scale", "0.2", "covert", "--key", "0xA5", "--bits", "8",
            "--pulse", "1500", "--no-shaping",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit error rate" in out

    def test_tradeoff_quick(self, capsys):
        assert main(["--scale", "0.15", "tradeoff",
                     "--benchmark", "apache"]) == 0
        out = capsys.readouterr().out
        assert "no-shaping" in out

    def test_fig13_quick(self, capsys):
        assert main(["--scale", "0.15", "fig13", "--adversary", "gcc",
                     "--victim", "astar"]) == 0
        out = capsys.readouterr().out
        assert "camouflage" in out

    def test_sweep_json_is_jobs_invariant(self, capsys, tmp_path):
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--jobs", "1"]) == 0
        out_1 = capsys.readouterr().out
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--jobs", "2"]) == 0
        out_2 = capsys.readouterr().out
        assert out_1 == out_2
        assert "mean_latency" not in out_1  # flat {latency: value} map

    def test_ledger_without_hosts(self, capsys, tmp_path):
        """Every run records its shards: a local sweep's ledger renders
        with every shard in state ``local``."""
        ledger = str(tmp_path / "ledger.json")
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--jobs", "2",
                     "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["dispatch", "status", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "hosts:    (none)" in out
        with open(ledger, encoding="utf-8") as fh:
            shards = json.load(fh)["shards"]
        assert shards
        assert {entry["state"] for entry in shards.values()} == {"local"}

    def test_cache_verbs_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "noc-latency" in out
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--keep", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out

    def test_tradeoff_prints_digests(self, capsys, tmp_path):
        assert main(["--scale", "0.1", "tradeoff", "--benchmark", "gcc",
                     "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "digest" in out and "no-shaping" in out

    def test_tradeoff_prints_zoo_columns(self, capsys, tmp_path):
        assert main(["--scale", "0.1", "tradeoff",
                     "--benchmark", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "auc" in out and "xcorr" in out and "spectral" in out

    def test_detect_repeated_runs_byte_identical(self, capsys, tmp_path):
        # The CI detect-smoke contract: canonical JSON on stdout, the
        # same bytes (digest included) on every run and any --jobs.
        assert main(["--scale", "0.2", "detect",
                     "--benchmark", "apache", "--jobs", "1"]) == 0
        out_1 = capsys.readouterr().out
        assert main(["--scale", "0.2", "detect",
                     "--benchmark", "apache", "--jobs", "2"]) == 0
        out_2 = capsys.readouterr().out
        assert out_1 == out_2
        doc = json.loads(out_1)
        assert doc["benchmark"] == "apache"
        assert "digest" in doc
        assert [row["label"] for row in doc["rows"]][0] == "no-shaping"

    def test_detect_writes_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "detect.json"
        assert main(["--scale", "0.2", "detect", "--benchmark", "apache",
                     "--out", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        assert json.loads(out_path.read_text()) == json.loads(stdout)


class TestCalibrate:
    def test_single_benchmark(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.2", "calibrate",
                     "--benchmark", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "row_hit_rate" in out


class TestObservability:
    def test_trace_exports_chrome_and_jsonl(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["--scale", "0.2", "trace", "--out", str(chrome),
                     "--jsonl", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "events retained" in out
        payload = json.loads(chrome.read_text())
        categories = {e["cat"] for e in payload["traceEvents"]
                      if e.get("ph") == "i"}
        assert {"shaper", "memctrl", "dram", "noc"} <= categories
        assert jsonl.read_text().count("\n") > 0

    def test_trace_category_filter(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        assert main(["--scale", "0.2", "trace", "--out", str(chrome),
                     "--categories", "dram"]) == 0
        payload = json.loads(chrome.read_text())
        assert {e["cat"] for e in payload["traceEvents"]
                if e.get("ph") == "i"} == {"dram"}

    def test_stats_quick(self, capsys):
        assert main(["--scale", "0.2", "stats"]) == 0
        out = capsys.readouterr().out
        assert "row hit rate" in out
        assert "memctrl.queue_depth" in out
        assert "shaping monitor" in out

    def test_stats_cycle_engine(self, capsys):
        """The per-cycle reference prints what the default engine does."""
        assert main(["--scale", "0.2", "stats", "--engine", "cycle"]) == 0
        reference = capsys.readouterr().out
        assert "row hit rate" in reference
        assert main(["--scale", "0.2", "stats"]) == 0
        assert capsys.readouterr().out == reference


class TestResilienceCommands:
    def _digest(self, out):
        lines = [
            line for line in out.splitlines()
            if line.startswith("report digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_run_resume_digest_round_trip(self, capsys, tmp_path):
        """The bit-identical-resume guarantee, from the command line."""
        ckpt = tmp_path / "ckpt"
        assert main([
            "run", "--cycles", "6000", "--checkpoint-every", "2500",
            "--checkpoint-dir", str(ckpt),
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoints: 2 taken" in out
        digest = self._digest(out)

        snap = sorted(ckpt.glob("checkpoint-*.snap"))[-1]
        assert main(["resume", str(snap), "--until", "6000"]) == 0
        out = capsys.readouterr().out
        assert "kind=system cycle=5000" in out
        assert self._digest(out) == digest

    def test_resume_requires_exactly_one_target(self, capsys, tmp_path):
        snap = str(tmp_path / "final.snap")
        assert main([
            "run", "--cycles", "1000", "--snapshot-out", snap,
        ]) == 0
        capsys.readouterr()
        assert main(["resume", snap]) == 2
        assert main(["resume", snap, "--cycles", "10", "--until", "50"]) == 2
        # --until at or before the snapshot cycle: nothing to resume.
        assert main(["resume", snap, "--until", "1000"]) == 2

    def test_run_watchdog_no_false_positive(self, capsys):
        """A healthy shaped run under a tight budget completes cleanly."""
        assert main([
            "run", "--cycles", "6000", "--watchdog", "2000",
        ]) == 0
        out = capsys.readouterr().out
        assert "stopped at cycle 6000" in out

    def test_run_abort_reports_typed_error(self, capsys, tmp_path):
        """A failing checkpoint aborts the run loudly, not silently."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the checkpoint dir should go")
        assert main([
            "run", "--cycles", "6000", "--checkpoint-every", "1000",
            "--checkpoint-dir", str(blocker / "ckpt"),
        ]) == 1
        out = capsys.readouterr().out
        assert "run aborted: SnapshotError" in out

    def test_faults_malformed_trace(self, capsys):
        assert main(["faults", "--scenario", "malformed-trace"]) == 0
        out = capsys.readouterr().out
        assert '"outcome": "typed_error"' in out
        assert '"error": "TraceFormatError"' in out

    def test_faults_livelock_quick(self, capsys, tmp_path):
        dump = tmp_path / "livelock.json"
        assert main([
            "faults", "--scenario", "livelock", "--cycles", "20000",
            "--dump", str(dump),
        ]) == 0
        out = capsys.readouterr().out
        assert '"error": "WatchdogError"' in out
        assert dump.exists()


class TestObservabilityCommands:
    def _digest(self, out):
        lines = [
            line for line in out.splitlines()
            if line.startswith("report digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_profile_columnar_rollup(self, capsys, tmp_path):
        rollup = tmp_path / "rollup.json"
        metrics = tmp_path / "metrics.txt"
        assert main([
            "--scale", "0.1", "profile", "--engine", "columnar",
            "--out", str(rollup), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "per-station work:" in out
        assert "memctrl" in out
        self._digest(out)

        import json

        doc = json.loads(rollup.read_text())
        cycles = doc["cycles"]
        assert cycles["stepped"] + cycles["skipped"] == cycles["simulated"]
        assert doc["engines"] == {"columnar": 1}
        assert doc["stations"]
        assert "wall" in doc  # the artifact carries the wall total...
        text = metrics.read_text()
        assert "profiler_cycles_simulated_total" in text
        assert "wall" not in text  # ...the registry never does
        assert text.endswith("# EOF\n")

    def test_profile_digest_engine_invariant(self, capsys):
        digests = {}
        for engine in ("cycle", "columnar"):
            assert main([
                "--scale", "0.1", "profile", "--engine", engine,
            ]) == 0
            digests[engine] = self._digest(capsys.readouterr().out)
        assert len(set(digests.values())) == 1

    def test_run_serve_digest_matches_plain_run(self, capsys):
        assert main(["--scale", "0.1", "run"]) == 0
        plain = self._digest(capsys.readouterr().out)
        assert main(["--scale", "0.1", "run", "--serve"]) == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://127.0.0.1:" in out
        assert self._digest(out) == plain

    def test_serve_live_scrape(self, capsys):
        """Drive `repro serve` from a worker thread and scrape the
        endpoints while it lingers — the CI smoke job, in-process."""
        import json
        import socket
        import threading
        import time
        import urllib.request

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rc = []
        thread = threading.Thread(target=lambda: rc.append(main([
            "--scale", "0.1", "serve", "--port", str(port),
            "--publish-interval", "1024", "--linger", "6",
        ])))
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def scrape(route):
            deadline = time.monotonic() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        base + route, timeout=2
                    ) as response:
                        return response.read().decode("utf-8")
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)

        try:
            # The server answers "starting" between start() and the
            # first publish; wait for the run to finish so /metrics
            # holds final state.
            deadline = time.monotonic() + 60
            while True:
                health = json.loads(scrape("/healthz"))
                if health["status"] == "ok" and health["cycle"] >= 4000:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.1)
            text = scrape("/metrics")
            assert "profiler_cycles_simulated_total 4000" in text
            assert "monitor_checkpoints" in text
            assert "core0_request_credits" in text
            assert text.endswith("# EOF\n")
            monitor = json.loads(scrape("/monitor"))
            assert monitor["enabled"] is True
            assert monitor["streams"]
        finally:
            thread.join(timeout=60)
        assert rc == [0]
        out = capsys.readouterr().out
        assert "stopped at cycle 4000" in out
