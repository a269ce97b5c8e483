"""Checkpoint/restore: envelope validation and bit-identical resume.

The headline guarantee (docs/resilience.md): a run interrupted at any
cycle and resumed from its snapshot is **bit-identical** to the
uninterrupted run — same :class:`SystemReport`, same obs event stream,
same monitor samples — under both execution engines.  The fast cases
cover each shaping feature once; the ``slow`` sweep drives randomized
configurations and cut points.
"""

import random
import shutil

import pytest

from repro.common.errors import SnapshotError
from repro.core.bins import BinSpec, uniform_config
from repro.ga.online import OnlineGaTuner, TunerConfig, resume_tuner
from repro.memctrl.transaction import txn_id_watermark
from repro.resilience import (
    ResilienceConfig,
    read_snapshot_info,
    restore_system,
    snapshot_system,
)
from repro.resilience.snapshot import (
    KIND_SYSTEM,
    dump_snapshot,
    load_snapshot,
    parse_snapshot,
    save_snapshot,
)
from repro.sim.stats import report_digest
from repro.sim.system import (
    EpochShapingPlan,
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

from tests.test_ga_online import build_tunable_system

SPEC = BinSpec()


# -- envelope validation ---------------------------------------------------


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        meta = save_snapshot(path, {"x": [1, 2, 3]}, "system", 42)
        assert meta["kind"] == "system"
        assert meta["cycle"] == 42
        obj, loaded_meta = load_snapshot(path)
        assert obj == {"x": [1, 2, 3]}
        assert loaded_meta == meta

    def test_bad_magic(self):
        with pytest.raises(SnapshotError, match="magic"):
            parse_snapshot(b"NOTASNAP v1\n{}\npayload")

    def test_bad_version_field(self):
        with pytest.raises(SnapshotError, match="version"):
            parse_snapshot(b"REPROSNAP one\n{}\npayload")

    def test_unsupported_version(self):
        with pytest.raises(SnapshotError, match="v99"):
            parse_snapshot(b'REPROSNAP v99\n{"kind": "system"}\npayload')

    def test_corrupt_metadata(self):
        with pytest.raises(SnapshotError, match="metadata"):
            parse_snapshot(b"REPROSNAP v1\nnot-json\npayload")

    def test_metadata_must_have_kind(self):
        with pytest.raises(SnapshotError, match="kind"):
            parse_snapshot(b'REPROSNAP v1\n{"cycle": 1}\npayload')

    def test_truncated_payload(self):
        with pytest.raises(SnapshotError, match="truncated"):
            parse_snapshot(b'REPROSNAP v1\n{"kind": "system"}\n')

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        save_snapshot(path, [1], "tuner", 0)
        with pytest.raises(SnapshotError, match="tuner"):
            load_snapshot(path, expect_kind=KIND_SYSTEM)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(str(tmp_path / "nope.snap"))
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot_info(str(tmp_path / "nope.snap"))

    def test_unpicklable_object(self):
        with pytest.raises(SnapshotError, match="serialisable"):
            dump_snapshot(lambda: None, "system", 0)

    def test_read_info_skips_payload(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        save_snapshot(path, list(range(100_000)), "system", 7,
                      extra_meta={"note": "big"})
        info = read_snapshot_info(path)
        assert info["cycle"] == 7
        assert info["note"] == "big"

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "obj.snap"
        save_snapshot(str(path), [1], "system", 0)
        assert path.exists()
        assert not (tmp_path / "obj.snap.tmp").exists()

    def test_watermark_recorded_and_advanced(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        meta = save_snapshot(path, [1], "system", 0)
        assert meta["txn_watermark"] == txn_id_watermark()
        load_snapshot(path)
        assert txn_id_watermark() >= meta["txn_watermark"]


# -- bit-identical interrupted resume --------------------------------------


def _observed_resilient_builder(
    seed=7,
    traces=(("gcc", 250), ("astar", 250)),
    response=True,
    jitter=False,
    epoch=False,
    resilience=None,
):
    """A shaped system with tracing, sampling, monitoring and (optionally)
    run-loop checkpointing attached — the full artifact surface the
    bit-identical guarantee covers."""
    config = uniform_config(SPEC, 2)
    builder = SystemBuilder(seed=seed)
    for index, (name, accesses) in enumerate(traces):
        builder.add_core(
            make_trace(name, accesses, seed=seed + index),
            request_shaping=(
                RequestShapingPlan(config, jitter=jitter)
                if not epoch else None
            ),
            response_shaping=(
                ResponseShapingPlan(config, jitter=jitter)
                if response else None
            ),
            epoch_shaping=EpochShapingPlan() if epoch else None,
        )
    builder.with_observability(
        trace=True, sample_interval=1024, monitor=True, monitor_interval=2048
    )
    if resilience is not None:
        builder.with_resilience(resilience)
    return builder


def _obs_artifacts(system):
    obs = system.observability
    return (
        obs.tracer.events,
        obs.tracer.counts,
        obs.sampler.samples,
        obs.monitor.history,
        obs.monitor.violations,
    )


def _assert_resume_identical(make_builder, cut, cycles, engine, tmp_path):
    """run(cut); snapshot; restore; run(rest) ≡ run(cycles) straight."""
    straight = make_builder().build()
    report_straight = straight.run(cycles, engine=engine)

    interrupted = make_builder().build()
    interrupted.run(cut, stop_when_done=False, engine=engine)
    snap = str(tmp_path / f"cut-{engine}.snap")
    meta = snapshot_system(interrupted, snap)
    assert meta["cycle"] == cut
    del interrupted  # the "crash": only the snapshot file survives

    resumed = restore_system(snap)
    assert resumed.current_cycle == cut
    report_resumed = resumed.run(cycles - cut, engine=engine)

    assert report_straight == report_resumed
    assert report_digest(report_straight) == report_digest(report_resumed)
    assert _obs_artifacts(straight) == _obs_artifacts(resumed)


class TestResumeIdentical:
    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_bdc(self, engine, tmp_path):
        _assert_resume_identical(
            _observed_resilient_builder, 9_000, 25_000, engine, tmp_path
        )

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_bdc_jitter(self, engine, tmp_path):
        _assert_resume_identical(
            lambda: _observed_resilient_builder(jitter=True),
            9_000, 25_000, engine, tmp_path,
        )

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_epoch_shaping(self, engine, tmp_path):
        _assert_resume_identical(
            lambda: _observed_resilient_builder(epoch=True),
            9_000, 25_000, engine, tmp_path,
        )

    def test_cross_engine_resume(self, tmp_path):
        """A snapshot written under one engine resumes under the other."""
        straight = _observed_resilient_builder().build()
        digest = report_digest(straight.run(25_000, engine="cycle"))

        system = _observed_resilient_builder().build()
        system.run(9_000, stop_when_done=False, engine="columnar")
        snap = str(tmp_path / "cross.snap")
        snapshot_system(system, snap)
        resumed = restore_system(snap)
        assert digest == report_digest(
            resumed.run(16_000, engine="cycle")
        )


class TestRunLoopCheckpointing:
    """``checkpoint_every`` in the run loop itself, both engines."""

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_periodic_checkpoints_land_on_boundaries(self, engine, tmp_path):
        builder = _observed_resilient_builder(
            resilience=ResilienceConfig(
                checkpoint_every=4_000,
                checkpoint_dir=str(tmp_path / engine),
                checkpoint_keep=2,
            ),
        )
        system = builder.build()
        system.run(17_000, stop_when_done=False, engine=engine)
        res = system.resilience
        assert res.checkpoints_taken == 4
        snaps = sorted((tmp_path / engine).glob("checkpoint-*.snap"))
        assert len(snaps) == 2  # keep policy pruned the older two
        assert [read_snapshot_info(str(s))["cycle"] for s in snaps] == [
            12_000, 16_000,
        ]

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_resume_from_periodic_checkpoint(self, engine, tmp_path):
        def build(tag):
            return _observed_resilient_builder(
                resilience=ResilienceConfig(
                    checkpoint_every=6_000,
                    checkpoint_dir=str(tmp_path / tag),
                ),
            ).build()

        straight = build(f"straight-{engine}")
        report_straight = straight.run(
            20_000, stop_when_done=False, engine=engine
        )

        interrupted = build(f"interrupted-{engine}")
        interrupted.run(9_000, stop_when_done=False, engine=engine)
        snap = interrupted.resilience.last_checkpoint_path
        assert read_snapshot_info(snap)["cycle"] == 6_000
        del interrupted

        resumed = restore_system(snap)
        report_resumed = resumed.run(
            14_000, stop_when_done=False, engine=engine
        )
        assert report_straight == report_resumed
        assert _obs_artifacts(straight) == _obs_artifacts(resumed)


# -- GA tuner checkpointing ------------------------------------------------


class TestTunerCheckpoint:
    def test_interrupted_tuning_resumes_identically(
        self, tmp_path, monkeypatch
    ):
        config = TunerConfig(
            epoch_cycles=400, profile_cycles=200,
            population_size=4, generations=3,
        )
        system, handles = build_tunable_system()
        straight = OnlineGaTuner(system, handles, config=config).tune()

        # Checkpoint after every generation, keeping a copy of each so
        # the "interruption after generation 1" state stays available.
        import repro.ga.online as online

        real_save = online.save_tuner
        per_generation = []

        def capturing_save(tuner, path):
            real_save(tuner, path)
            copy = f"{path}.gen{len(per_generation)}"
            shutil.copyfile(path, copy)
            per_generation.append(copy)

        monkeypatch.setattr(online, "save_tuner", capturing_save)
        system2, handles2 = build_tunable_system()
        OnlineGaTuner(system2, handles2, config=config).tune(
            checkpoint_path=str(tmp_path / "tuner.snap")
        )
        monkeypatch.undo()
        assert len(per_generation) >= 4  # 3 generations + the final save

        resumed_tuner = resume_tuner(per_generation[0])
        resumed = resumed_tuner.tune()
        assert resumed.best_genome == straight.best_genome
        assert resumed.best_fitness == straight.best_fitness
        assert resumed.fitness_history == straight.fitness_history

    def test_resume_tuner_rejects_system_snapshot(self, tmp_path):
        system = _observed_resilient_builder().build()
        snap = str(tmp_path / "sys.snap")
        snapshot_system(system, snap)
        with pytest.raises(SnapshotError, match="system"):
            resume_tuner(snap)


# -- randomized sweep ------------------------------------------------------


TRACE_NAMES = ["gcc", "astar", "h264ref", "libquantum", "apache", "sjeng"]


def _random_builder(seed):
    def build():
        rng = random.Random(seed)
        builder = SystemBuilder(seed=seed)
        builder.with_scheduler(rng.choice(["frfcfs", "priority", "tp"]))
        if rng.random() < 0.3:
            builder.with_write_queue()
        for index in range(rng.randint(1, 3)):
            name = rng.choice(TRACE_NAMES)
            style = rng.choice(["none", "reqc", "respc", "bdc", "epoch"])
            jitter = rng.random() < 0.5
            config = uniform_config(SPEC, rng.randint(1, 4))
            builder.add_core(
                make_trace(name, 200, seed=seed + index),
                request_shaping=(
                    RequestShapingPlan(config, jitter=jitter)
                    if style in ("reqc", "bdc") else None
                ),
                response_shaping=(
                    ResponseShapingPlan(config, jitter=jitter)
                    if style in ("respc", "bdc") else None
                ),
                epoch_shaping=(
                    EpochShapingPlan() if style == "epoch" else None
                ),
            )
        builder.with_observability(
            trace=True, sample_interval=1024,
            monitor=True, monitor_interval=2048,
        )
        return builder

    return build


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["cycle", "columnar"])
@pytest.mark.parametrize("seed", range(8))
def test_randomized_resume_bit_identical(seed, engine, tmp_path):
    cut = random.Random(seed ^ 0x5EED).randrange(2_000, 28_000)
    _assert_resume_identical(
        _random_builder(seed), cut, 30_000, engine, tmp_path
    )
