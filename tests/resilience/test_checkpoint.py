"""Checkpoint manager + exploration-state codec tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.params import FlowConfig
from repro.errors import CheckpointError, ReproError, ResilienceError
from repro.optimize.nsga2 import Individual
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    ExplorationCheckpoint,
    decode_flow_config,
    encode_flow_config,
)


def make_individual(i: int) -> Individual:
    ind = Individual(
        genome=FlowConfig(
            op_select="CS" if i % 2 == 0 else "LDA",
            lda_n=(2, 4, 8, 16)[i % 4],
            lda_n_iter=1 + (i % 2),
            rws_scales=((1.0, 1.2, 1.5)[i % 3], 1.0, 1.5),
        ),
        objectives=(0.1 * i + 1e-7, -0.25 * i),
        violation=0.0 if i % 3 else 0.5 * i,
    )
    ind.rank = i % 2
    ind.crowding = float("inf") if i == 0 else 0.125 * i
    return ind


def make_checkpoint(n: int = 4) -> ExplorationCheckpoint:
    population = [make_individual(i) for i in range(n)]
    cache = {
        ("CS", 2 + 2 * i, 1, (1.0, 1.2, 1.0)): ((0.1 * i, -0.2 * i), 0.0)
        for i in range(n)
    }
    return ExplorationCheckpoint(
        generation=2,
        population=population,
        history=[[(ind.objectives, ind.violation) for ind in population]],
        rng_state={
            "bit_generator": "PCG64",
            "state": {"state": 123456789, "inc": 987654321},
            "has_uint32": 0,
            "uinteger": 0,
        },
        eval_cache=cache,
        evaluations=n,
        cache_requests=2 * n,
        cache_hits=n,
        stall=1,
        best_proxy=-0.75,
        nsga2={"population_size": n, "generations": 4, "seed": 9},
        num_layers=3,
    )


class TestCheckpointManager:
    def test_save_and_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path / "run")
        path = manager.save_payload({"kind": "x", "value": [1, 2.5, "a"]})
        assert path == manager.path
        payload = manager.load_payload()
        assert payload["value"] == [1, 2.5, "a"]
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_load_absent_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "run").load_payload() is None

    def test_no_temp_droppings_after_save(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_payload({"kind": "x"})
        manager.save_payload({"kind": "y"})
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        manager = CheckpointManager(tmp_path)
        manager.save_payload({"kind": "x", "value": 1})

        import repro.resilience.checkpoint as ckpt_mod

        def boom(fd):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt_mod.os, "fsync", boom)
        with pytest.raises(CheckpointError, match="cannot write"):
            manager.save_payload({"kind": "x", "value": 2})
        monkeypatch.undo()
        assert manager.load_payload()["value"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_nested_save_into_same_directory(self, tmp_path, monkeypatch):
        """A second manager saving in the middle of the first save (same
        process, same directory) must use its own tmp file: both saves
        succeed and the last rename wins with a parseable file."""
        import repro.resilience.checkpoint as ckpt_mod

        real_fsync = ckpt_mod.os.fsync
        fsyncs = []

        def fsync_then_nested_save(fd):
            real_fsync(fd)
            fsyncs.append(fd)
            if len(fsyncs) == 1:  # only the outer save nests
                CheckpointManager(tmp_path).save_payload({"kind": "in"})

        outer = CheckpointManager(tmp_path)
        monkeypatch.setattr(ckpt_mod.os, "fsync", fsync_then_nested_save)
        outer.save_payload({"kind": "out"})
        monkeypatch.undo()
        assert len(fsyncs) == 2
        assert outer.load_payload()["kind"] == "out"
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_nested_construction_probes_its_own_file(
        self, tmp_path, monkeypatch
    ):
        """A manager built while another one is probing the same
        directory must not unlink the first one's probe file."""
        from pathlib import Path

        real_write_text = Path.write_text
        writes = []

        def write_then_nested_probe(self, *args, **kwargs):
            result = real_write_text(self, *args, **kwargs)
            writes.append(self.name)
            if len(writes) == 1:  # only the outer probe nests
                CheckpointManager(tmp_path)
            return result

        monkeypatch.setattr(Path, "write_text", write_then_nested_probe)
        CheckpointManager(tmp_path)
        monkeypatch.undo()
        assert len(writes) == 2
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_rejected(self, tmp_path):
        # a path *under a regular file* cannot be mkdir'd, even as root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(CheckpointError, match="not writable"):
            CheckpointManager(blocker / "run")

    def test_corrupt_json_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.path.write_text("{broken")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            manager.load_payload()

    def test_missing_schema_version_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.path.write_text(json.dumps({"kind": "exploration"}))
        with pytest.raises(CheckpointError, match="schema_version"):
            manager.load_payload()

    def test_future_schema_version_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_payload({"kind": "exploration"})
        payload = json.loads(manager.path.read_text())
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        manager.path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as err:
            manager.load_payload()
        assert f"version {CHECKPOINT_SCHEMA_VERSION + 1}" in str(err.value)
        assert "without --resume" in str(err.value)

    def test_checkpoint_error_is_repro_error(self):
        assert issubclass(CheckpointError, ResilienceError)
        assert issubclass(CheckpointError, ReproError)


class TestFlowConfigCodec:
    def test_round_trip(self):
        cfg = FlowConfig("LDA", 16, 2, (1.0, 1.5, 1.2))
        assert decode_flow_config(encode_flow_config(cfg)) == cfg

    def test_malformed_payload_rejected(self):
        with pytest.raises(CheckpointError, match="malformed genome"):
            decode_flow_config({"op_select": "CS"})


class TestExplorationCheckpoint:
    def test_payload_round_trip_is_exact(self):
        ckpt = make_checkpoint()
        restored = ExplorationCheckpoint.from_payload(ckpt.to_payload())
        assert restored.to_payload() == ckpt.to_payload()
        assert restored.rng_state == ckpt.rng_state
        assert restored.eval_cache == ckpt.eval_cache
        for a, b in zip(restored.population, ckpt.population):
            assert a.genome == b.genome
            assert a.objectives == b.objectives
            assert a.violation == b.violation
            assert a.rank == b.rank
            assert a.crowding == b.crowding

    def test_json_round_trip_is_byte_stable(self, tmp_path):
        """save → load → save reproduces the identical bytes (fixed
        point), which is what makes checkpoints diffable in CI."""
        manager = CheckpointManager(tmp_path)
        make_checkpoint().save(manager)
        first = manager.path.read_bytes()
        ExplorationCheckpoint.load(manager).save(manager)
        assert manager.path.read_bytes() == first

    def test_wrong_kind_rejected(self):
        payload = make_checkpoint().to_payload()
        payload["kind"] = "harden"
        with pytest.raises(CheckpointError, match="not an .*exploration"):
            ExplorationCheckpoint.from_payload(payload)

    def test_malformed_payload_rejected(self):
        payload = make_checkpoint().to_payload()
        del payload["counters"]
        with pytest.raises(CheckpointError, match="malformed exploration"):
            ExplorationCheckpoint.from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rng_state", {"x": 1}),
            ("rng_state", 5),
            (
                "rng_state",
                {
                    "bit_generator": "PCG64",
                    "state": {"state": -1, "inc": 1},
                    "has_uint32": 0,
                    "uinteger": 0,
                },
            ),
            ("nsga2", 5),
            ("nsga2", [1, 2]),
            ("resilience", {"retries": "x"}),
        ],
        ids=[
            "rng_state-dict", "rng_state-int", "rng_state-negative",
            "nsga2-int", "nsga2-list", "resilience-retries",
        ],
    )
    def test_malformed_field_fails_resume(
        self, make_explorer, tmp_path, field, value
    ):
        """A bad field fails ``--resume`` with a typed error, never a raw
        exception from the restore or the identity check."""
        make_explorer(checkpoint_dir=tmp_path).explore()
        path = CheckpointManager(tmp_path).path
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="malformed exploration"):
            make_explorer(checkpoint_dir=tmp_path, resume=True).explore()

    @given(
        objectives=st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        violation=st.floats(min_value=0.0, allow_nan=False,
                            allow_infinity=False),
        crowding=st.one_of(
            st.just(float("inf")),
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_floats_survive_json_exactly(self, objectives, violation,
                                         crowding):
        """Python's json emits floats via repr, which round-trips every
        finite float (and Infinity) bit-for-bit — the foundation of the
        bitwise resume guarantee."""
        ind = Individual(
            genome=FlowConfig("CS", 2, 1, (1.0, 1.0, 1.0)),
            objectives=objectives,
            violation=violation,
        )
        ind.rank = 0
        ind.crowding = crowding
        ckpt = make_checkpoint(2)
        ckpt.population[0] = ind
        text = json.dumps(ckpt.to_payload())
        restored = ExplorationCheckpoint.from_payload(json.loads(text))
        assert restored.population[0].objectives == objectives
        assert restored.population[0].violation == violation
        assert restored.population[0].crowding == crowding
