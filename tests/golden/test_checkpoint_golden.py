"""Golden-file pin of the exploration checkpoint format.

The checked-in ``checkpoint_tiny.json`` freezes the current schema
version; any change to the on-disk layout shows up as a readable JSON
diff and forces a deliberate refresh (``pytest --update-goldens``) plus
a schema-version bump decision.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.params import FlowConfig
from repro.errors import CheckpointError
from repro.optimize.nsga2 import Individual
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    ExplorationCheckpoint,
)

GOLDEN = Path(__file__).parent / "data" / "checkpoint_tiny.json"


def tiny_checkpoint() -> ExplorationCheckpoint:
    """A fully deterministic synthetic checkpoint (no RNG, no time)."""

    def individual(op, n, it, scales, objectives, violation, rank, crowding):
        ind = Individual(
            genome=FlowConfig(op, n, it, scales),
            objectives=objectives,
            violation=violation,
        )
        ind.rank = rank
        ind.crowding = crowding
        return ind

    population = [
        individual("CS", 2, 1, (1.0, 1.0, 1.0), (0.25, -0.5), 0.0, 0,
                   float("inf")),
        individual("LDA", 16, 2, (1.0, 1.2, 1.5), (0.125, -0.25), 0.0, 0,
                   0.75),
        individual("CS", 32, 2, (1.5, 1.5, 1.5), (0.0625, -0.125), 1.5, 1,
                   float("inf")),
    ]
    return ExplorationCheckpoint(
        generation=1,
        population=population,
        history=[
            [((0.25, -0.5), 0.0), ((0.125, -0.25), 0.0)],
            [((0.0625, -0.125), 1.5)],
        ],
        rng_state={
            "bit_generator": "PCG64",
            "state": {"state": 42, "inc": 7},
            "has_uint32": 0,
            "uinteger": 0,
        },
        eval_cache={
            ("CS", 2, 1, (1.0, 1.0, 1.0)): ((0.25, -0.5), 0.0),
            ("LDA", 16, 2, (1.0, 1.2, 1.5)): ((0.125, -0.25), 0.0),
        },
        evaluations=3,
        cache_requests=5,
        cache_hits=2,
        stall=0,
        best_proxy=-0.375,
        nsga2={
            "population_size": 3,
            "generations": 2,
            "crossover_rate": 0.9,
            "mutation_rate": 0.2,
            "stall_generations": 8,
            "seed": 9,
        },
        num_layers=3,
        resilience={
            "retries": 1,
            "worker_deaths": 0,
            "timeouts": 0,
            "task_failures": 1,
            "degraded": False,
        },
    )


class TestCheckpointGolden:
    def test_format_matches_golden(self, tmp_path, golden):
        manager = CheckpointManager(tmp_path)
        tiny_checkpoint().save(manager)
        golden("checkpoint_tiny.json", manager.path.read_text())

    def test_golden_file_declares_current_schema_version(self):
        payload = json.loads(GOLDEN.read_text())
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert payload["kind"] == "exploration"

    def test_golden_round_trips_to_a_fixed_point(self, tmp_path):
        """load(golden) → save must reproduce the golden bytes exactly."""
        manager = CheckpointManager(tmp_path)
        manager.path.write_text(GOLDEN.read_text())
        ExplorationCheckpoint.load(manager).save(manager)
        assert manager.path.read_bytes() == GOLDEN.read_bytes()

    def test_bumped_version_golden_is_rejected(self, tmp_path):
        payload = json.loads(GOLDEN.read_text())
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        manager = CheckpointManager(tmp_path)
        manager.path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as err:
            ExplorationCheckpoint.load(manager)
        message = str(err.value)
        assert f"version {CHECKPOINT_SCHEMA_VERSION + 1}" in message
        assert "restart without --resume" in message
