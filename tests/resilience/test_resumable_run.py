"""The resume protocol over both run kinds: explorer and attack campaign.

:class:`~repro.resilience.run.ResumableRun` owns checkpoint, resume,
progress, interrupt and cancel for the NSGA-II explorer (one boundary
per generation) and the red-team campaign (one boundary per batch).
Every test here runs once per kind on the millisecond-scale fakes of
:mod:`repro.service.testing`; the PRESENT sweeps stay in the ``slow``
tiers of ``test_chaos_explorer.py`` and ``tests/redteam``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.params import ParameterSpace
from repro.errors import InjectedInterrupt
from repro.optimize.explorer import ParetoExplorer
from repro.optimize.nsga2 import NSGA2Config
from repro.redteam import (
    AttackCampaign,
    AttackGrid,
    AttackSpecPoint,
    CampaignCheckpoint,
)
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager, ExplorationCheckpoint
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import SupervisionConfig
from repro.service.testing import FakeAttackSurface, FakeGuard
from tests.resilience.conftest import front_key

FAST_SUPERVISION = SupervisionConfig(backoff_s=0.0, poll_s=0.01)


class Explore:
    """FakeGuard exploration: pop 8, gen 3, seed 3."""

    codec = ExplorationCheckpoint

    @staticmethod
    def run(**kwargs):
        return ParetoExplorer(
            FakeGuard(),
            space=ParameterSpace(num_layers=3),
            config=NSGA2Config(population_size=8, generations=3, seed=3),
            supervision=FAST_SUPERVISION,
            **kwargs,
        ).explore()

    @staticmethod
    def boundaries(result) -> int:
        # one per executed generation: the stall break may end the run
        # before config.generations
        return len(result.history)

    @staticmethod
    def fingerprint(result):
        return (
            front_key(result),
            result.history,
            result.evaluations,
            result.resilience.as_dict(),
        )

    @staticmethod
    def checkpoint_boundary(ckpt) -> int:
        return ckpt.generation

    @staticmethod
    def event_boundary(event) -> int:
        return event["generation"]


class Attack:
    """Fake campaign: 2 targets x 2 specs = 4 batches of 5 attempts."""

    codec = CampaignCheckpoint

    @staticmethod
    def run(**kwargs):
        return AttackCampaign(
            [
                ("baseline", FakeAttackSurface("baseline", resistance=0.25)),
                ("hardened", FakeAttackSurface("hardened", resistance=0.6)),
            ],
            AttackGrid("test", (
                AttackSpecPoint("a2-er20-first", "a2"),
                AttackSpecPoint(
                    "lean-er12-random", "lean", thresh_er=12,
                    strategy="random_fit",
                ),
            )),
            attempts=5,
            seed=11,
            supervision=FAST_SUPERVISION,
            **kwargs,
        ).run()

    @staticmethod
    def boundaries(result) -> int:
        return len(result.targets) * len(result.grid.points)

    @staticmethod
    def fingerprint(result):
        return result.to_json(), result.resilience.as_dict()

    @staticmethod
    def checkpoint_boundary(ckpt) -> int:
        return ckpt.batch

    @staticmethod
    def event_boundary(event) -> int:
        return event["generation"] - 1  # the event counts completed batches


KINDS = pytest.mark.parametrize(
    "kind", [Explore, Attack], ids=["explore", "attack"]
)


def run_with_faults(kind, specs, **kwargs):
    faults.install(FaultPlan(specs))
    try:
        return kind.run(**kwargs)
    finally:
        faults.clear()


def killed_at(kind, boundary, run_dir, extra_faults=(), processes=0):
    """Run until the injected interrupt after ``boundary``."""
    with pytest.raises(InjectedInterrupt):
        run_with_faults(
            kind,
            [*extra_faults, FaultSpec(generation=boundary, kind="interrupt")],
            checkpoint_dir=run_dir,
            processes=processes,
        )


@pytest.mark.parametrize("processes", [0, 2])
@KINDS
def test_kill_at_every_boundary_resumes_bitwise(kind, processes, tmp_path):
    oracle = kind.run(processes=processes)
    for boundary in range(kind.boundaries(oracle)):
        run_dir = tmp_path / f"b{boundary}"
        killed_at(kind, boundary, run_dir, processes=processes)
        resumed = kind.run(
            checkpoint_dir=run_dir, resume=True, processes=processes
        )
        assert resumed.resumed_from == boundary
        assert kind.fingerprint(resumed) == kind.fingerprint(oracle)


@KINDS
def test_resume_keeps_supervision_counters(kind, tmp_path):
    """A task error before the kill is still counted after the resume."""
    error = FaultSpec(generation=1, individual=0, attempt=0, kind="error")
    oracle = run_with_faults(kind, [error])
    assert (oracle.resilience.retries, oracle.resilience.task_failures) == (
        1, 1
    )
    killed_at(kind, 1, tmp_path, extra_faults=[error])
    resumed = kind.run(checkpoint_dir=tmp_path, resume=True)
    assert resumed.resumed_from == 1
    assert resumed.resilience.as_dict() == oracle.resilience.as_dict()


@KINDS
def test_progress_follows_the_durable_checkpoint(kind, tmp_path):
    """Each progress event is JSON-ready and reports a boundary whose
    checkpoint is already on disk."""
    seen = []

    def progress(event):
        assert json.loads(json.dumps(event)) == event
        ckpt = kind.codec.load(CheckpointManager(tmp_path))
        assert ckpt is not None, f"no checkpoint behind {event}"
        seen.append(
            (kind.event_boundary(event), kind.checkpoint_boundary(ckpt))
        )

    result = kind.run(checkpoint_dir=tmp_path, progress=progress)
    assert seen == [(b, b) for b in range(kind.boundaries(result))]
