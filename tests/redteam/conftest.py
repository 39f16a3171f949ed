"""Shared fixtures for the red-team campaign suites.

The fast tier drives :class:`~repro.service.testing.FakeAttackSurface`
(millisecond-scale, pure arithmetic on the attempt seed); the ``slow``
markers re-run the determinism scenarios on the real PRESENT benchmark.
Campaigns here always run with test-friendly supervision (no backoff
sleeps, short poll) so chaos scenarios resolve in milliseconds.
"""

from __future__ import annotations

import pytest

from repro.redteam import (
    AttackCampaign,
    AttackGrid,
    AttackSpecPoint,
    LayoutAttackSurface,
)
from repro.resilience import faults
from repro.resilience.supervisor import SupervisionConfig
from repro.service.testing import FakeAttackSurface

FAST_SUPERVISION = SupervisionConfig(backoff_s=0.0, poll_s=0.01)


@pytest.fixture(autouse=True)
def _fault_hygiene():
    """No fault plan may leak into (or out of) any test."""
    faults.clear()
    yield
    faults.clear()


@pytest.fixture()
def fake_grid():
    """A 2-spec grid covering both placement strategies."""
    return AttackGrid(
        "test",
        (
            AttackSpecPoint("a2-er20-first", "a2"),
            AttackSpecPoint(
                "lean-er12-random", "lean", thresh_er=12,
                strategy="random_fit",
            ),
        ),
    )


@pytest.fixture()
def fake_targets():
    """A baseline + hardened fake pair (4 batches with ``fake_grid``)."""
    return [
        ("baseline", FakeAttackSurface("baseline", resistance=0.25)),
        ("hardened", FakeAttackSurface("hardened", resistance=0.6)),
    ]


@pytest.fixture()
def make_campaign(fake_targets, fake_grid):
    """Factory for fake-tier campaigns with test-friendly supervision."""

    def factory(
        checkpoint_dir=None,
        resume=False,
        processes=0,
        attempts=5,
        seed=11,
        targets=None,
        grid=None,
        supervision=None,
        should_stop=None,
        progress=None,
    ):
        return AttackCampaign(
            targets if targets is not None else fake_targets,
            grid or fake_grid,
            attempts=attempts,
            seed=seed,
            processes=processes,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            supervision=supervision or FAST_SUPERVISION,
            should_stop=should_stop,
            progress=progress,
        )

    return factory


@pytest.fixture(scope="session")
def present_surface(present_design):
    """One shared PRESENT baseline surface for the slow tier.

    Surfaces are pure queries over the design database (attempts never
    mutate the layout), so sharing one across tests cannot leak state.
    """
    d = present_design
    return LayoutAttackSurface(
        "baseline", d.layout, d.sta, d.assets,
        routing=d.routing, constraints=d.constraints,
    )
