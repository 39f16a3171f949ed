"""``repro.redteam`` — the Monte Carlo attack-campaign engine.

GDSII-Guard's claim is *negative*: after hardening, the A2-class
attacker should fail.  This package turns that claim into a measured
quantity by sweeping a grid of :class:`~repro.security.trojan.TrojanSpec`
variants (footprint, Thresh_ER, tap-distance limit, placement strategy)
times N seeded insertion attempts per spec against one or more target
layouts — the unhardened baseline, a single hardened layout, or every
point on an exploration Pareto front — and reporting per-spec attack
success rates, attempts-to-first-insertion, and the slack/DRC impact of
successful implants.

Campaigns run on the explorer's resume protocol,
:class:`~repro.resilience.run.ResumableRun`: the attempts of a batch run
on the supervised worker pool (per-attempt crash isolation and
timeouts), every batch boundary writes an atomic checkpoint before its
progress event, and a SIGKILLed campaign resumed from its run directory
finishes **bitwise identical** to the uninterrupted run, supervision
counters included — enforced for both run kinds by
``tests/resilience/test_resumable_run.py`` and by the differential suite
in ``tests/redteam``.
"""

from repro.redteam.campaign import (
    AttackCampaign,
    CampaignResult,
    derive_attempt_seed,
)
from repro.redteam.checkpoint import CampaignCheckpoint
from repro.redteam.grid import (
    FOOTPRINTS,
    GRID_PRESETS,
    AttackGrid,
    AttackSpecPoint,
)
from repro.redteam.surface import (
    AttackAttempt,
    AttemptOutcome,
    LayoutAttackSurface,
)

__all__ = [
    "AttackAttempt",
    "AttackCampaign",
    "AttackGrid",
    "AttackSpecPoint",
    "AttemptOutcome",
    "CampaignCheckpoint",
    "CampaignResult",
    "FOOTPRINTS",
    "GRID_PRESETS",
    "LayoutAttackSurface",
    "derive_attempt_seed",
]
