"""Golden digest of the ECO placement operators' output.

``route_digest.json`` routes baseline placements only; this digest pins
what the two placement operators place.  For each design it hashes every
instance's ``(row, start)`` after Cell Shift and after LDA(16, 2), and
each LDA iteration's moved cells, total displacement (``float.hex``) and
unresolved blockages.  Refresh with ``pytest --update-goldens`` only
after an intentional change to the placements.
"""

from __future__ import annotations

import hashlib
import json

from repro.bench.designs import build_design
from repro.core.cell_shift import cell_shift
from repro.core.flow import GDSIIGuard
from repro.core.local_density import local_density_adjustment
from repro.layout.layout import Layout

DESIGNS = ("PRESENT", "SPARX", "MISTY", "CAST", "AES_2")
LDA_N, LDA_N_ITER = 16, 2


def placement_digest(layout: Layout) -> str:
    """sha256 over every placed instance's name, row and start site."""
    h = hashlib.sha256()
    for name, pl in sorted(layout.placements.items()):
        h.update(f"{name} {pl.row} {pl.start}\n".encode())
    return h.hexdigest()


def test_placement_digest_golden(golden):
    digests = {}
    for design_name in DESIGNS:
        design = build_design(design_name)
        guard = GDSIIGuard(
            design.layout,
            design.constraints,
            design.assets,
            baseline_routing=design.routing,
        )
        cs = design.layout.clone()
        cell_shift(
            cs,
            thresh_er=guard.thresh_er,
            assets=design.assets,
            distances=guard.baseline_distances,
        )
        lda = design.layout.clone()
        report = local_density_adjustment(
            lda, design.assets, n=LDA_N, n_iter=LDA_N_ITER
        )
        iterations = hashlib.sha256()
        for it in report.iterations:
            iterations.update(
                repr(
                    (it.moved, it.total_displacement_um.hex(),
                     it.unresolved_blockages)
                ).encode()
            )
        digests[design_name] = {
            "cs_sha256": placement_digest(cs),
            "lda_iterations_sha256": iterations.hexdigest(),
            "lda_moved": [it.num_moved for it in report.iterations],
            "lda_sha256": placement_digest(lda),
        }
    golden(
        "placement_digest.json",
        json.dumps(digests, indent=2, sort_keys=True) + "\n",
    )
