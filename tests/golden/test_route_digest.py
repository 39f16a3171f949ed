"""Golden digest of whole global routes on three benchmark designs.

The kernel tests compare the router with its oracle, and both are code
in this repository; this digest pins the routes themselves.  For each
case it hashes every net's segments (layer, gcells, length, demand),
its lumped R and C, the final grid usage bytes and every net's
congestion factor.  PRESENT at width scale 2.0 and MISTY at 1.5
overflow the grid, so rip-up and DRC repair run on both.  AES_1 under a
mixed per-layer width vector leaves about 75 bins past the checker's
hard margin after rip-up, so DRC repair makes over a thousand reroutes
and keeps or reverts each.  Refresh
with ``pytest --update-goldens`` only after an intentional change to
the routes.
"""

from __future__ import annotations

import hashlib
import json

from repro.bench.designs import build_design
from repro.route.ndr import NonDefaultRule
from repro.route.router import RoutingResult, global_route

#: (design, width scale of every layer or per-layer scales) per golden case.
CASES = (
    ("PRESENT", 1.0),
    ("PRESENT", 2.0),
    ("MISTY", 1.5),
    ("AES_1", (1.0, 1.5, 1.2, 1.0, 1.5, 1.2, 1.0, 1.0, 1.5, 1.2)),
)


def route_digest(routing: RoutingResult) -> str:
    """sha256 over routes, R/C, usage bytes and congestion factors."""
    h = hashlib.sha256()
    for name, route in routing.routes.items():
        h.update(name.encode())
        for seg in route.segments:
            h.update(
                repr(
                    (seg.layer, seg.gcells, seg.length_um.hex(),
                     seg.demand.hex())
                ).encode()
            )
        h.update(
            f"{route.resistance.hex()} {route.capacitance.hex()}".encode()
        )
    h.update(routing.grid.usage.tobytes())
    for name in routing.routes:
        h.update(routing.congestion_factor(name).hex().encode())
    return h.hexdigest()


def test_route_digest_golden(golden):
    digests = {}
    for design_name, scale in CASES:
        layout = build_design(design_name).layout
        if isinstance(scale, tuple):
            scales, label = scale, ",".join(map(str, scale))
        else:
            scales, label = (scale,) * layout.technology.num_layers, scale
        routing = global_route(layout, ndr=NonDefaultRule(scales=scales))
        digests[f"{design_name}@{label}"] = {
            "nets": len(routing.routes),
            "overflows": routing.num_overflows(),
            "sha256": route_digest(routing),
        }
    golden(
        "route_digest.json",
        json.dumps(digests, indent=2, sort_keys=True) + "\n",
    )
