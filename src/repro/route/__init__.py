"""Global routing substrate: gcell grid, NDR width rules, router."""

from repro.route.ndr import NonDefaultRule
from repro.route.grid import RoutingGrid
from repro.route.router import NetRoute, RoutePlan, RoutingResult, global_route

__all__ = [
    "NonDefaultRule",
    "RoutingGrid",
    "NetRoute",
    "RoutePlan",
    "RoutingResult",
    "global_route",
]
