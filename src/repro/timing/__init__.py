"""Static timing analysis: constraints, corners, STA engine."""

from repro.timing.constraints import TimingConstraints
from repro.timing.delay import Corner
from repro.timing.sta import EndpointSlack, STAResult, run_sta

__all__ = [
    "TimingConstraints",
    "Corner",
    "EndpointSlack",
    "STAResult",
    "run_sta",
]
