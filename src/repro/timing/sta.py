"""Graph-based static timing analysis: setup and hold.

Nets are the timing nodes (every net has exactly one driver).  Sources are
data input ports and flip-flop Q outputs; endpoints are flip-flop D pins
and data output ports.  A forward topological pass computes arrival times,
a backward pass computes required times; endpoint slacks give WNS and TNS
— the paper's timing objective (``min -TNS``).  Both analyses run on the
levelized kernel of :mod:`repro.kernels.sta`.

Clock pins do not propagate data; the clock is ideal (zero skew/latency).
Combinational loops raise :class:`~repro.errors.TimingError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro import obs
from repro.errors import TimingError
from repro.layout.layout import Layout
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import TYPICAL, Corner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.route.router import RoutingResult


@dataclass(frozen=True)
class EndpointSlack:
    """Slack at one timing endpoint.

    Attributes:
        kind: ``"ff_d"`` or ``"port"``.
        name: Flip-flop instance name or port name.
        arrival: Data arrival time (ns).
        required: Required time (ns).
    """

    kind: str
    name: str
    arrival: float
    required: float

    @property
    def slack(self) -> float:
        """Required minus arrival (ns); negative means a violation."""
        return self.required - self.arrival


@dataclass
class STAResult:
    """Full analysis result.

    Attributes:
        arrival: Net name → data arrival time (ns).
        required: Net name → required time (ns).
        endpoints: All endpoint slacks.
        constraints: The constraints analyzed against.
        load: Per-net load (fF): wire C plus sink pin loads, as
            float64 in ``netlist.nets`` order.  Power analysis sums its
            switching power from it.
    """

    arrival: Dict[str, float]
    required: Dict[str, float]
    endpoints: List[EndpointSlack]
    constraints: TimingConstraints
    load: np.ndarray = field(compare=False, repr=False)

    @property
    def wns(self) -> float:
        """Worst negative slack (ns); 0 when all endpoints meet timing."""
        if not self.endpoints:
            return 0.0
        return min(0.0, min(e.slack for e in self.endpoints))

    @property
    def tns(self) -> float:
        """Total negative slack (ns); 0 when all endpoints meet timing."""
        return sum(min(0.0, e.slack) for e in self.endpoints)

    @property
    def worst_endpoint(self) -> Optional[EndpointSlack]:
        """The endpoint with the smallest slack."""
        if not self.endpoints:
            return None
        return min(self.endpoints, key=lambda e: e.slack)

    def net_slack(self, net_name: str) -> float:
        """Slack of one timing node (net): required − arrival."""
        if net_name not in self.arrival or net_name not in self.required:
            raise TimingError(f"net {net_name!r} is not a timing node")
        return self.required[net_name] - self.arrival[net_name]

    def instance_slack(self, layout: Layout, instance_name: str) -> float:
        """Worst slack over the nets touching ``instance_name``.

        This is the per-asset slack budget used to derive the paper's
        *exploitable distance*: the most slack an attacker can consume on
        paths through this cell while still meeting timing.
        """
        inst = layout.netlist.instance(instance_name)
        worst = float("inf")
        for net_name in set(inst.connections.values()):
            if net_name in self.arrival and net_name in self.required:
                worst = min(worst, self.required[net_name] - self.arrival[net_name])
        if worst == float("inf"):
            # Untimed cell (e.g. only touches clock nets): full period.
            return self.constraints.clock_period
        return worst


def run_hold_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional["RoutingResult"] = None,
    corner: Corner = TYPICAL,
    hold_time: float = 0.012,
) -> STAResult:
    """Min-delay (hold) analysis: the shortest path into every flop.

    A flip-flop's D input must stay stable for ``hold_time`` after the
    clock edge, so the *minimum* data arrival must exceed it.  Endpoint
    slack is ``arrival_min − hold_time``; negative means a hold violation
    (reported through the same :class:`STAResult` shape, with ``tns``
    summing the hold violations and ``required`` empty).

    The levelized kernel's forward pass, reduced by min: a net's arrival
    is its earliest fanin candidate, while each arc still takes its
    slowest variant.  Hold is checked at the same (ideal, zero-skew)
    clock as setup, which makes violations rare by construction — the
    check exists so a user can verify a hardened layout did not create
    races at the fast corner (pass the fast ``corner``).

    Raises:
        TimingError: On a combinational loop.
    """
    from repro.kernels.sta import (
        forward_arrivals,
        parasitic_arrays,
        timing_structure,
        wire_and_load,
    )

    s = timing_structure(layout.netlist)
    r, c = parasitic_arrays(s, layout, routing, corner.wire_derate)
    wire, load = wire_and_load(r, c, s.csink)
    at, _ = forward_arrivals(
        s, wire, load, corner.cell_derate, constraints.input_delay, earliest=True
    )
    # hold: arrival must EXCEED hold_time, so the endpoint's "required"
    # is the arrival at the D pin and its "arrival" the hold time.
    endpoints = [
        EndpointSlack(
            kind="ff_d_hold",
            name=inst_name,
            arrival=hold_time,
            required=float(at[d] + wire[d]),
        )
        for inst_name, d in s.ff_endpoints
        if at[d] != np.inf
    ]
    arrival = {
        s.names[i]: float(at[i]) for i in np.nonzero(at != np.inf)[0].tolist()
    }
    return STAResult(
        arrival=arrival,
        required={},
        endpoints=endpoints,
        constraints=constraints,
        load=load,
    )


def run_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional["RoutingResult"] = None,
    corner: Corner = TYPICAL,
) -> STAResult:
    """Run setup STA on a placed (optionally routed) layout.

    Args:
        layout: The layout whose wire delays to analyze.
        constraints: Clock period and boundary delays.
        routing: Optional :class:`~repro.route.router.RoutingResult` for
            routed parasitics; HPWL estimates are used otherwise.
        corner: The cell and wire derates to time with.

    Returns:
        An :class:`STAResult`.

    Raises:
        TimingError: On a combinational loop.
    """
    # Imported at call time: repro.kernels.sta imports repro.timing,
    # whose package init imports this module.
    from repro.kernels.sta import run_sta_vector

    with obs.timed("sta.run"):
        result = run_sta_vector(layout, constraints, routing, corner)
    if obs.is_enabled():
        obs.count("sta.nodes", len(result.arrival))
        obs.count("sta.endpoints", len(result.endpoints))
    return result


class IncrementalSTA:
    """Setup STA of one placed layout, re-run on each new routing.

    perfbench's traced run binds this class until ROADMAP item 1 re-points it.
    """

    def __init__(
        self,
        layout: Layout,
        constraints: TimingConstraints,
        routing: Optional["RoutingResult"] = None,
    ) -> None:
        self.layout = layout
        self.constraints = constraints
        #: :func:`run_sta` on ``routing``.
        self.result = run_sta(layout, constraints, routing=routing)

    def update(self, routing: Optional["RoutingResult"]) -> STAResult:
        """:func:`run_sta` of the layout on a new ``routing``."""
        return run_sta(self.layout, self.constraints, routing=routing)
