"""Graph-based static timing analysis.

Nets are the timing nodes (every net has exactly one driver).  Sources are
data input ports and flip-flop Q outputs; endpoints are flip-flop D pins
and data output ports.  A forward topological pass computes arrival times,
a backward pass computes required times; endpoint slacks give WNS and TNS
— the paper's timing objective (``min -TNS``).

Clock pins do not propagate data; the clock is ideal (zero skew/latency).
Combinational loops raise :class:`~repro.errors.TimingError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import TimingError
from repro.layout.layout import Layout
from repro.netlist.netlist import Netlist
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import DelayCalculator


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
    """

    arrival: Dict[str, float]
    required: Dict[str, float]
    endpoints: List[EndpointSlack]
    constraints: TimingConstraints

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


def _build_graph(
    netlist: Netlist, clock_nets: Set[str]
) -> Tuple[Dict[str, List[Tuple[str, str, str, str]]], Dict[str, int]]:
    """Net-level timing graph.

    Returns:
        successors: net → list of (instance, in_pin, out_pin, out_net)
            combinational arcs leaving the net.
        indegree: data-arc indegree of every net node.
    """
    successors: Dict[str, List[Tuple[str, str, str, str]]] = {}
    indegree: Dict[str, int] = {}
    for net in netlist.nets:
        successors.setdefault(net.name, [])
        indegree.setdefault(net.name, 0)
    for inst in netlist.instances:
        if inst.is_sequential or inst.is_filler:
            continue
        out_pins = [
            (p.name, inst.connections.get(p.name))
            for p in inst.master.output_pins
        ]
        for pin in inst.master.input_pins:
            in_net = inst.connections.get(pin.name)
            if in_net is None or in_net in clock_nets:
                continue
            for out_pin, out_net in out_pins:
                if out_net is None:
                    continue
                successors[in_net].append((inst.name, pin.name, out_pin, out_net))
                indegree[out_net] += 1
    return successors, indegree


def run_hold_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional[object] = None,
    delay_calc: Optional[DelayCalculator] = None,
    hold_time: float = 0.012,
) -> STAResult:
    """Min-delay (hold) analysis: the shortest path into every flop.

    A flip-flop's D input must stay stable for ``hold_time`` after the
    clock edge, so the *minimum* data arrival must exceed it.  Endpoint
    slack is ``arrival_min − hold_time``; negative means a hold violation
    (reported through the same :class:`STAResult` shape, with ``tns``
    summing the hold violations).

    Hold is checked at the same (ideal, zero-skew) clock as setup, which
    makes violations rare by construction — the check exists so a user can
    verify a hardened layout did not create races at the fast corner
    (pass a fast-corner :class:`~repro.timing.delay.DelayCalculator`).
    """
    netlist = layout.netlist
    dc = delay_calc or DelayCalculator(layout, routing)
    clock_nets = netlist.clock_nets()
    successors, indegree = _build_graph(netlist, clock_nets)

    arrival: Dict[str, float] = {}
    for net in netlist.nets:
        if net.name in clock_nets:
            continue
        if net.driver_port is not None:
            arrival[net.name] = constraints.input_delay
        elif net.driver_pin is not None:
            drv = netlist.instance(net.driver_pin.instance)
            if drv.is_sequential:
                arrival[net.name] = dc.arc_delay(
                    drv.name, "CK", net.driver_pin.pin
                )

    queue = deque(
        name for name, deg in indegree.items()
        if deg == 0 and name not in clock_nets
    )
    while queue:
        net_name = queue.popleft()
        at_here = arrival.get(net_name)
        net = netlist.net(net_name)
        wire = dc.wire_delay(net) if at_here is not None else 0.0
        for inst_name, in_pin, out_pin, out_net in successors[net_name]:
            if at_here is not None:
                cand = at_here + wire + dc.arc_delay(inst_name, in_pin, out_pin)
                if cand < arrival.get(out_net, float("inf")):
                    arrival[out_net] = cand
            indegree[out_net] -= 1
            if indegree[out_net] == 0:
                queue.append(out_net)

    endpoints: List[EndpointSlack] = []
    for inst in netlist.sequential_instances():
        d_net_name = inst.connections.get("D")
        if d_net_name is None or d_net_name not in arrival:
            continue
        at_pin = arrival[d_net_name] + dc.wire_delay(netlist.net(d_net_name))
        # hold: arrival must EXCEED hold_time; slack = arrival − hold.
        endpoints.append(
            EndpointSlack(
                kind="ff_d_hold",
                name=inst.name,
                arrival=hold_time,  # "required" semantics flipped below
                required=at_pin,
            )
        )
    return STAResult(
        arrival=arrival,
        required={},
        endpoints=endpoints,
        constraints=constraints,
    )


def run_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional[object] = None,
    delay_calc: Optional[DelayCalculator] = None,
) -> STAResult:
    """Run setup STA on a placed (optionally routed) layout.

    Args:
        layout: The layout whose wire delays to analyze.
        constraints: Clock period and boundary delays.
        routing: Optional :class:`~repro.route.router.RoutingResult` for
            routed parasitics; HPWL estimates are used otherwise.
        delay_calc: Optional pre-built calculator (to share caches).

    Returns:
        An :class:`STAResult`.

    Raises:
        TimingError: On a combinational loop.
    """
    # Imported at call time: repro.kernels.sta imports repro.timing,
    # whose package init imports this module.
    from repro.kernels.sta import run_sta_vector

    with obs.timed("sta.run"):
        dc = delay_calc or DelayCalculator(layout, routing)
        result = run_sta_vector(layout, constraints, dc)
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
        routing: Optional[object] = None,
    ) -> None:
        self.layout = layout
        self.constraints = constraints
        #: :func:`run_sta` on ``routing``.
        self.result = run_sta(layout, constraints, routing=routing)

    def update(self, routing: Optional[object]) -> STAResult:
        """:func:`run_sta` of the layout on a new ``routing``."""
        return run_sta(self.layout, self.constraints, routing=routing)
