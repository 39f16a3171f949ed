"""Scalar oracles for wire parasitics and setup and hold STA.

:func:`net_parasitics` is the per-net reading of where a net's wire R/C
comes from, as :func:`repro.kernels.sta.parasitic_arrays` computes it for
every net at once: a routed net's R and C scaled by its congestion
factor, the HPWL estimate for an unrouted net or one the router left at
(0, 0), then the corner's wire derate.  :class:`ScalarDelay` is the
per-net delay model the kernel computes as arrays: sink pin loads looked
up pin by pin in the library, net loads, lumped-Elmore wire delays and
cell arc delays, from those parasitics and a corner's cell derate.

Forward Kahn propagation of arrival times and reverse-topological
relaxation of required times, one net at a time with dict lookups: the
textbook reading that the levelized kernel behind
:func:`repro.timing.sta.run_sta` and :func:`repro.timing.sta.run_hold_sta`
must reproduce bitwise.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import TimingError
from repro.geometry import half_perimeter_wirelength
from repro.layout.layout import Layout
from repro.netlist.netlist import Net, Netlist
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import ESTIMATE_LAYER, PORT_LOAD_FF, TYPICAL, Corner
from repro.timing.sta import EndpointSlack, STAResult


def estimate_parasitics(layout: Layout, net_name: str) -> Tuple[float, float]:
    """Pre-route (R, C) of a net: its HPWL × mid-layer unit R and C."""
    tech = layout.technology
    length = half_perimeter_wirelength(layout.net_pin_points(net_name))
    layer = tech.layer(min(ESTIMATE_LAYER, tech.num_layers))
    return (length * layer.unit_resistance, length * layer.unit_capacitance)


def routed_parasitics(routing: object, net_name: str) -> Tuple[float, float]:
    """A routed net's (R, C) × its congestion factor; (0, 0) if unrouted."""
    route = routing.routes.get(net_name)
    if route is None:
        return (0.0, 0.0)
    k = routing.congestion_factor(net_name)
    return (route.resistance * k, route.capacitance * k)


def net_parasitics(
    layout: Layout,
    net_name: str,
    routing: Optional[object] = None,
    wire_derate: float = 1.0,
) -> Tuple[float, float]:
    """(R Ω, C fF) of a net: routed if possible, estimated otherwise."""
    r, c = (0.0, 0.0) if routing is None else routed_parasitics(routing, net_name)
    if r == 0.0 and c == 0.0:
        r, c = estimate_parasitics(layout, net_name)
    if wire_derate != 1.0:
        r, c = r * wire_derate, c * wire_derate
    return (r, c)


def parasitic_lists(
    layout: Layout, routing: Optional[object] = None, wire_derate: float = 1.0
) -> Tuple[List[float], List[float]]:
    """Every net's R and C, net by net in netlist order."""
    pairs = [
        net_parasitics(layout, net.name, routing, wire_derate)
        for net in layout.netlist.nets
    ]
    return [r for r, _ in pairs], [c for _, c in pairs]


class ScalarDelay:
    """Net loads, wire delays and arc delays at ``corner``, net by net."""

    def __init__(
        self,
        layout: Layout,
        routing: Optional[object] = None,
        corner: Corner = TYPICAL,
    ) -> None:
        self.layout = layout
        self.routing = routing
        self.corner = corner
        self.netlist = layout.netlist
        self._parasitics: Dict[str, Tuple[float, float]] = {}

    def parasitics(self, net: Net) -> Tuple[float, float]:
        """The net's wire (R Ω, C fF), read once."""
        value = self._parasitics.get(net.name)
        if value is None:
            value = net_parasitics(
                self.layout, net.name, self.routing, self.corner.wire_derate
            )
            self._parasitics[net.name] = value
        return value

    def sink_pin_load(self, net: Net) -> float:
        """Total input-pin capacitance hanging on the net (fF)."""
        total = 0.0
        for ref in net.sink_pins:
            pin = self.netlist.instance(ref.instance).master.pin(ref.pin)
            if pin.timing is not None:
                total += pin.timing.capacitance
        total += PORT_LOAD_FF * len(net.sink_ports)
        return total

    def net_load(self, net: Net) -> float:
        """Total load seen by the net's driver: wire C plus pin caps (fF)."""
        _, c_wire = self.parasitics(net)
        return c_wire + self.sink_pin_load(net)

    def wire_delay(self, net: Net) -> float:
        """Lumped Elmore delay of the net (ns): R·(C_wire/2 + C_sinks).

        R is in Ω and C in fF, so R·C is in 1e-6 ns; the 1e-6 factor
        converts to ns.
        """
        r_wire, c_wire = self.parasitics(net)
        c_sinks = self.sink_pin_load(net)
        return r_wire * (c_wire / 2.0 + c_sinks) * 1e-6

    def arc_delay(self, instance_name: str, from_pin: str, to_pin: str) -> float:
        """Delay of one cell arc given the load of its output net (ns)."""
        inst = self.netlist.instance(instance_name)
        arcs = [
            a
            for a in inst.master.arcs
            if a.from_pin == from_pin and a.to_pin == to_pin
        ]
        if not arcs:
            return 0.0
        out_net_name = inst.connections.get(to_pin)
        load = 0.0
        if out_net_name is not None:
            load = self.net_load(self.netlist.net(out_net_name))
        return max(a.delay(load) for a in arcs) * self.corner.cell_derate


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


def _source_arrivals(
    netlist: Netlist,
    clock_nets: Set[str],
    model: ScalarDelay,
    constraints: TimingConstraints,
) -> Dict[str, float]:
    """Input ports at the input delay, flip-flop Q nets at their launch."""
    arrival: Dict[str, float] = {}
    for net in netlist.nets:
        if net.name in clock_nets:
            continue
        if net.driver_port is not None:
            arrival[net.name] = constraints.input_delay
        elif net.driver_pin is not None:
            drv = netlist.instance(net.driver_pin.instance)
            if drv.is_sequential:
                arrival[net.name] = model.arc_delay(
                    drv.name, "CK", net.driver_pin.pin
                )
    return arrival


def _loads(netlist: Netlist, model: ScalarDelay) -> np.ndarray:
    """Every net's load, in netlist order."""
    return np.array(
        [model.net_load(net) for net in netlist.nets], dtype=np.float64
    )


def _run_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional[object] = None,
    corner: Corner = TYPICAL,
) -> STAResult:
    """Setup STA by per-net Kahn propagation with dict lookups."""
    model = ScalarDelay(layout, routing, corner)
    netlist = layout.netlist
    clock_nets = netlist.clock_nets()
    successors, indegree = _build_graph(netlist, clock_nets)

    period = constraints.clock_period
    arrival = _source_arrivals(netlist, clock_nets, model, constraints)

    # --- forward propagation (Kahn) ------------------------------------ #
    queue = deque(
        name
        for name, deg in indegree.items()
        if deg == 0 and name not in clock_nets
    )
    processed = 0
    data_nodes = sum(1 for n in indegree if n not in clock_nets)
    while queue:
        net_name = queue.popleft()
        processed += 1
        at_here = arrival.get(net_name)
        net = netlist.net(net_name)
        wire = model.wire_delay(net) if at_here is not None else 0.0
        for inst_name, in_pin, out_pin, out_net in successors[net_name]:
            if at_here is not None:
                cand = at_here + wire + model.arc_delay(inst_name, in_pin, out_pin)
                if cand > arrival.get(out_net, float("-inf")):
                    arrival[out_net] = cand
            indegree[out_net] -= 1
            if indegree[out_net] == 0:
                queue.append(out_net)
    if processed < data_nodes:
        raise TimingError(
            f"combinational loop: {data_nodes - processed} nets unreachable"
        )

    # --- endpoints ------------------------------------------------------ #
    endpoints: List[EndpointSlack] = []
    required: Dict[str, float] = {}

    def relax_required(net_name: str, value: float) -> None:
        if value < required.get(net_name, float("inf")):
            required[net_name] = value

    for inst in netlist.sequential_instances():
        d_net_name = inst.connections.get("D")
        if d_net_name is None or d_net_name in clock_nets:
            continue
        d_net = netlist.net(d_net_name)
        at = arrival.get(d_net_name)
        if at is None:
            continue
        at_pin = at + model.wire_delay(d_net)
        req = period - constraints.ff_setup
        endpoints.append(
            EndpointSlack(kind="ff_d", name=inst.name, arrival=at_pin, required=req)
        )
        relax_required(d_net_name, req - model.wire_delay(d_net))
    for net in netlist.nets:
        if not net.sink_ports or net.name not in arrival:
            continue
        at = arrival[net.name]
        req = period - constraints.output_delay
        for port_name in net.sink_ports:
            endpoints.append(
                EndpointSlack(kind="port", name=port_name, arrival=at, required=req)
            )
        relax_required(net.name, req)

    # --- backward propagation ------------------------------------------ #
    # Reverse-topological relaxation: process nets in reverse of a forward
    # topological order (recompute with a fresh indegree count).
    _, indeg2 = _build_graph(netlist, clock_nets)
    order: List[str] = []
    queue = deque(
        name for name, deg in indeg2.items() if deg == 0 and name not in clock_nets
    )
    while queue:
        net_name = queue.popleft()
        order.append(net_name)
        for _, _, _, out_net in successors[net_name]:
            indeg2[out_net] -= 1
            if indeg2[out_net] == 0:
                queue.append(out_net)
    for net_name in reversed(order):
        net = netlist.net(net_name)
        wire = model.wire_delay(net)
        for inst_name, in_pin, out_pin, out_net in successors[net_name]:
            if out_net in required:
                arc = model.arc_delay(inst_name, in_pin, out_pin)
                relax_required(net_name, required[out_net] - arc - wire)

    # Nets with no downstream constraint get the full period as required.
    for net_name in arrival:
        required.setdefault(net_name, period)

    return STAResult(
        arrival=arrival,
        required=required,
        endpoints=endpoints,
        constraints=constraints,
        load=_loads(netlist, model),
    )


def _run_hold_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional[object] = None,
    corner: Corner = TYPICAL,
    hold_time: float = 0.012,
) -> STAResult:
    """Hold STA: Kahn propagation of the earliest arrival per net."""
    model = ScalarDelay(layout, routing, corner)
    netlist = layout.netlist
    clock_nets = netlist.clock_nets()
    successors, indegree = _build_graph(netlist, clock_nets)
    arrival = _source_arrivals(netlist, clock_nets, model, constraints)

    queue = deque(
        name for name, deg in indegree.items()
        if deg == 0 and name not in clock_nets
    )
    while queue:
        net_name = queue.popleft()
        at_here = arrival.get(net_name)
        net = netlist.net(net_name)
        wire = model.wire_delay(net) if at_here is not None else 0.0
        for inst_name, in_pin, out_pin, out_net in successors[net_name]:
            if at_here is not None:
                cand = at_here + wire + model.arc_delay(inst_name, in_pin, out_pin)
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
        at_pin = arrival[d_net_name] + model.wire_delay(netlist.net(d_net_name))
        # hold: arrival must EXCEED hold_time; slack = arrival − hold.
        endpoints.append(
            EndpointSlack(
                kind="ff_d_hold",
                name=inst.name,
                arrival=hold_time,  # "required" semantics flipped
                required=at_pin,
            )
        )
    return STAResult(
        arrival=arrival,
        required={},
        endpoints=endpoints,
        constraints=constraints,
        load=_loads(netlist, model),
    )
