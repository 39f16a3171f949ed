"""Scalar oracle for setup STA (``repro.kernels.sta.run_sta_vector``).

Forward Kahn propagation of arrival times and reverse-topological
relaxation of required times, one net at a time with dict lookups: the
textbook reading that the levelized kernel behind
:func:`repro.timing.sta.run_sta` must reproduce bitwise.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.errors import TimingError
from repro.layout.layout import Layout
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import DelayCalculator
from repro.timing.sta import EndpointSlack, STAResult, _build_graph


def _run_sta(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional[object] = None,
    delay_calc: Optional[DelayCalculator] = None,
) -> STAResult:
    """Setup STA by per-net Kahn propagation with dict lookups."""
    dc = delay_calc or DelayCalculator(layout, routing)
    netlist = layout.netlist
    clock_nets = netlist.clock_nets()
    successors, indegree = _build_graph(netlist, clock_nets)

    arrival: Dict[str, float] = {}
    period = constraints.clock_period

    # --- sources ------------------------------------------------------- #
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
        wire = dc.wire_delay(net) if at_here is not None else 0.0
        for inst_name, in_pin, out_pin, out_net in successors[net_name]:
            if at_here is not None:
                cand = at_here + wire + dc.arc_delay(inst_name, in_pin, out_pin)
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
        at_pin = at + dc.wire_delay(d_net)
        req = period - constraints.ff_setup
        endpoints.append(
            EndpointSlack(kind="ff_d", name=inst.name, arrival=at_pin, required=req)
        )
        relax_required(d_net_name, req - dc.wire_delay(d_net))
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
        wire = dc.wire_delay(net)
        for inst_name, in_pin, out_pin, out_net in successors[net_name]:
            if out_net in required:
                arc = dc.arc_delay(inst_name, in_pin, out_pin)
                relax_required(net_name, required[out_net] - arc - wire)

    # Nets with no downstream constraint get the full period as required.
    for net_name in arrival:
        required.setdefault(net_name, period)

    return STAResult(
        arrival=arrival,
        required=required,
        endpoints=endpoints,
        constraints=constraints,
    )
