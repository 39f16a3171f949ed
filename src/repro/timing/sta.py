"""Graph-based static timing analysis.

Nets are the timing nodes (every net has exactly one driver).  Sources are
data input ports and flip-flop Q outputs; endpoints are flip-flop D pins
and data output ports.  A forward topological pass computes arrival times,
a backward pass computes required times; endpoint slacks give WNS and TNS
— the paper's timing objective (``min -TNS``).

Clock pins do not propagate data; the clock is ideal (zero skew/latency).
Combinational loops raise :class:`~repro.errors.TimingError`.

:class:`IncrementalSTA` keeps the full timing state of one layout and,
given a new routing/placement state, re-propagates only the fan-in/fan-out
cones of the nets whose parasitics changed — returning results bitwise
equal to a fresh :func:`run_sta` (arrival is an order-independent max and
required an order-independent min, recomputed with the same formulas).
"""

from __future__ import annotations

import heapq
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
    """Delta-STA: full state of one layout, updated cone-by-cone.

    The netlist (hence the timing graph) is immutable across flow
    evaluations — only wire parasitics change, through re-routing or cell
    movement.  Every timing quantity is a function of per-net parasitics
    (wire delay directly; arc delays through the load of the arc's output
    net; flip-flop launch arcs through the load of the Q net), so an
    update (a) diffs the new effective parasitics of every net against the
    cached ones, (b) re-propagates arrivals forward from the dirty nets
    and their successors, stopping where values stop changing, and (c)
    re-relaxes required times backward from the dirty nets and their
    predecessors.  Membership of the arrival/required maps is structural
    (it never changes), endpoint slots keep the full run's order, and the
    recomputed floats use the same expressions on the same
    :class:`~repro.timing.delay.DelayCalculator` values — so
    :meth:`update` is **bitwise equal** to :func:`run_sta` on the new
    state, not merely close.
    """

    def __init__(
        self,
        layout: Layout,
        constraints: TimingConstraints,
        routing: Optional[object] = None,
    ) -> None:
        self.layout = layout
        self.constraints = constraints
        netlist = layout.netlist
        self._clock_nets = netlist.clock_nets()
        self._successors, indegree = _build_graph(netlist, self._clock_nets)

        # In-arcs per net node: out_net -> [(inst, in_pin, out_pin, in_net)].
        self._predecessors: Dict[str, List[Tuple[str, str, str, str]]] = {
            name: [] for name in self._successors
        }
        for in_net, arcs in self._successors.items():
            for inst, in_pin, out_pin, out_net in arcs:
                self._predecessors[out_net].append(
                    (inst, in_pin, out_pin, in_net)
                )

        # Forward topological order over the data nets.
        order: List[str] = []
        indeg = dict(indegree)
        queue = deque(
            n for n, d in indeg.items()
            if d == 0 and n not in self._clock_nets
        )
        while queue:
            net_name = queue.popleft()
            order.append(net_name)
            for _, _, _, out_net in self._successors[net_name]:
                indeg[out_net] -= 1
                if indeg[out_net] == 0:
                    queue.append(out_net)
        data_nodes = sum(1 for n in indegree if n not in self._clock_nets)
        if len(order) < data_nodes:
            raise TimingError(
                f"combinational loop: {data_nodes - len(order)} nets unreachable"
            )
        self._topo = order
        self._topo_pos = {n: i for i, n in enumerate(order)}

        # Source classification: ("port", None) or ("ffq", (inst, pin)).
        self._sources: Dict[str, Tuple[str, Optional[Tuple[str, str]]]] = {}
        for net in netlist.nets:
            if net.name in self._clock_nets:
                continue
            if net.driver_port is not None:
                self._sources[net.name] = ("port", None)
            elif net.driver_pin is not None:
                drv = netlist.instance(net.driver_pin.instance)
                if drv.is_sequential:
                    self._sources[net.name] = (
                        "ffq", (drv.name, net.driver_pin.pin)
                    )

        period = constraints.clock_period
        self._ff_req = period - constraints.ff_setup
        self._port_req = period - constraints.output_delay

        # Full analysis (the oracle) seeds the state; a shared calculator
        # keeps its parasitics cache as this update's baseline.
        dc = DelayCalculator(layout, routing)
        full = run_sta(layout, constraints, routing, dc)
        self._arrival: Dict[str, float] = dict(full.arrival)
        self._parasitics: Dict[str, Tuple[float, float]] = {
            n: dc.net_parasitics(n) for n in self._topo
        }

        # Endpoint slots in the full run's order (FF D's in sequential-
        # instance order, then port sinks in net order), filtered to nets
        # with an arrival — structural, so the slot list is fixed.
        self._slots: List[Tuple[str, str, str]] = []
        self._has_ff_endpoint: Set[str] = set()
        self._has_port_endpoint: Set[str] = set()
        for inst in netlist.sequential_instances():
            d = inst.connections.get("D")
            if d is None or d in self._clock_nets or d not in self._arrival:
                continue
            self._slots.append(("ff_d", inst.name, d))
            self._has_ff_endpoint.add(d)
        for net in netlist.nets:
            if not net.sink_ports or net.name not in self._arrival:
                continue
            for port_name in net.sink_ports:
                self._slots.append(("port", port_name, net.name))
            self._has_port_endpoint.add(net.name)
        self._endpoints: List[EndpointSlack] = list(full.endpoints)

        # Split required into the relax-derived ("raw") part — whose
        # membership is the backward closure of the endpoint nets — and
        # the static period fill for unconstrained arrival nets.
        raw_keys = set(self._has_ff_endpoint) | set(self._has_port_endpoint)
        stack = list(raw_keys)
        while stack:
            n = stack.pop()
            for _, _, _, in_net in self._predecessors[n]:
                if in_net not in raw_keys:
                    raw_keys.add(in_net)
                    stack.append(in_net)
        self._raw: Dict[str, float] = {
            n: full.required[n] for n in raw_keys
        }
        self._fill: Dict[str, float] = {
            n: period for n in self._arrival if n not in raw_keys
        }
        self.result = full

    # ------------------------------------------------------------------ #

    def _compute_arrival(
        self, name: str, dc: DelayCalculator
    ) -> Optional[float]:
        netlist = self.layout.netlist
        best: Optional[float] = None
        src = self._sources.get(name)
        if src is not None:
            kind, info = src
            if kind == "port":
                best = self.constraints.input_delay
            else:
                inst, pin = info  # type: ignore[misc]
                best = dc.arc_delay(inst, "CK", pin)
        for inst, in_pin, out_pin, in_net in self._predecessors[name]:
            at = self._arrival.get(in_net)
            if at is None:
                continue
            cand = (
                at
                + dc.wire_delay(netlist.net(in_net))
                + dc.arc_delay(inst, in_pin, out_pin)
            )
            if best is None or cand > best:
                best = cand
        return best

    def _compute_raw(self, name: str, dc: DelayCalculator) -> Optional[float]:
        netlist = self.layout.netlist
        wire = dc.wire_delay(netlist.net(name))
        best: Optional[float] = None
        if name in self._has_ff_endpoint:
            best = self._ff_req - wire
        if name in self._has_port_endpoint:
            if best is None or self._port_req < best:
                best = self._port_req
        for inst, in_pin, out_pin, out_net in self._successors[name]:
            out_req = self._raw.get(out_net)
            if out_req is None:
                continue
            cand = out_req - dc.arc_delay(inst, in_pin, out_pin) - wire
            if best is None or cand < best:
                best = cand
        return best

    def update(
        self,
        routing: Optional[object] = None,
        layout: Optional[Layout] = None,
    ) -> STAResult:
        """Re-analyze against a new routing (and/or layout) state.

        Args:
            routing: The new :class:`~repro.route.router.RoutingResult`
                (or ``None`` for estimate-only parasitics).
            layout: The new layout state when cells moved; must share the
                netlist of the original layout.  Defaults to the current.

        Returns:
            An :class:`STAResult` equal to ``run_sta`` on the new state.
        """
        with obs.timed("sta.incremental"):
            result = self._update(routing, layout)
        self.result = result
        return result

    def _update(
        self, routing: Optional[object], layout: Optional[Layout]
    ) -> STAResult:
        if layout is not None:
            self.layout = layout
        dc = DelayCalculator(self.layout, routing)

        # (a) dirty nets: effective parasitics changed.  This covers every
        # timing input — wire delays, arc loads, and FF launch arcs are
        # all functions of per-net (R, C).
        dirty: Set[str] = set()
        parasitics: Dict[str, Tuple[float, float]] = {}
        old_par = self._parasitics
        for name in self._topo:
            value = dc.net_parasitics(name)
            parasitics[name] = value
            if value != old_par.get(name):
                dirty.add(name)
        self._parasitics = parasitics

        # (b) forward: recompute arrivals of dirty nets and their direct
        # successors; ripple further only where a value changed.  The heap
        # pops in topological order, so every net is finalized before any
        # of its successors is examined.
        changed: Set[str] = set()
        recomputed = 0
        pending: Set[str] = set(dirty)
        for name in dirty:
            for _, _, _, out_net in self._successors[name]:
                pending.add(out_net)
        heap = [self._topo_pos[n] for n in pending]
        heapq.heapify(heap)
        while heap:
            name = self._topo[heapq.heappop(heap)]
            pending.discard(name)
            recomputed += 1
            new_val = self._compute_arrival(name, dc)
            if new_val is None:
                continue  # structurally unreachable: was and stays absent
            if new_val != self._arrival.get(name):
                self._arrival[name] = new_val
                changed.add(name)
                for _, _, _, out_net in self._successors[name]:
                    if out_net not in pending:
                        pending.add(out_net)
                        heapq.heappush(heap, self._topo_pos[out_net])

        # (c) backward: required times of dirty nets and their direct
        # predecessors (the arcs *into* a dirty net load against it).
        raw_recomputed = 0
        raw_pending: Set[str] = {n for n in dirty if n in self._raw}
        for name in dirty:
            for _, _, _, in_net in self._predecessors[name]:
                if in_net in self._raw:
                    raw_pending.add(in_net)
        heap = [-self._topo_pos[n] for n in raw_pending]
        heapq.heapify(heap)
        while heap:
            name = self._topo[-heapq.heappop(heap)]
            raw_pending.discard(name)
            raw_recomputed += 1
            new_val = self._compute_raw(name, dc)
            if new_val is None:
                continue
            if new_val != self._raw.get(name):
                self._raw[name] = new_val
                for _, _, _, in_net in self._predecessors[name]:
                    if in_net in self._raw and in_net not in raw_pending:
                        raw_pending.add(in_net)
                        heapq.heappush(heap, -self._topo_pos[in_net])

        # (d) endpoint slots whose net's arrival or wire delay changed.
        netlist = self.layout.netlist
        for i, (kind, name, net_name) in enumerate(self._slots):
            if net_name not in dirty and net_name not in changed:
                continue
            at = self._arrival[net_name]
            if kind == "ff_d":
                at_pin = at + dc.wire_delay(netlist.net(net_name))
                self._endpoints[i] = EndpointSlack(
                    kind="ff_d", name=name, arrival=at_pin,
                    required=self._ff_req,
                )
            else:
                self._endpoints[i] = EndpointSlack(
                    kind="port", name=name, arrival=at,
                    required=self._port_req,
                )

        if obs.is_enabled():
            obs.count("sta.incremental.updates")
            obs.count("sta.incremental.dirty_nets", len(dirty))
            obs.count("sta.incremental.cone_nets", recomputed + raw_recomputed)
            obs.observe(
                "sta.incremental.cone_fraction",
                (recomputed + raw_recomputed) / max(2 * len(self._topo), 1),
            )
        required = dict(self._raw)
        required.update(self._fill)
        return STAResult(
            arrival=dict(self._arrival),
            required=required,
            endpoints=list(self._endpoints),
            constraints=self.constraints,
        )
