"""Delay calculation: cell arcs plus lumped-Elmore wire delays.

Wire parasitics come from the router when a :class:`RoutingResult` is
available; otherwise they are estimated from net HPWL with mid-stack layer
constants (the standard pre-route estimate).  All delays are in ns,
capacitance in fF, resistance in Ω.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.geometry import Point, half_perimeter_wirelength
from repro.layout.layout import Layout
from repro.netlist.netlist import Net
from repro.tech.technology import Technology

#: Capacitive load presented by an output port (pad driver input), fF.
PORT_LOAD_FF = 2.0

#: Layer used for pre-route parasitic estimates (mid stack).
_ESTIMATE_LAYER = 5


def estimate_parasitics(layout: Layout, net_name: str) -> Tuple[float, float]:
    """Pre-route (R, C) of a net from its HPWL and mid-layer constants."""
    return hpwl_parasitics(layout.technology, layout.net_pin_points(net_name))


def hpwl_parasitics(
    technology: Technology, points: Sequence[Point]
) -> Tuple[float, float]:
    """Pre-route (R, C) of a wire joining ``points``: HPWL × layer constants."""
    length = half_perimeter_wirelength(points)
    layer = technology.layer(min(_ESTIMATE_LAYER, technology.num_layers))
    return (length * layer.unit_resistance, length * layer.unit_capacitance)


class DelayCalculator:
    """Computes net loads, wire delays, and cell arc delays for a layout.

    ``cell_derate`` / ``wire_derate`` scale the cell arc delays and wire
    RC respectively — the lever multi-corner (MMMC) analysis uses to model
    slow/fast silicon and interconnect corners.
    """

    def __init__(
        self,
        layout: Layout,
        routing: Optional[object] = None,
        cell_derate: float = 1.0,
        wire_derate: float = 1.0,
    ) -> None:
        self.layout = layout
        self.routing = routing  # RoutingResult or None
        self.cell_derate = cell_derate
        self.wire_derate = wire_derate
        self._parasitics_cache: Dict[str, Tuple[float, float]] = {}

    def net_parasitics(self, net_name: str) -> Tuple[float, float]:
        """(R Ω, C fF) of the net, routed if possible, estimated otherwise."""
        cached = self._parasitics_cache.get(net_name)
        if cached is not None:
            return cached
        value: Tuple[float, float]
        if self.routing is not None:
            r, c = self.routing.net_parasitics(net_name)
            if r == 0.0 and c == 0.0:
                value = estimate_parasitics(self.layout, net_name)
            else:
                value = (r, c)
        else:
            value = estimate_parasitics(self.layout, net_name)
        if self.wire_derate != 1.0:
            value = (value[0] * self.wire_derate, value[1] * self.wire_derate)
        self._parasitics_cache[net_name] = value
        return value

    def sink_pin_load(self, net: Net) -> float:
        """Total input-pin capacitance hanging on the net (fF)."""
        total = 0.0
        netlist = self.layout.netlist
        for ref in net.sink_pins:
            inst = netlist.instance(ref.instance)
            pin = inst.master.pin(ref.pin)
            if pin.timing is not None:
                total += pin.timing.capacitance
        total += PORT_LOAD_FF * len(net.sink_ports)
        return total

    def net_load(self, net: Net) -> float:
        """Total load seen by the net's driver: wire C plus pin caps (fF)."""
        _, c_wire = self.net_parasitics(net.name)
        return c_wire + self.sink_pin_load(net)

    def wire_delay(self, net: Net) -> float:
        """Lumped Elmore delay of the net (ns): R·(C_wire/2 + C_sinks).

        R is in Ω and C in fF, so R·C is in 1e-6 ns; the 1e-6 factor
        converts to ns.
        """
        r_wire, c_wire = self.net_parasitics(net.name)
        c_sinks = self.sink_pin_load(net)
        return r_wire * (c_wire / 2.0 + c_sinks) * 1e-6

    def arc_delay(self, instance_name: str, from_pin: str, to_pin: str) -> float:
        """Delay of one cell arc given the load of its output net (ns)."""
        inst = self.layout.netlist.instance(instance_name)
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
            load = self.net_load(self.layout.netlist.net(out_net_name))
        return max(a.delay(load) for a in arcs) * self.cell_derate

    def invalidate(self, net_name: Optional[str] = None) -> None:
        """Drop cached parasitics (all, or for one net) after layout edits."""
        if net_name is None:
            self._parasitics_cache.clear()
        else:
            self._parasitics_cache.pop(net_name, None)
