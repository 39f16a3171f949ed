"""Wire parasitics and corner derates, the inputs of the delay model.

Wire parasitics come from the router when a :class:`RoutingResult` is
available; otherwise they are estimated from net HPWL with mid-stack layer
constants (the standard pre-route estimate).  The delay model itself —
sink loads, lumped-Elmore wire delays and cell arc delays — is the
levelized STA kernel's (:mod:`repro.kernels.sta`).  All delays are in ns,
capacitance in fF, resistance in Ω.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.geometry import Point, half_perimeter_wirelength
from repro.layout.layout import Layout
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
    """Per-net wire parasitics and the corner derates of one analysis.

    ``cell_derate`` / ``wire_derate`` scale the cell arc delays and wire
    RC respectively — the lever multi-corner (MMMC) analysis uses to model
    slow/fast silicon and interconnect corners.  Loads, wire delays and
    arc delays are computed from these by the levelized STA kernel
    (:mod:`repro.kernels.sta`).  Parasitics are cached per net, so a
    calculator belongs to one placement and one routing.
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
