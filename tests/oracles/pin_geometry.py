"""Object-path oracle for the pin-table geometry reads.

Before the pin table, both reads walked the netlist's ``Net`` and
``PinRef`` objects and derived each pin's position as the centre of its
cell box, ``span_rect(row, start, width).center``: a ``Rect`` and a
``Point`` per pin.  :meth:`~repro.layout.layout.Layout.net_pin_points`
and :func:`~repro.place.eco_place.connected_median` read the layout's
position lists instead, and must equal these readings with float ``==``.
"""

from __future__ import annotations

from statistics import median
from typing import List, Optional

from repro.geometry import Point
from repro.layout.layout import Layout


def cell_center(layout: Layout, instance_name: str) -> Point:
    """Centre of the instance's cell box."""
    pl = layout.placement(instance_name)
    inst = layout.netlist.instance(instance_name)
    return layout.span_rect(pl.row, pl.start, inst.width_sites).center


def net_pin_points(layout: Layout, net_name: str) -> List[Point]:
    """Driver pin, driving port, sink pins, sink ports (positioned only)."""
    net = layout.netlist.net(net_name)
    points: List[Point] = []
    if net.driver_pin is not None:
        points.append(cell_center(layout, net.driver_pin.instance))
    if net.driver_port is not None and net.driver_port in layout.port_positions:
        points.append(layout.port_positions[net.driver_port])
    for ref in net.sink_pins:
        points.append(cell_center(layout, ref.instance))
    for port in net.sink_ports:
        if port in layout.port_positions:
            points.append(layout.port_positions[port])
    return points


def connected_median(layout: Layout, instance_name: str) -> Optional[Point]:
    """Median x and y over the pins of the instance's distinct nets."""
    inst = layout.netlist.instance(instance_name)
    xs: List[float] = []
    ys: List[float] = []
    for net_name in set(inst.connections.values()):
        for p in net_pin_points(layout, net_name):
            xs.append(p.x)
            ys.append(p.y)
    if not xs:
        return None
    return Point(median(xs), median(ys))
