"""Implant impact from a target's base timing state, without a rebuild.

A successful attack's impact is the TNS and #DRC of the implanted design:
``run_sta(materialize_implant(...), constraints).tns`` and
``check_drc(materialize_implant(...)).count``.  Building that design
copies the netlist and re-places every cell, and timing it re-estimates
every net's parasitics.  :class:`ImplantImpact` returns the same two
numbers, bitwise, from state it builds once per target:

* **Timing.**  The base state is the cached timing structure of the
  target's netlist plus the per-net parasitics of the target's own
  ``run_sta`` call.  Of the design's timing nodes an implant changes only
  the tap net: more sink pins and a wider HPWL box.  The patch goes into
  copies of the wire and load arrays, the levelized forward pass of
  :mod:`repro.kernels.sta` reruns on them, and the Trojan chain is timed
  on top.  Endpoint slacks are summed in ``run_sta``'s order: flip-flop
  D pins in sequential-instance order (the Trojan's flip-flops last),
  then port endpoints in net order (the leak port last).
* **DRC.**  The placement row scan reruns on the rows the gates land in
  (their fillers deleted), then the hard-blockage hits in those rows.

Two details keep the sums bitwise equal to the oracle's.  The implanted
netlist is a :meth:`~repro.netlist.netlist.Netlist.copy`, which lists
each net's sink pins in instance order, so the base sink loads are summed
in that order.  Parasitics stay HPWL estimates: the oracle's ``run_sta``
has no routing either.  ``tests/security/test_implant_oracle.py`` checks
both numbers against the oracle with float ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.drc.checker import placement_drc_delta
from repro.geometry import Point
from repro.kernels.sta import (
    arc_delay,
    arc_variants,
    forward_arrivals,
    parasitic_arrays,
    timing_structure,
    wire_and_load,
)
from repro.layout.layout import Layout
from repro.layout.rows import RowOccupancy
from repro.security.trojan import ImplantWiring
from repro.tech.library import PinDirection
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import PORT_LOAD_FF, DelayCalculator, hpwl_parasitics

__all__ = ["ImplantImpact"]


class ImplantImpact:
    """TNS and #DRC of a target's implants, from its base timing state.

    Args:
        layout: The target layout (read, never mutated).
        constraints: Timing constraints the impact is measured under.
        dc: The calculator of the target's base ``run_sta`` call, whose
            cached parasitics are reused.
        base_drc: ``check_drc(layout).count``.
    """

    def __init__(
        self,
        layout: Layout,
        constraints: TimingConstraints,
        dc: DelayCalculator,
        base_drc: int,
    ) -> None:
        netlist = layout.netlist
        s = timing_structure(netlist)
        index = {name: i for i, name in enumerate(s.names)}
        # Sink-pin loads in the order the implanted copy lists sinks.
        pin_load = [0.0] * len(s.names)
        for inst in netlist.instances:
            for pin_name, net_name in inst.connections.items():
                pin = inst.master.pin(pin_name)
                timing = pin.timing
                if pin.direction is PinDirection.INPUT and timing is not None:
                    pin_load[index[net_name]] += timing.capacitance
        ports = np.array(
            [len(net.sink_ports) for net in netlist.nets], dtype=np.int64
        )
        r, c = parasitic_arrays(s, dc)

        self.layout = layout
        self._structure = s
        self._index = index
        self._pin_load = pin_load
        self._ports = ports
        self._wire, self._load = wire_and_load(
            r, c, np.array(pin_load) + PORT_LOAD_FF * ports
        )
        self._derate = dc.cell_derate
        self._input_delay = constraints.input_delay
        self._ff_req = constraints.clock_period - constraints.ff_setup
        self._port_req = constraints.clock_period - constraints.output_delay
        self._ff_d = np.array([d for _, d in s.ff_endpoints], dtype=np.int64)
        self._port_net = np.array(
            [i for i, names in s.port_endpoints for _ in names],
            dtype=np.int64,
        )
        self._clock_nets: Set[str] = netlist.clock_nets()
        self._base_drc = base_drc

    def measure(self, wiring: ImplantWiring) -> Tuple[float, int]:
        """(TNS, #DRC) of the design with ``wiring``'s implant in it.

        Raises:
            LayoutError: When a gate lands on a non-filler cell (the
                error :meth:`Layout.place` gives).
        """
        drc = self._base_drc + self._drc_delta(wiring)
        return self._tns(wiring), drc

    def _drc_delta(self, wiring: ImplantWiring) -> int:
        lib = self.layout.netlist.library
        deleted = set(wiring.fillers)
        rows: Dict[int, RowOccupancy] = {}
        for gate in wiring.gates:
            occ = rows.get(gate.row)
            if occ is None:
                occ = self.layout.occupancy[gate.row].copy()
                for cell in list(occ):
                    if cell.name in deleted:
                        occ.remove(cell.name, start_hint=cell.start)
                rows[gate.row] = occ
            occ.place(gate.name, gate.start, lib.cell(gate.master).width_sites)
        return placement_drc_delta(self.layout, rows)

    def _tns(self, wiring: ImplantWiring) -> float:
        layout = self.layout
        lib = layout.netlist.library
        tech = layout.technology
        derate = self._derate

        # Pin points and sink-pin loads the implant adds, per net, in
        # connection order.
        points: Dict[str, List[Point]] = {}
        caps: Dict[str, List[float]] = {}
        for gate, out_net in zip(wiring.gates, wiring.nets):
            master = lib.cell(gate.master)
            center = layout.span_rect(
                gate.row, gate.start, master.width_sites
            ).center
            points.setdefault(out_net, []).append(center)
            for pin_name, net_name in gate.inputs:
                points.setdefault(net_name, []).append(center)
                timing = master.pin(pin_name).timing
                if timing is not None:
                    caps.setdefault(net_name, []).append(timing.capacitance)
        points[wiring.nets[-1]].append(wiring.leak_position)

        # Parasitics and sink loads of the tap net, then of the Trojan
        # nets (the last one also feeds the leak port).
        tap = self._index[wiring.tap_net]
        net_points = [
            layout.net_pin_points(wiring.tap_net)
            + points.get(wiring.tap_net, [])
        ]
        net_csink = [
            # The base pin sum leads the list (0.0 + sum is exact).
            _sink_load(
                [self._pin_load[tap], *caps.get(wiring.tap_net, [])],
                int(self._ports[tap]),
            )
        ]
        for net_name in wiring.nets:
            net_points.append(points[net_name])
            net_csink.append(
                _sink_load(
                    caps.get(net_name, []), int(net_name == wiring.nets[-1])
                )
            )
        rc = np.array([hpwl_parasitics(tech, p) for p in net_points])
        net_wire, net_load = wire_and_load(
            rc[:, 0], rc[:, 1], np.array(net_csink)
        )

        wire = self._wire.copy()
        load = self._load.copy()
        wire[tap] = net_wire[0]
        load[tap] = net_load[0]
        at, _ = forward_arrivals(
            self._structure, wire, load, derate, self._input_delay
        )

        # The Trojan chain, gate by gate (each reads only earlier nets).
        chain: Dict[str, Tuple[float, float]] = {}

        def arrival(net_name: str) -> Tuple[float, float]:
            if net_name in chain:
                return chain[net_name]
            i = self._index[net_name]
            return float(at[i]), float(wire[i])

        dff_terms: List[float] = []
        for k, (gate, out_net) in enumerate(zip(wiring.gates, wiring.nets)):
            master = lib.cell(gate.master)
            out_load = float(net_load[k + 1])
            if master.is_sequential:
                out_at = arc_delay(
                    arc_variants(master, "CK", gate.outputs[0][0]),
                    out_load,
                    derate,
                )
                d_net = dict(gate.inputs).get("D")
                if d_net is not None and d_net not in self._clock_nets:
                    d_at, d_wire = arrival(d_net)
                    if d_at != -np.inf:
                        dff_terms.append(
                            min(0.0, self._ff_req - (d_at + d_wire))
                        )
            else:
                out_at = -np.inf
                for pin_name, net_name in gate.inputs:
                    if net_name in self._clock_nets:
                        continue
                    in_at, in_wire = arrival(net_name)
                    for out_pin, _ in gate.outputs:
                        delay = arc_delay(
                            arc_variants(master, pin_name, out_pin),
                            out_load,
                            derate,
                        )
                        out_at = max(out_at, (in_at + in_wire) + delay)
            chain[out_net] = (out_at, float(net_wire[k + 1]))

        # Endpoint slacks in run_sta's order.
        ff_at = at[self._ff_d]
        reached = ff_at != -np.inf
        ff_terms = np.minimum(
            self._ff_req - (ff_at[reached] + wire[self._ff_d][reached]), 0.0
        )
        port_at = at[self._port_net]
        port_terms = np.minimum(
            self._port_req - port_at[port_at != -np.inf], 0.0
        )
        leak_at = chain[wiring.nets[-1]][0]
        leak_terms = (
            [min(0.0, self._port_req - leak_at)] if leak_at != -np.inf else []
        )
        return sum(
            ff_terms.tolist() + dff_terms + port_terms.tolist() + leak_terms
        )


def _sink_load(caps: List[float], ports: int) -> float:
    """A net's sink load: pin loads summed in order, then its ports."""
    total = 0.0
    for cap in caps:
        total += cap
    return total + PORT_LOAD_FF * ports
