"""One pin table per netlist: pin connectivity as flat instance indices.

Pin-geometry reads (a net's pin points, a cell's connected median) walk
the same connectivity over and over.  The :class:`PinTable` lists it once
per netlist as integers:

* instances are numbered in netlist insertion order (``names``/``index``);
* each net keeps the indices of its pin instances, the driver pin first
  and then the sinks in connection order, with its ports kept apart;
* each instance keeps its distinct nets, once each however many of its
  pins sit on one net;
* every net's pin points, ports included, sit in one flat slot array
  (:meth:`PinTable.net_slots`), the router's route-plan input.

:class:`~repro.layout.layout.Layout` keeps every instance's centre in
flat lists under the same indices, so a read is a list gather instead of
a ``Rect`` and a ``Point`` per pin.

A netlist only ever appends instances, so an index never moves: a table
rebuilt after the netlist changed numbers the old instances exactly as
before, and a layout's position lists stay valid by growing at the tail.

Tables are cached in a weak map keyed on the netlist and rebuilt when its
``mod_count`` moves, like :func:`repro.kernels.sta.timing_structure`.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.netlist.netlist import Netlist


class PinTable:
    """Connectivity of one netlist as instance and net indices.

    Attributes:
        mod_count: The netlist's ``mod_count`` the net lists describe.
        names: Instance names by index (netlist insertion order).
        index: Instance name → index.
        net_index: Net name → net index (netlist order).
        net_pins: Per net, the index of each pin's instance: the driver
            pin first when an instance drives the net, then the sink pins
            in connection order.
        net_driver_port: Per net, the input port driving it, if any.  A
            net has one driver (``Netlist.connect`` and ``connect_port``
            refuse a second), so a port-driven net has no driver pin.
        net_sink_ports: Per net, the output ports it feeds.
        net_sinks: Per net, its sink count (pins plus ports).
        inst_nets: Per instance, its distinct net indices.
        fillers: Names of the filler instances, whose sites an attacker
            may take (Definition 2.2 counts them as exploitable).
    """

    __slots__ = (
        "mod_count", "names", "index", "net_index", "net_pins",
        "net_driver_port", "net_sink_ports", "net_sinks", "inst_nets",
        "fillers", "_slots",
    )

    def __init__(self, netlist: Netlist) -> None:
        self.mod_count = netlist.mod_count
        self.names: List[str] = netlist.instance_names()
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        index = self.index
        self.net_index: Dict[str, int] = {}
        self.net_pins: List[Tuple[int, ...]] = []
        self.net_driver_port: List[Optional[str]] = []
        self.net_sink_ports: List[Tuple[str, ...]] = []
        self.net_sinks: List[int] = []
        for k, net in enumerate(netlist.nets):
            self.net_index[net.name] = k
            sinks = [index[ref.instance] for ref in net.sink_pins]
            sink_ports = tuple(net.sink_ports)
            self.net_sinks.append(len(sinks) + len(sink_ports))
            if net.driver_pin is not None:
                sinks.insert(0, index[net.driver_pin.instance])
            self.net_pins.append(tuple(sinks))
            self.net_driver_port.append(net.driver_port)
            self.net_sink_ports.append(sink_ports)
        net_index = self.net_index
        self.inst_nets: List[Tuple[int, ...]] = [
            tuple(
                dict.fromkeys(
                    net_index[net] for net in inst.connections.values()
                )
            )
            for inst in netlist.instances
        ]
        self.fillers: FrozenSet[str] = frozenset(
            inst.name for inst in netlist.instances if inst.is_filler
        )
        self._slots: Optional[Tuple[np.ndarray, np.ndarray, List[str]]] = None

    def net_slots(self) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Every net's pin points as flat slots, the offsets and the ports.

        Net ``k`` owns ``slots[offsets[k]:offsets[k + 1]]``, in the order
        of :meth:`~repro.layout.layout.Layout.net_pin_points`: its driving
        port, its pin instances (:attr:`net_pins`), then its sink ports.
        An instance slot is the instance's index, a port slot ``~j``
        (``-1 - j``) for port ``ports[j]``.  Built on the first call.
        """
        if self._slots is None:
            port_slot: Dict[str, int] = {}

            def port(name: str) -> int:
                return port_slot.setdefault(name, ~len(port_slot))

            slots: List[int] = []
            counts: List[int] = []
            for driver, pins, sink_ports in zip(
                self.net_driver_port, self.net_pins, self.net_sink_ports
            ):
                start = len(slots)
                if driver is not None:
                    slots.append(port(driver))
                slots.extend(pins)
                slots.extend(map(port, sink_ports))
                counts.append(len(slots) - start)
            offsets = np.zeros(len(counts) + 1, dtype=np.intp)
            np.cumsum(counts, out=offsets[1:])
            self._slots = (
                np.array(slots, dtype=np.intp), offsets, list(port_slot)
            )
        return self._slots

    def number_new_instances(self, netlist: Netlist) -> None:
        """Index the instances appended to ``netlist`` since the build.

        Only ``names`` and ``index`` grow; the net lists keep describing
        the netlist at :attr:`mod_count`, so :func:`pin_table` still
        rebuilds the table on its next call.
        """
        for inst in itertools.islice(netlist.instances, len(self.names), None):
            self.index[inst.name] = len(self.names)
            self.names.append(inst.name)


_TABLES: "weakref.WeakKeyDictionary[Netlist, PinTable]" = (
    weakref.WeakKeyDictionary()
)


def pin_table(netlist: Netlist) -> PinTable:
    """The pin table of ``netlist`` (cached per ``mod_count``)."""
    table = _TABLES.get(netlist)
    if table is None or table.mod_count != netlist.mod_count:
        table = PinTable(netlist)
        _TABLES[netlist] = table
    return table


def instance_indices(netlist: Netlist) -> Dict[str, int]:
    """Name → index of every instance of ``netlist``, without a rebuild.

    An index never moves, so a table built before the netlist last
    changed still answers for every instance it numbered; instances
    appended since are numbered here, in place.  Placing cells one by one
    while the netlist grows (fillers, implants) therefore costs no table
    rebuild per cell, and a map returned earlier stays valid.
    """
    table = _TABLES.get(netlist)
    if table is None:
        table = pin_table(netlist)
    if len(table.names) < netlist.num_instances:
        table.number_new_instances(netlist)
    return table.index
