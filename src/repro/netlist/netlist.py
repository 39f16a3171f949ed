"""Gate-level structural netlist: instances, nets, ports.

The netlist is the *logical* view of a design; placement lives in
:mod:`repro.layout`.  A :class:`Net` connects exactly one driver (an
instance output pin or an input port) to any number of sinks (instance
input pins or output ports).  The GDSII-Guard threat model forbids the
attacker from modifying existing connectivity, so the netlist object keeps
an explicit modification counter that layout operators assert unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import NetlistError
from repro.tech.library import CellLibrary, PinDirection, StdCell


class PortDirection(enum.Enum):
    """Direction of a top-level port."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Port:
    """A top-level I/O port of the design."""

    name: str
    direction: PortDirection
    is_clock: bool = False


@dataclass(frozen=True)
class PinRef:
    """A reference to one instance pin: ``(instance_name, pin_name)``."""

    instance: str
    pin: str

    def __str__(self) -> str:
        return f"{self.instance}/{self.pin}"


class Net:
    """A signal net: one driver, many sinks.

    Attributes:
        name: Net name, unique within the netlist.
        driver_pin: Driving instance pin, if driven by an instance.
        driver_port: Driving input port, if driven from the boundary.
        sink_pins: Instance input pins listening to the net.
        sink_ports: Output ports listening to the net.
    """

    __slots__ = ("name", "driver_pin", "driver_port", "sink_pins", "sink_ports")

    def __init__(self, name: str) -> None:
        self.name = name
        self.driver_pin: Optional[PinRef] = None
        self.driver_port: Optional[str] = None
        self.sink_pins: List[PinRef] = []
        self.sink_ports: List[str] = []

    @property
    def has_driver(self) -> bool:
        """Whether the net has any driver."""
        return self.driver_pin is not None or self.driver_port is not None

    @property
    def num_sinks(self) -> int:
        """Total number of sinks (pins plus ports)."""
        return len(self.sink_pins) + len(self.sink_ports)

    @property
    def fanout(self) -> int:
        """Alias for :attr:`num_sinks`."""
        return self.num_sinks

    def __repr__(self) -> str:
        return f"Net({self.name!r}, driver={self.driver_pin or self.driver_port}, fanout={self.fanout})"


class Instance:
    """A placed-or-placeable occurrence of a standard-cell master.

    Attributes:
        name: Instance name, unique within the netlist.
        master: The :class:`~repro.tech.library.StdCell` this instantiates.
        connections: Pin name → net name for every connected pin.

    Whether an instance may be moved by placement operators is a *layout*
    property (see :attr:`repro.layout.Layout.fixed`), not a netlist one.
    """

    __slots__ = ("name", "master", "connections")

    def __init__(self, name: str, master: StdCell) -> None:
        self.name = name
        self.master = master
        self.connections: Dict[str, str] = {}

    @property
    def is_sequential(self) -> bool:
        """Whether the master is a flip-flop/latch."""
        return self.master.is_sequential

    @property
    def is_filler(self) -> bool:
        """Whether the master is a non-functional filler."""
        return self.master.is_filler

    @property
    def width_sites(self) -> int:
        """Master width in placement sites."""
        return self.master.width_sites

    def __repr__(self) -> str:
        return f"Instance({self.name!r}, {self.master.name})"


class Netlist:
    """A flat gate-level netlist.

    Construction is incremental: add ports, add instances, create nets,
    connect pins.  :meth:`validate` checks global consistency; generators
    and readers call it before handing the netlist to the layout substrate.
    """

    def __init__(self, name: str, library: CellLibrary) -> None:
        self.name = name
        self.library = library
        self._instances: Dict[str, Instance] = {}
        self._nets: Dict[str, Net] = {}
        self._ports: Dict[str, Port] = {}
        #: bumped on every structural mutation; layout operators assert
        #: this is unchanged to enforce the threat model's "no netlist
        #: modification" rule.
        self.mod_count = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_port(self, name: str, direction: PortDirection, is_clock: bool = False) -> Port:
        """Declare a top-level port."""
        if name in self._ports:
            raise NetlistError(f"duplicate port {name!r}")
        port = Port(name=name, direction=direction, is_clock=is_clock)
        self._ports[name] = port
        self.mod_count += 1
        return port

    def add_instance(self, name: str, master: str | StdCell) -> Instance:
        """Instantiate ``master`` (by name or object) as ``name``."""
        if name in self._instances:
            raise NetlistError(f"duplicate instance {name!r}")
        cell = master if isinstance(master, StdCell) else self.library.cell(master)
        inst = Instance(name, cell)
        self._instances[name] = inst
        self.mod_count += 1
        return inst

    def add_net(self, name: str) -> Net:
        """Create an empty net."""
        if name in self._nets:
            raise NetlistError(f"duplicate net {name!r}")
        net = Net(name)
        self._nets[name] = net
        self.mod_count += 1
        return net

    def connect(self, instance_name: str, pin_name: str, net_name: str) -> None:
        """Attach instance pin to net, respecting pin direction."""
        inst = self.instance(instance_name)
        net = self.net(net_name)
        pin = inst.master.pin(pin_name)
        if pin_name in inst.connections:
            raise NetlistError(f"pin {instance_name}/{pin_name} already connected")
        ref = PinRef(instance_name, pin_name)
        if pin.direction is PinDirection.OUTPUT:
            if net.has_driver:
                raise NetlistError(
                    f"net {net_name!r} already driven; cannot add driver {ref}"
                )
            net.driver_pin = ref
        else:
            net.sink_pins.append(ref)
        inst.connections[pin_name] = net_name
        self.mod_count += 1

    def connect_port(self, port_name: str, net_name: str) -> None:
        """Attach a top-level port to a net."""
        port = self.port(port_name)
        net = self.net(net_name)
        if port.direction is PortDirection.INPUT:
            if net.has_driver:
                raise NetlistError(
                    f"net {net_name!r} already driven; cannot add port {port_name}"
                )
            net.driver_port = port_name
        else:
            net.sink_ports.append(port_name)
        self.mod_count += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def instance(self, name: str) -> Instance:
        """Look up an instance by name."""
        try:
            return self._instances[name]
        except KeyError:
            raise NetlistError(f"unknown instance {name!r}") from None

    def net(self, name: str) -> Net:
        """Look up a net by name."""
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(f"unknown net {name!r}") from None

    def port(self, name: str) -> Port:
        """Look up a port by name."""
        try:
            return self._ports[name]
        except KeyError:
            raise NetlistError(f"unknown port {name!r}") from None

    def has_instance(self, name: str) -> bool:
        """Whether an instance called ``name`` exists."""
        return name in self._instances

    @property
    def instances(self) -> Iterator[Instance]:
        """Iterate over all instances."""
        return iter(self._instances.values())

    @property
    def nets(self) -> Iterator[Net]:
        """Iterate over all nets."""
        return iter(self._nets.values())

    @property
    def ports(self) -> Iterator[Port]:
        """Iterate over all ports."""
        return iter(self._ports.values())

    @property
    def num_instances(self) -> int:
        """Number of instances."""
        return len(self._instances)

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self._nets)

    @property
    def num_ports(self) -> int:
        """Number of ports."""
        return len(self._ports)

    def instance_names(self) -> List[str]:
        """All instance names, in insertion order."""
        return list(self._instances.keys())

    def sequential_instances(self) -> List[Instance]:
        """All flip-flop/latch instances."""
        return [i for i in self._instances.values() if i.is_sequential]

    def functional_instances(self) -> List[Instance]:
        """All non-filler instances."""
        return [i for i in self._instances.values() if not i.is_filler]

    def clock_nets(self) -> Set[str]:
        """Names of nets driven by clock input ports."""
        result: Set[str] = set()
        for net in self._nets.values():
            if net.driver_port is not None and self._ports[net.driver_port].is_clock:
                result.add(net.name)
        return result

    def fanin_instances(self, instance_name: str) -> List[str]:
        """Names of instances driving the inputs of ``instance_name``."""
        inst = self.instance(instance_name)
        result: List[str] = []
        for pin_name, net_name in inst.connections.items():
            if inst.master.pin(pin_name).direction is PinDirection.INPUT:
                drv = self._nets[net_name].driver_pin
                if drv is not None:
                    result.append(drv.instance)
        return result

    def fanout_instances(self, instance_name: str) -> List[str]:
        """Names of instances fed by the outputs of ``instance_name``."""
        inst = self.instance(instance_name)
        result: List[str] = []
        for pin_name, net_name in inst.connections.items():
            if inst.master.pin(pin_name).direction is PinDirection.OUTPUT:
                for sink in self._nets[net_name].sink_pins:
                    result.append(sink.instance)
        return result

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check global consistency; raise :class:`NetlistError` on failure.

        Rules: every net has a driver and at least one sink (single-pin
        nets are malformed), every functional instance has all pins
        connected, and every referenced name resolves.
        """
        for net in self._nets.values():
            if not net.has_driver:
                raise NetlistError(f"net {net.name!r} has no driver")
            if net.num_sinks == 0:
                raise NetlistError(f"net {net.name!r} has no sinks")
            for ref in [net.driver_pin, *net.sink_pins]:
                if ref is None:
                    continue
                if ref.instance not in self._instances:
                    raise NetlistError(f"net {net.name!r} references {ref}")
        for inst in self._instances.values():
            if inst.is_filler:
                continue
            for pin in inst.master.pins:
                if pin.name not in inst.connections:
                    raise NetlistError(
                        f"instance {inst.name!r} pin {pin.name!r} unconnected"
                    )

    def copy(self) -> "Netlist":
        """Deep structural copy (shared library, fresh everything else).

        Used by design-time defenses (BISA/Ba) that legitimately append
        logic: they extend a *copy*, leaving the original design intact.
        """
        other = Netlist(self.name, self.library)
        for port in self._ports.values():
            other.add_port(port.name, port.direction, is_clock=port.is_clock)
        for net in self._nets.values():
            other.add_net(net.name)
        for inst in self._instances.values():
            other.add_instance(inst.name, inst.master)
        for inst in self._instances.values():
            for pin_name, net_name in inst.connections.items():
                other.connect(inst.name, pin_name, net_name)
        for net in self._nets.values():
            if net.driver_port is not None:
                other.connect_port(net.driver_port, net.name)
            for port_name in net.sink_ports:
                other.connect_port(port_name, net.name)
        return other

    def signature(self) -> Tuple[int, int, int, int]:
        """A cheap structural fingerprint: (insts, nets, ports, mod_count).

        Layout operators snapshot this before and after to prove they did
        not touch the logical design.
        """
        return (len(self._instances), len(self._nets), len(self._ports), self.mod_count)
