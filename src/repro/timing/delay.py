"""The constants of the delay model and the corners it derates by.

Wire parasitics come from the router when a :class:`RoutingResult` is
available; otherwise they are estimated from net HPWL with mid-stack layer
constants (the standard pre-route estimate).  Both, and the delay model
itself — sink loads, lumped-Elmore wire delays and cell arc delays — are
the levelized STA kernel's (:mod:`repro.kernels.sta`).  All delays are in
ns, capacitance in fF, resistance in Ω.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Capacitive load presented by an output port (pad driver input), fF.
PORT_LOAD_FF = 2.0

#: Layer used for pre-route parasitic estimates (mid stack).
ESTIMATE_LAYER = 5


@dataclass(frozen=True)
class Corner:
    """One analysis corner.

    Attributes:
        name: Corner name (``"slow"``, ``"typical"``...).
        cell_derate: Multiplier on every cell arc delay.
        wire_derate: Multiplier on every net's RC.
    """

    name: str
    cell_derate: float = 1.0
    wire_derate: float = 1.0


#: The corner the flow times at: no derate.
TYPICAL = Corner("typical")
