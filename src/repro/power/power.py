"""Total-power analysis: leakage, internal, and switching components.

The paper's hard constraint is ``Power(L_opt) ≤ β_power · Power(L_base)``
on *total* power.  The model:

* **leakage** — sum of per-cell leakage (µW), including fillers.
* **internal** — per-cell internal energy × toggle rate × clock frequency.
* **switching** — ½ α C V² f over every net's wire + pin capacitance,
  the per-net loads setup STA computed (``STAResult.load``), summed in a
  plain loop in netlist order.

Activity factors: data nets toggle with ``data_activity`` (default 0.15),
the clock net with activity 1.0 (two edges per cycle → factor 2 folded in).
Units: energy fJ, capacitance fF, V volts, f GHz → power in µW, reported
in mW.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TimingError
from repro.layout.layout import Layout
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import STAResult

#: Supply voltage of the 45 nm process (V).
VDD = 1.1

#: Default data-net toggle activity (toggles per clock cycle).
DATA_ACTIVITY = 0.15


@dataclass(frozen=True)
class PowerReport:
    """Per-component power, all in mW.

    Attributes:
        leakage: Static leakage power.
        internal: Cell-internal dynamic power.
        switching: Net-switching dynamic power.
    """

    leakage: float
    internal: float
    switching: float

    @property
    def total(self) -> float:
        """Total power (mW)."""
        return self.leakage + self.internal + self.switching


def analyze_power(
    layout: Layout,
    constraints: TimingConstraints,
    sta: STAResult,
    data_activity: float = DATA_ACTIVITY,
) -> PowerReport:
    """Compute the power report of a placed (optionally routed) layout.

    Switching power reads each net's load from ``sta``, the setup
    STA of this layout on the routing (or estimates) to report against.

    Raises:
        TimingError: When ``sta`` times another netlist (its per-net
            loads do not match the netlist's nets).
    """
    netlist = layout.netlist
    loads = sta.load.tolist()
    if len(loads) != netlist.num_nets:
        raise TimingError(
            f"STA result has loads for {len(loads)} nets, netlist "
            f"{netlist.name!r} has {netlist.num_nets}; rerun STA on it"
        )
    freq_ghz = 1.0 / constraints.clock_period
    clock_nets = netlist.clock_nets()

    leakage_uw = 0.0
    internal_uw = 0.0
    for inst in netlist.instances:
        leakage_uw += inst.master.power.leakage
        if inst.is_filler:
            continue
        activity = 1.0 if inst.is_sequential else data_activity
        internal_uw += inst.master.power.internal_energy * activity * freq_ghz

    switching_uw = 0.0
    for net, load_ff in zip(netlist.nets, loads):
        if net.num_sinks == 0:
            continue
        # clock toggles twice per cycle; data nets at the activity factor
        activity = 2.0 if net.name in clock_nets else data_activity
        energy_fj = 0.5 * load_ff * VDD * VDD
        switching_uw += energy_fj * activity * freq_ghz

    return PowerReport(
        leakage=leakage_uw / 1000.0,
        internal=internal_uw / 1000.0,
        switching=switching_uw / 1000.0,
    )
