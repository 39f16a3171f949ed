"""Scalar oracle for power analysis (``repro.power.power.analyze_power``).

Power as it was computed before it read STA's loads: each net's load
recomputed from the net's parasitics (:func:`tests.oracles.sta.net_parasitics`)
and a library lookup per sink pin.
The production function sums the same terms from ``STAResult.load`` and
must reproduce this report bitwise.
"""

from __future__ import annotations

from typing import Optional

from repro.layout.layout import Layout
from repro.power.power import DATA_ACTIVITY, VDD, PowerReport
from repro.timing.constraints import TimingConstraints

from tests.oracles.sta import ScalarDelay


def analyze_power(
    layout: Layout,
    constraints: TimingConstraints,
    routing: Optional[object] = None,
    data_activity: float = DATA_ACTIVITY,
) -> PowerReport:
    """The power report with every net's load recomputed net by net."""
    netlist = layout.netlist
    freq_ghz = 1.0 / constraints.clock_period
    model = ScalarDelay(layout, routing)
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
    for net in netlist.nets:
        if net.num_sinks == 0:
            continue
        load_ff = model.net_load(net)
        # clock toggles twice per cycle; data nets at the activity factor
        activity = 2.0 if net.name in clock_nets else data_activity
        energy_fj = 0.5 * load_ff * VDD * VDD
        switching_uw += energy_fj * activity * freq_ghz

    return PowerReport(
        leakage=leakage_uw / 1000.0,
        internal=internal_uw / 1000.0,
        switching=switching_uw / 1000.0,
    )
