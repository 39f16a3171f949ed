"""Tests for the STA engine, including a networkx longest-path oracle."""

import networkx as nx
import pytest

from repro.errors import TimingError
from repro.netlist.netlist import Netlist, PortDirection
from repro.layout.layout import Layout
from repro.place.global_place import assign_port_positions
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import run_sta
from tests.conftest import make_inverter_chain, make_registered_pipeline
from tests.oracles.sta import ScalarDelay


class TestCombinational:
    def test_chain_arrival_accumulates(self, small_layout):
        sta = run_sta(small_layout, TimingConstraints(clock_period=10.0))
        # arrivals along the chain are strictly increasing
        ats = [sta.arrival[n] for n in ("in", "n0", "n1", "n2", "out")]
        assert all(b > a for a, b in zip(ats, ats[1:]))

    def test_loose_clock_no_violations(self, small_layout):
        sta = run_sta(small_layout, TimingConstraints(clock_period=100.0))
        assert sta.tns == 0.0
        assert sta.wns == 0.0

    def test_tight_clock_negative_slack(self, small_layout):
        sta = run_sta(small_layout, TimingConstraints(clock_period=0.01))
        assert sta.tns < 0
        assert sta.wns < 0
        assert sta.wns >= sta.tns

    def test_input_delay_shifts_arrivals(self, small_layout):
        a = run_sta(small_layout, TimingConstraints(clock_period=10.0))
        b = run_sta(
            small_layout,
            TimingConstraints(clock_period=10.0, input_delay=0.5),
        )
        assert b.arrival["out"] == pytest.approx(a.arrival["out"] + 0.5)

    def test_against_longest_path_oracle(self, small_layout):
        """Arrival at 'out' equals the longest path in an explicit graph."""
        constraints = TimingConstraints(clock_period=10.0)
        sta = run_sta(small_layout, constraints)
        model = ScalarDelay(small_layout)
        g = nx.DiGraph()
        nl = small_layout.netlist
        for net in nl.nets:
            g.add_node(net.name)
        for inst in nl.instances:
            if inst.is_sequential or inst.is_filler:
                continue
            out_net = inst.connections["ZN"] if "ZN" in inst.connections else None
            for pin, net in inst.connections.items():
                if pin == "ZN":
                    continue
                w = model.wire_delay(nl.net(net)) + model.arc_delay(
                    inst.name, pin, "ZN"
                )
                g.add_edge(net, out_net, weight=w)
        longest = nx.dag_longest_path_length(g, weight="weight")
        assert sta.arrival["out"] == pytest.approx(longest, rel=1e-9)


class TestSequential:
    def test_ff_breaks_paths(self, library, tech):
        nl = make_registered_pipeline(library, stages=2, name="seq")
        layout = Layout(nl, tech, num_rows=2, sites_per_row=80)
        for i, name in enumerate(n.name for n in nl.functional_instances()):
            layout.place(name, i % 2, 20 * (i // 2))
        assign_port_positions(layout)
        sta = run_sta(layout, TimingConstraints(clock_period=5.0))
        # Each FF D pin is an endpoint; each Q net a fresh source.
        ff_endpoints = [e for e in sta.endpoints if e.kind == "ff_d"]
        assert len(ff_endpoints) == 2
        # Q-net arrival equals clk->q delay alone, not the upstream chain.
        q0 = nl.instance("ff0").connections["Q"]
        assert sta.arrival[q0] < 0.5

    def test_endpoint_slacks_vs_period(self, library, tech):
        nl = make_registered_pipeline(library, stages=2, name="seq2")
        layout = Layout(nl, tech, num_rows=2, sites_per_row=80)
        for i, name in enumerate(n.name for n in nl.functional_instances()):
            layout.place(name, i % 2, 20 * (i // 2))
        assign_port_positions(layout)
        tight = run_sta(layout, TimingConstraints(clock_period=0.05))
        loose = run_sta(layout, TimingConstraints(clock_period=50.0))
        assert tight.tns < 0
        assert loose.tns == 0.0

    def test_instance_slack_min_over_nets(self, misty_design):
        d = misty_design
        for asset in list(d.assets)[:5]:
            s = d.sta.instance_slack(d.layout, asset)
            inst = d.netlist.instance(asset)
            net_slacks = [
                d.sta.net_slack(n)
                for n in set(inst.connections.values())
                if n in d.sta.arrival and n in d.sta.required
            ]
            assert s == pytest.approx(min(net_slacks))


class TestLoopsAndErrors:
    def test_combinational_loop_detected(self, library, tech):
        nl = Netlist("loop", library)
        nl.add_instance("a", "INV_X1")
        nl.add_instance("b", "INV_X1")
        nl.add_net("x")
        nl.add_net("y")
        nl.connect("a", "A", "x")
        nl.connect("a", "ZN", "y")
        nl.connect("b", "A", "y")
        nl.connect("b", "ZN", "x")
        layout = Layout(nl, tech, num_rows=1, sites_per_row=30)
        layout.place("a", 0, 0)
        layout.place("b", 0, 10)
        with pytest.raises(TimingError):
            run_sta(layout, TimingConstraints(clock_period=1.0))

    def test_net_slack_unknown_net(self, small_layout):
        sta = run_sta(small_layout, TimingConstraints(clock_period=10.0))
        with pytest.raises(TimingError):
            sta.net_slack("ghost")


class TestResultProperties:
    def test_worst_endpoint(self, small_layout):
        sta = run_sta(small_layout, TimingConstraints(clock_period=0.05))
        worst = sta.worst_endpoint
        assert worst is not None
        assert worst.slack == pytest.approx(sta.wns)

    def test_required_defaults_to_period(self, small_layout):
        sta = run_sta(small_layout, TimingConstraints(clock_period=10.0))
        for net, req in sta.required.items():
            assert req <= 10.0 + 1e-9

    def test_full_design_tns_reproducible(self, misty_design):
        d = misty_design
        again = run_sta(d.layout, d.constraints, routing=d.routing)
        assert again.tns == pytest.approx(d.sta.tns)
        assert again.wns == pytest.approx(d.sta.wns)
