"""Levelized, batched STA propagation: the only timing code.

The textbook STA walks the net graph one node at a time in Kahn order,
computing each load, wire delay and arc delay on the way (the scalar
oracle ``tests/oracles/sta.py`` does exactly that).  This kernel
levelizes the (static) timing graph once per netlist and then
propagates whole levels as numpy arrays: arrivals with per-level
``np.maximum.reduceat`` over the fanin-edge candidates (the earliest
arrival of hold analysis with ``np.minimum.reduceat``), required times
with ``np.minimum.reduceat`` over the fanout edges in descending level
order.

Bitwise-equality argument (vs the per-node oracle):

* Every per-element formula — net load ``c + c_sinks``, arc delay
  ``intrinsic + dr·load/1000``, wire delay ``r·(c/2 + c_sinks)·1e-6``,
  arrival candidate ``(at + wire) + arc``, required candidate
  ``(req − arc) − wire`` — is evaluated with the same IEEE-754 double
  operations in the same order; numpy float64 elementwise arithmetic is
  bit-identical to Python float arithmetic.  Static sink loads are
  summed in a plain loop, pin by pin, as the oracle sums them.
* Arrival is a max-reduction (min for hold) and required a
  min-reduction over the same candidate sets; max/min over floats are
  order-independent and exact, so levelized batching instead of Kahn
  order changes nothing.
* Absent values are carried as ±inf sentinels; a net whose candidates
  are all sentinel stays absent from the result dicts, matching the
  oracle's dict-membership semantics.

The per-netlist static structure (levels, edge groups, arc variants,
static sink loads) is cached in a :class:`weakref.WeakKeyDictionary` and
invalidated by the netlist's ``mod_count``.

The stages of :func:`run_sta_vector` are separate functions
(:func:`parasitic_arrays`, :func:`wire_and_load`,
:func:`forward_arrivals`) so hold analysis
(:func:`repro.timing.sta.run_hold_sta`) and the red-team impact delta
(:mod:`repro.redteam.impact`) can rerun the same forward pass;
:func:`arc_delay` and :func:`hpwl_estimate` time the few cells and nets
an implant adds.

:func:`parasitic_arrays` is the one place a net's wire R/C comes from.
A routed net gathers its R and C, scaled by its congestion factor, by
plan position (:meth:`~repro.route.router.RoutingResult.wire_rc`); every
other net, and a routed net left at (0, 0), takes its HPWL estimate
from one pass over the pin table's flat slots, with the max/min
``reduceat`` the route plan uses.  The HPWL is ``(max x − min x) +
(max y − min y)`` in the operation order of
:func:`~repro.geometry.half_perimeter_wirelength`, and the corner's wire
derate multiplies last, so the arrays equal the per-net scalar reading
(``tests/oracles/sta.py``) bitwise.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TimingError
from repro.kernels.routegrid import ranges
from repro.layout.pins import pin_table
from repro.netlist.netlist import Netlist
from repro.tech.library import StdCell
from repro.tech.technology import Technology
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import ESTIMATE_LAYER, PORT_LOAD_FF, Corner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.layout.layout import Layout
    from repro.route.router import RoutingResult
    from repro.timing.sta import STAResult

#: Edge slice + segment slice of one level: (edge_lo, edge_hi, seg_lo, seg_hi).
_LevelSlice = Tuple[int, int, int, int]


@dataclass
class TimingStructure:
    """Static (per-netlist) levelized timing graph in array form."""

    mod_count: int
    names: List[str]
    csink: np.ndarray  # (N,) static sink pin load per net, fF
    # Edges sorted by (level[dst], dst) — the forward-pass order.
    e_src: np.ndarray
    e_dst: np.ndarray
    # Timing-arc variants per forward-sorted edge, flattened.
    v_intr: np.ndarray
    v_dr: np.ndarray
    v_dst: np.ndarray  # output net of each variant (load index)
    var_starts: np.ndarray  # reduceat starts, one per edge with >=1 variant
    has_var: np.ndarray  # (E,) bool
    fwd_seg_starts: np.ndarray  # reduceat starts per distinct dst
    fwd_seg_dst: np.ndarray
    fwd_levels: List[_LevelSlice]
    # Backward-pass view: edges sorted by (level[src] desc, src).
    b_src: np.ndarray
    b_dst: np.ndarray
    b_fwd_pos: np.ndarray  # forward-order position of each backward edge
    bwd_seg_starts: np.ndarray
    bwd_seg_src: np.ndarray
    bwd_levels: List[_LevelSlice]
    # Sources.
    port_src: np.ndarray  # nets driven by (non-clock) input ports
    ffq_idx: np.ndarray  # nets driven by flip-flop outputs
    ffq_intr: np.ndarray
    ffq_dr: np.ndarray
    ffq_v_net: np.ndarray  # Q net of each flattened launch-arc variant
    ffq_starts: np.ndarray
    ffq_has_var: np.ndarray
    # Endpoints (static slots; filtered by arrival membership per run).
    ff_endpoints: List[Tuple[str, int]]  # (instance, D-net index)
    port_endpoints: List[Tuple[int, List[str]]]  # (net index, port names)


_CACHE: "weakref.WeakKeyDictionary[Netlist, TimingStructure]" = (
    weakref.WeakKeyDictionary()
)


def _variant_arrays(
    variants: List[List[Tuple[float, float]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-item (intrinsic, drive) variant lists for reduceat."""
    counts = np.array([len(v) for v in variants], dtype=np.int64)
    intr = np.array(
        [x for vs in variants for x, _ in vs], dtype=np.float64
    )
    dr = np.array([x for vs in variants for _, x in vs], dtype=np.float64)
    offsets = np.zeros(len(variants), dtype=np.int64)
    if len(variants) > 1:
        offsets[1:] = np.cumsum(counts[:-1])
    has = counts > 0
    return intr, dr, offsets[has], has


def _level_slices(
    seg_levels: np.ndarray, seg_starts: np.ndarray, num_edges: int
) -> List[_LevelSlice]:
    """Contiguous (edge, segment) slices per distinct level, in array order."""
    slices: List[_LevelSlice] = []
    n_seg = len(seg_levels)
    slo = 0
    while slo < n_seg:
        shi = slo
        while shi < n_seg and seg_levels[shi] == seg_levels[slo]:
            shi += 1
        elo = int(seg_starts[slo])
        ehi = int(seg_starts[shi]) if shi < n_seg else num_edges
        slices.append((elo, ehi, slo, shi))
        slo = shi
    return slices


def _build_structure(netlist: Netlist) -> TimingStructure:
    clock_nets = netlist.clock_nets()
    names = [net.name for net in netlist.nets]
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    # --- edges, in the oracle's _build_graph iteration order --------- #
    e_src_l: List[int] = []
    e_dst_l: List[int] = []
    e_var_l: List[List[Tuple[float, float]]] = []
    indegree = [0] * n
    adjacency: List[List[int]] = [[] for _ in range(n)]
    arc_cache: Dict[Tuple[int, str, str], List[Tuple[float, float]]] = {}
    for inst in netlist.instances:
        if inst.is_sequential or inst.is_filler:
            continue
        master = inst.master
        out_pins = [
            (p.name, inst.connections.get(p.name)) for p in master.output_pins
        ]
        for pin in master.input_pins:
            in_net = inst.connections.get(pin.name)
            if in_net is None or in_net in clock_nets:
                continue
            si = index[in_net]
            for out_pin, out_net in out_pins:
                if out_net is None:
                    continue
                di = index[out_net]
                key = (id(master), pin.name, out_pin)
                variants = arc_cache.get(key)
                if variants is None:
                    variants = arc_variants(master, pin.name, out_pin)
                    arc_cache[key] = variants
                adjacency[si].append(len(e_src_l))
                e_src_l.append(si)
                e_dst_l.append(di)
                e_var_l.append(variants)
                indegree[di] += 1

    # --- levelization (Kahn) + loop detection -------------------------- #
    level = [0] * n
    indeg = list(indegree)
    queue = deque(
        i for i in range(n) if indeg[i] == 0 and names[i] not in clock_nets
    )
    processed = 0
    while queue:
        u = queue.popleft()
        processed += 1
        lu1 = level[u] + 1
        for eid in adjacency[u]:
            v = e_dst_l[eid]
            if lu1 > level[v]:
                level[v] = lu1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    data_nodes = sum(1 for name in names if name not in clock_nets)
    if processed < data_nodes:
        raise TimingError(
            f"combinational loop: {data_nodes - processed} nets unreachable"
        )

    # --- static sink loads (pin by pin, then the ports) ---------------- #
    csink = np.zeros(n, dtype=np.float64)
    for i, net in enumerate(netlist.nets):
        total = 0.0
        for ref in net.sink_pins:
            pin = netlist.instance(ref.instance).master.pin(ref.pin)
            if pin.timing is not None:
                total += pin.timing.capacitance
        total += PORT_LOAD_FF * len(net.sink_ports)
        csink[i] = total

    # --- edge orderings ------------------------------------------------ #
    num_edges = len(e_src_l)
    e_src0 = np.array(e_src_l, dtype=np.int64)
    e_dst0 = np.array(e_dst_l, dtype=np.int64)
    lev = np.array(level, dtype=np.int64)
    if num_edges:
        fwd_order = np.lexsort((e_dst0, lev[e_dst0]))
        e_src = e_src0[fwd_order]
        e_dst = e_dst0[fwd_order]
        variants_fwd = [e_var_l[i] for i in fwd_order.tolist()]
        v_intr, v_dr, var_starts, has_var = _variant_arrays(variants_fwd)
        v_dst = np.repeat(
            e_dst, np.array([len(v) for v in variants_fwd], dtype=np.int64)
        )
        seg_mask = np.empty(num_edges, dtype=bool)
        seg_mask[0] = True
        seg_mask[1:] = e_dst[1:] != e_dst[:-1]
        fwd_seg_starts = np.nonzero(seg_mask)[0]
        fwd_seg_dst = e_dst[fwd_seg_starts]
        fwd_levels = _level_slices(
            lev[fwd_seg_dst], fwd_seg_starts, num_edges
        )

        bwd_order = np.lexsort((e_src0, -lev[e_src0]))
        b_src = e_src0[bwd_order]
        b_dst = e_dst0[bwd_order]
        inv_fwd = np.empty(num_edges, dtype=np.int64)
        inv_fwd[fwd_order] = np.arange(num_edges, dtype=np.int64)
        b_fwd_pos = inv_fwd[bwd_order]
        seg_mask_b = np.empty(num_edges, dtype=bool)
        seg_mask_b[0] = True
        seg_mask_b[1:] = b_src[1:] != b_src[:-1]
        bwd_seg_starts = np.nonzero(seg_mask_b)[0]
        bwd_seg_src = b_src[bwd_seg_starts]
        bwd_levels = _level_slices(
            lev[bwd_seg_src], bwd_seg_starts, num_edges
        )
    else:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        empty_b = np.zeros(0, dtype=bool)
        e_src = e_dst = v_dst = var_starts = empty_i
        v_intr = v_dr = empty_f
        has_var = empty_b
        fwd_seg_starts = fwd_seg_dst = empty_i
        fwd_levels = []
        b_src = b_dst = b_fwd_pos = empty_i
        bwd_seg_starts = bwd_seg_src = empty_i
        bwd_levels = []

    # --- sources -------------------------------------------------------- #
    port_src_l: List[int] = []
    ffq_idx_l: List[int] = []
    ffq_vars: List[List[Tuple[float, float]]] = []
    for net in netlist.nets:
        if net.name in clock_nets:
            continue
        if net.driver_port is not None:
            port_src_l.append(index[net.name])
        elif net.driver_pin is not None:
            drv = netlist.instance(net.driver_pin.instance)
            if drv.is_sequential:
                ffq_idx_l.append(index[net.name])
                ffq_vars.append(
                    arc_variants(drv.master, "CK", net.driver_pin.pin)
                )
    ffq_intr, ffq_dr, ffq_starts, ffq_has_var = _variant_arrays(ffq_vars)
    ffq_idx_arr = np.array(ffq_idx_l, dtype=np.int64)
    ffq_v_net = np.repeat(
        ffq_idx_arr, np.array([len(v) for v in ffq_vars], dtype=np.int64)
    )

    # --- endpoint slots -------------------------------------------------- #
    ff_endpoints: List[Tuple[str, int]] = []
    for inst in netlist.sequential_instances():
        d_net = inst.connections.get("D")
        if d_net is None or d_net in clock_nets:
            continue
        ff_endpoints.append((inst.name, index[d_net]))
    port_endpoints: List[Tuple[int, List[str]]] = []
    for net in netlist.nets:
        if net.sink_ports:
            port_endpoints.append((index[net.name], list(net.sink_ports)))

    return TimingStructure(
        mod_count=netlist.mod_count,
        names=names,
        csink=csink,
        e_src=e_src,
        e_dst=e_dst,
        v_intr=v_intr,
        v_dr=v_dr,
        v_dst=v_dst,
        var_starts=var_starts,
        has_var=has_var,
        fwd_seg_starts=fwd_seg_starts,
        fwd_seg_dst=fwd_seg_dst,
        fwd_levels=fwd_levels,
        b_src=b_src,
        b_dst=b_dst,
        b_fwd_pos=b_fwd_pos,
        bwd_seg_starts=bwd_seg_starts,
        bwd_seg_src=bwd_seg_src,
        bwd_levels=bwd_levels,
        port_src=np.array(port_src_l, dtype=np.int64),
        ffq_idx=ffq_idx_arr,
        ffq_intr=ffq_intr,
        ffq_dr=ffq_dr,
        ffq_v_net=ffq_v_net,
        ffq_starts=ffq_starts,
        ffq_has_var=ffq_has_var,
        ff_endpoints=ff_endpoints,
        port_endpoints=port_endpoints,
    )


def timing_structure(netlist: Netlist) -> TimingStructure:
    """The levelized timing graph of ``netlist`` (cached per mod_count)."""
    cached = _CACHE.get(netlist)
    if cached is not None and cached.mod_count == netlist.mod_count:
        return cached
    built = _build_structure(netlist)
    _CACHE[netlist] = built
    return built


def _edge_delays(
    s: TimingStructure, load: np.ndarray, cell_derate: float
) -> np.ndarray:
    """Per-forward-edge arc delay: max over variants × derate (0 if none)."""
    edelay = np.zeros(len(s.e_src), dtype=np.float64)
    if len(s.v_intr):
        flat = s.v_intr + (s.v_dr * load[s.v_dst]) / 1000.0
        edelay[s.has_var] = (
            np.maximum.reduceat(flat, s.var_starts) * cell_derate
        )
    return edelay


def arc_variants(
    master: StdCell, from_pin: str, to_pin: str
) -> List[Tuple[float, float]]:
    """(intrinsic, drive resistance) of every ``from_pin → to_pin`` arc."""
    return [
        (a.intrinsic_delay, a.drive_resistance)
        for a in master.arcs
        if a.from_pin == from_pin and a.to_pin == to_pin
    ]


def arc_delay(
    variants: List[Tuple[float, float]], load: float, cell_derate: float
) -> float:
    """Scalar twin of the per-edge arc delay: max over variants × derate."""
    if not variants:
        return 0.0
    worst = max(intr + (dr * load) / 1000.0 for intr, dr in variants)
    return worst * cell_derate


def hpwl_estimate(
    technology: Technology, x: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-route (R Ω, C fF) of point groups: HPWL × mid-layer constants.

    Group ``i`` owns the next ``counts[i]`` points of ``x`` and ``y``; a
    group of fewer than two points reads (0, 0).
    """
    length = np.zeros(len(counts))
    has = counts > 0
    if has.any():
        first = (np.cumsum(counts) - counts)[has]
        length[has] = np.maximum.reduceat(x, first) - np.minimum.reduceat(x, first)
        length[has] += np.maximum.reduceat(y, first) - np.minimum.reduceat(y, first)
    layer = technology.layer(min(ESTIMATE_LAYER, technology.num_layers))
    return length * layer.unit_resistance, length * layer.unit_capacitance


def parasitic_arrays(
    s: TimingStructure,
    layout: "Layout",
    routing: Optional["RoutingResult"] = None,
    wire_derate: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every net's wire (R Ω, C fF) in structure order, × ``wire_derate``.

    A net ``routing`` routed reads its congestion-scaled R and C; every
    other net, and a routed net left at (0, 0), its HPWL estimate over
    ``layout``'s pin points (a port without a position is left out).

    Raises:
        TimingError: When ``routing`` was made for another netlist (its
            nets are gathered by netlist index).
        LayoutError: Naming the first unplaced pin instance of the first
            estimated net, in netlist order.
    """
    n = len(s.names)
    r = np.zeros(n)
    c = np.zeros(n)
    if routing is not None:
        plan = routing.plan
        if plan is not None and plan.layout.netlist is not layout.netlist:
            raise TimingError("routing was made for another netlist")
        ids, routed_r, routed_c = routing.wire_rc()
        keep = ids >= 0
        r[ids[keep]] = routed_r[keep]
        c[ids[keep]] = routed_c[keep]
    estimated = np.flatnonzero((r == 0.0) & (c == 0.0))
    if len(estimated):
        slots, offsets, _ = pin_table(layout.netlist).net_slots()
        counts = np.diff(offsets)[estimated]
        x, y = layout.slot_points(slots[ranges(offsets[estimated], counts)])
        positioned = ~np.isnan(x)
        group = np.repeat(np.arange(len(estimated)), counts)[positioned]
        r[estimated], c[estimated] = hpwl_estimate(
            layout.technology,
            x[positioned],
            y[positioned],
            np.bincount(group, minlength=len(estimated)),
        )
    if wire_derate != 1.0:
        r *= wire_derate
        c *= wire_derate
    return r, c


def wire_and_load(
    r: np.ndarray, c: np.ndarray, csink: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-net Elmore wire delay (ns) and driver load (fF)."""
    return r * (c / 2.0 + csink) * 1e-6, c + csink


def forward_arrivals(
    s: TimingStructure,
    wire: np.ndarray,
    load: np.ndarray,
    cell_derate: float,
    input_delay: float,
    earliest: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Levelized forward propagation of data arrival times.

    A net's arrival is the latest of its fanin candidates (setup), or
    with ``earliest`` the earliest (hold).  Arc variants and the
    flip-flop launch take the slowest variant either way.  Returns the
    per-net arrival (``-inf``, or ``+inf`` with ``earliest``, where no
    source reaches the net) and the per-forward-edge arc delays the
    backward pass reuses.
    """
    edelay = _edge_delays(s, load, cell_derate)
    reduceat = np.minimum.reduceat if earliest else np.maximum.reduceat
    at = np.full(len(s.names), np.inf if earliest else -np.inf)
    if s.port_src.size:
        at[s.port_src] = input_delay
    if s.ffq_idx.size:
        ffq_delay = np.zeros(s.ffq_idx.size, dtype=np.float64)
        if len(s.ffq_intr):
            flat = s.ffq_intr + (s.ffq_dr * load[s.ffq_v_net]) / 1000.0
            ffq_delay[s.ffq_has_var] = (
                np.maximum.reduceat(flat, s.ffq_starts) * cell_derate
            )
        at[s.ffq_idx] = ffq_delay
    aw = at + wire
    for elo, ehi, slo, shi in s.fwd_levels:
        cand = aw[s.e_src[elo:ehi]] + edelay[elo:ehi]
        starts = s.fwd_seg_starts[slo:shi] - elo
        vals = reduceat(cand, starts)
        dsts = s.fwd_seg_dst[slo:shi]
        at[dsts] = vals
        aw[dsts] = vals + wire[dsts]
    return at, edelay


def run_sta_vector(
    layout: "Layout",
    constraints: TimingConstraints,
    routing: Optional["RoutingResult"],
    corner: Corner,
) -> "STAResult":
    """Setup STA of ``layout`` on ``routing``'s parasitics at ``corner``.

    The body of :func:`repro.timing.sta.run_sta`; bitwise equal to the
    per-node oracle.  The result carries the per-net ``load``.
    """
    from repro.timing.sta import EndpointSlack, STAResult

    s = timing_structure(layout.netlist)
    names = s.names
    n = len(names)
    period = constraints.clock_period

    # Per-call parasitics (the only dynamic inputs).
    r, c = parasitic_arrays(s, layout, routing, corner.wire_derate)
    wire, load = wire_and_load(r, c, s.csink)
    at, edelay = forward_arrivals(
        s, wire, load, corner.cell_derate, constraints.input_delay
    )

    # --- endpoints + required seeds ------------------------------------ #
    endpoints: List[EndpointSlack] = []
    req_raw = np.full(n, np.inf)
    ff_req = period - constraints.ff_setup
    port_req = period - constraints.output_delay
    neg_inf = -np.inf
    for inst_name, d in s.ff_endpoints:
        a = at[d]
        if a == neg_inf:
            continue
        endpoints.append(
            EndpointSlack(
                kind="ff_d",
                name=inst_name,
                arrival=float(a + wire[d]),
                required=ff_req,
            )
        )
        seed = ff_req - wire[d]
        if seed < req_raw[d]:
            req_raw[d] = seed
    for net_idx, port_names in s.port_endpoints:
        a = at[net_idx]
        if a == neg_inf:
            continue
        arrival_f = float(a)
        for port_name in port_names:
            endpoints.append(
                EndpointSlack(
                    kind="port",
                    name=port_name,
                    arrival=arrival_f,
                    required=port_req,
                )
            )
        if port_req < req_raw[net_idx]:
            req_raw[net_idx] = port_req

    # --- backward min-propagation (descending source level) ------------ #
    for elo, ehi, slo, shi in s.bwd_levels:
        cand = (
            req_raw[s.b_dst[elo:ehi]] - edelay[s.b_fwd_pos[elo:ehi]]
        ) - wire[s.b_src[elo:ehi]]
        starts = s.bwd_seg_starts[slo:shi] - elo
        vals = np.minimum.reduceat(cand, starts)
        srcs = s.bwd_seg_src[slo:shi]
        req_raw[srcs] = np.minimum(req_raw[srcs], vals)

    # --- result dicts (Python floats at the boundary) ------------------ #
    arrival: Dict[str, float] = {}
    has_arrival = np.nonzero(at != neg_inf)[0].tolist()
    for i in has_arrival:
        arrival[names[i]] = float(at[i])
    required: Dict[str, float] = {}
    for i in np.nonzero(req_raw != np.inf)[0].tolist():
        required[names[i]] = float(req_raw[i])
    for i in has_arrival:
        required.setdefault(names[i], period)

    return STAResult(
        arrival=arrival,
        required=required,
        endpoints=endpoints,
        constraints=constraints,
        load=load,
    )
