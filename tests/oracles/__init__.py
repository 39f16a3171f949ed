"""Scalar reference oracles for the ``repro.kernels`` hot paths.

Each module here holds the plain per-element Python reading of one
kernel's definition, with the signature of the production function it
checks.  None of this code runs in the flow; ``tests/kernels/`` calls an
oracle and its production twin side by side and asserts bitwise-equal
results:

* ``sta._run_sta`` / ``sta._run_hold_sta`` — ``repro.timing.sta.run_sta``
  (``kernels.sta.run_sta_vector``) / ``run_hold_sta``, over the per-net
  delay model ``sta.ScalarDelay``;
* ``sta.parasitic_lists`` — ``kernels.sta.parasitic_arrays``, net by
  net (``sta.net_parasitics``: routed R/C × congestion factor, else
  ``sta.estimate_parasitics``, then the wire derate);
* ``power.analyze_power`` — ``repro.power.power.analyze_power``, with
  each net's load recomputed instead of read from the STA result;
* ``exploitable._filtered_row_intervals`` —
  ``kernels.exploitable.filtered_row_intervals``;
* ``cell_shift._below_weights`` — ``core.cell_shift._IncrementalBelow``;
* ``cell_shift._plan_gaps`` / ``_simulate_plan`` / ``_dp_gap_layout`` —
  the re-space's gap planner of the same names in ``core.cell_shift``;
* ``cell_shift.cell_shift`` — ``core.cell_shift.cell_shift``'s
  ``"respace"`` strategy, as mutations of layout copies;
* ``legalize._best_start_in_row`` / ``legalize._find_spot`` /
  ``legalize._receiving_target`` — ``kernels.legalize.best_start_in_row``
  / ``find_spot`` / ``receiving_target``;
* ``density._used`` — ``place.density.DensityMap``'s per-bin used area;
* ``routegrid.*`` — grid accounting (``kernels.routegrid.apply_line``),
  the shape scores of ``kernels.routegrid.code_scores`` over a ratio
  grid (per piece, ``segment_congestion``), and the router's one-pass
  congestion factors and rip-up victims (per net, ``route_worst_ratio``
  / ``victims_of``);
* ``router.build_plan`` — ``route.router.RoutePlan.build``, net by net
  (``router._spanning_pairs``, the scalar reading of
  ``kernels.routegrid.spanning_pairs``);
* ``router._route_pair`` — ``route.router._route_pair``, the tier loop
  one tier and one piece at a time (``router._route_two_pin``);
* ``router.global_route`` — ``route.router.global_route``, the whole
  route over per-net segment lists.
"""
