"""Kernels for the evaluator hot paths.

STA arrival/required propagation (:mod:`~repro.kernels.sta`), exploitable-
site row filtering (:mod:`~repro.kernels.exploitable`), routing-grid track
accounting, the pair router's one-gather shape scores and the code
ranges behind its one-pass victim and congestion scans
(:mod:`~repro.kernels.routegrid`), and the legalizer's position search
and ECO receiving-target scan (:mod:`~repro.kernels.legalize`) are
implemented only here: the flow calls these functions directly.  Most
are numpy array passes; the position search works on row bitsets held
as Python ints, where a row of a few hundred sites costs a handful of
int operations and no numpy call overhead.

Each kernel is **bitwise equal** to the plain per-element Python reading
of its definition.  Those scalar readings live in ``tests/oracles/`` and
``tests/kernels/`` compares every kernel with its oracle on generated
designs and randomized inputs.  The kernels apply the same IEEE-754
double operations as the oracles, in an order whose result is provably
identical: max/min reductions are order-independent, and elementwise
numpy float64 arithmetic matches Python float arithmetic operation for
operation.

Kernels must not own randomness: any kernel needing an RNG takes a
``numpy.random.Generator`` argument (lint rule DET103 enforces this).
"""
