"""Table II — TNS, power, and #DRC for every design × defense.

Regenerates the paper's three sub-tables.  Absolute values differ from
the paper (our substrate is a scale-model simulator, and we report TNS in
ns on the self-calibrated clocks), but the shapes must hold:

* the original designs with negative TNS are exactly the paper's tight
  six (AES_1/2/3, CAST, openMSP430_2, SEED); baseline #DRC is zero across
  the suite (the paper's lone nonzero entry, 12 on AES_2, is cleared by
  our detailed-route repair model — see repro/drc/checker.py);
* BISA has the worst TNS, power, and #DRC overheads;
* Ba et al. sits between BISA and GDSII-Guard;
* GDSII-Guard shows the smallest overall degradation and meets its own
  hard constraints (#DRC <= 20, power <= 1.2x baseline).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.power.power import analyze_power
from repro.reporting.tables import format_table

ROWS = ("original", "icas", "bisa", "ba", "guard_pick")
LABELS = {
    "original": "Original",
    "icas": "ICAS",
    "bisa": "BISA",
    "ba": "Ba et al.",
    "guard_pick": "GDSII-Guard",
}


def _metrics(outcome, kind: str):
    if kind == "original":
        d = outcome.design
        power = analyze_power(d.layout, d.constraints, d.sta).total
        from repro.drc.checker import check_drc

        drc = check_drc(d.layout, d.routing).count
        return d.sta.tns, power, drc
    r = getattr(outcome, kind)
    if kind == "guard_pick":
        return r.tns, r.power, r.drc_count
    return r.tns, r.power, r.drc_count


def test_table2_ppa_comparison(defense_matrix, benchmark):
    designs = sorted(defense_matrix)
    data = {
        kind: {name: _metrics(defense_matrix[name], kind) for name in designs}
        for kind in ROWS
    }

    for title, idx, fmt in (
        ("Table II (a) — TNS (ns)", 0, "{:.3f}"),
        ("Table II (b) — total power (mW)", 1, "{:.3f}"),
        ("Table II (c) — #DRC violations", 2, "{:.0f}"),
    ):
        rows = [
            [LABELS[kind], *[fmt.format(data[kind][n][idx]) for n in designs]]
            for kind in ROWS
        ]
        print()
        print(format_table(["defense", *designs], rows, title=title))

    # --- shape assertions --------------------------------------------- #
    tight = {"AES_1", "AES_2", "AES_3", "CAST", "openMSP430_2", "SEED"}
    for name in designs:
        tns = data["original"][name][0]
        if name in tight:
            assert tns < 0, f"{name} should be timing-tight at baseline"
        else:
            assert tns == pytest.approx(0.0, abs=1e-9), f"{name} should meet timing"

    def mean_over(kind, idx):
        return float(np.mean([data[kind][n][idx] for n in designs]))

    # BISA worst on all three axes (averaged).
    assert mean_over("bisa", 0) < mean_over("guard_pick", 0)  # most negative TNS
    assert mean_over("bisa", 1) > mean_over("ba", 1) > 0
    assert mean_over("bisa", 1) > mean_over("guard_pick", 1)
    assert mean_over("bisa", 2) >= mean_over("ba", 2)
    assert mean_over("bisa", 2) > mean_over("guard_pick", 2)

    # GDSII-Guard honours its own hard constraints everywhere.
    for name in designs:
        outcome = defense_matrix[name]
        assert outcome.guard_pick.drc_count <= outcome.guard.n_drc
        assert (
            outcome.guard_pick.power
            <= outcome.guard.beta_power * outcome.guard.baseline_power + 1e-9
        )

    # Power overhead of GDSII-Guard stays modest (paper: a few percent).
    overheads = []
    for name in designs:
        base = data["original"][name][1]
        overheads.append(data["guard_pick"][name][1] / base - 1.0)
    assert float(np.mean(overheads)) < 0.15

    # Timed kernel: one full PPA extraction (STA + power + DRC).
    from repro.drc.checker import check_drc
    from repro.timing.sta import run_sta

    d0 = defense_matrix[designs[0]].design

    def ppa():
        sta = run_sta(d0.layout, d0.constraints, routing=d0.routing)
        analyze_power(d0.layout, d0.constraints, sta)
        check_drc(d0.layout, d0.routing)

    benchmark.pedantic(ppa, rounds=1, iterations=1)
