"""Track-usage accounting and congestion scans over the gcell grid.

The router's hot paths are straight runs of gcells: committing demand
along a routed piece, scoring the candidate shapes of a pin pair, and
reading routed cells back out of the grid.  A run is a span
``(horizontal, lo, hi, fixed)`` — cells ``(lo..hi, fixed)`` when
horizontal, else ``(fixed, lo..hi)`` — and never a materialized cell
list:

* :func:`apply_line` commits one span, cell by cell on a flat view;
* :func:`piece_codes` turns many spans into gather codes at once, and
  :func:`code_scores` scores every shape of a pair on every tier with
  one gather (:func:`tier_tables`);
* :func:`ranges` expands per-item code ranges, so the router gathers a
  whole route's cells in one pass for rip-up victims and congestion
  factors.

Bitwise equality with the per-gcell oracles: a commit is the oracle's
per-cell loop of IEEE double adds; the congestion ratio
``(use + demand) / cap`` (``inf`` where ``cap <= 0``) is the same
elementwise IEEE add then divide, and max/any reductions are
order-independent.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np


def apply_line(
    use: Any,
    layer_first: int,
    ny: int,
    horizontal: bool,
    lo: int,
    hi: int,
    fixed: int,
    delta: float,
) -> None:
    """Add ``delta`` tracks along a straight run, one cell at a time.

    ``use`` is a writable flat view of a C-ordered ``(K, nx, ny)``
    usage array (``usage.reshape(-1).data``) and ``layer_first`` the
    flat bin of the run's layer's cell ``(0, 0)``.  A run's cells are a
    few bins, so Python float adds on the view beat a numpy slice add;
    each is the same IEEE double add.
    """
    if horizontal:
        first = layer_first + fixed
        for b in range(first + lo * ny, first + hi * ny + 1, ny):
            use[b] += delta
    else:
        first = layer_first + fixed * ny
        for b in range(first + lo, first + hi + 1):
            use[b] += delta


def ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``first[i] .. first[i] + counts[i] - 1`` for every ``i``, concatenated.

    Items with a zero count contribute nothing.
    """
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) + np.repeat(first - (ends - counts), counts)


def piece_codes(
    nx: int,
    ny: int,
    horizontal: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fixed: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather codes of straight pieces, concatenated in piece order.

    A horizontal piece's cell ``(ix, iy)`` has code ``ix * ny + iy`` (a
    row of the h half of :func:`tier_tables`), a vertical piece's cell
    ``(nx + ix) * ny + iy`` (the v half), each piece's codes in
    ascending ``lo..hi`` order.  Returns the codes and the ``len + 1``
    offsets of each piece's codes.
    """
    counts = hi - lo + 1
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    step = np.where(horizontal, ny, 1)
    # code = first + (q - offset) * step at flat position q of a piece;
    # built in place to keep one codes-sized temporary alive
    first = np.where(horizontal, lo * ny + fixed, (nx + fixed) * ny + lo)
    first = first - offsets[:-1] * step
    codes = np.arange(offsets[-1], dtype=np.intp)
    codes *= np.repeat(step, counts)
    codes += np.repeat(first, counts)
    return codes, offsets


#: Per-route gather tables of :func:`code_scores` (see :func:`tier_tables`).
TierTables = Tuple[np.ndarray, np.ndarray, np.ndarray]


def tier_tables(
    capacity: np.ndarray,
    layer_demand: Sequence[float],
    tiers: Sequence[Tuple[int, int]],
) -> TierTables:
    """Gather tables scoring gcells on each tier ``(h_layer, v_layer)``.

    Index-table row ``ix * ny + iy`` holds each tier's flat bin of gcell
    ``(ix, iy)`` on its h layer, row ``(nx + ix) * ny + iy`` on its v
    layer.  The other tables hold each bin's track demand
    (``layer_demand[k - 1]`` on layer ``k``) and capacity, NaN where
    ``cap <= 0``.  Valid while capacity and demands are unchanged.
    """
    _, nx, ny = capacity.shape
    cells = np.arange(nx * ny)
    index = np.empty((2 * nx * ny, len(tiers)), dtype=np.intp)
    for t, (h, v) in enumerate(tiers):
        index[: nx * ny, t] = (h - 1) * nx * ny + cells
        index[nx * ny :, t] = (v - 1) * nx * ny + cells
    demand = np.repeat(np.asarray(layer_demand, dtype=float), nx * ny)
    cap = np.where(capacity > 0, capacity, np.nan).ravel()
    return index, demand, cap


def code_scores(
    usage: np.ndarray,
    tables: TierTables,
    codes: np.ndarray,
    starts: np.ndarray,
) -> List[List[float]]:
    """Worst ``(use + demand) / cap`` of every candidate shape on every tier.

    Shape ``i`` owns ``codes[starts[i]:starts[i + 1]]`` (the last one
    runs to the end), as built by :func:`piece_codes`; every shape owns
    at least one code.  Returns one list of shape scores per tier.  A
    bin with ``cap <= 0`` scores ``inf``, 0/0 too: its NaN capacity
    makes the ratio NaN, which ``np.maximum`` propagates and ``np.fmin``
    turns into ``inf``.
    """
    index, demand, cap = tables
    bins = index.take(codes, axis=0)
    ratio = usage.take(bins)
    ratio += demand.take(bins)
    ratio /= cap.take(bins)
    worst = np.maximum.reduceat(ratio, starts, axis=0)
    np.fmin(worst, np.inf, out=worst)
    return worst.T.tolist()
