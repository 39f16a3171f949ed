"""Track-usage accounting, congestion scans and pin-pair planning for the router.

The router's hot paths are straight runs of gcells: committing demand
along a routed piece, scoring the candidate shapes of a pin pair, and
reading routed cells back out of the grid.  A run is a span
``(horizontal, lo, hi, fixed)`` — cells ``(lo..hi, fixed)`` when
horizontal, else ``(fixed, lo..hi)`` — and never a materialized cell
list:

* :func:`ratio_grid` keeps every bin's congestion ratio
  ``(use + demand) / cap`` once per tier column it feeds, so
  :func:`code_scores` scores every shape of a pair on every tier with
  one gather;
* :func:`apply_line` commits one span, cell by cell on a flat view, and
  rewrites the ratio of every bin it touches;
* :func:`piece_codes` turns many spans into gather codes at once;
* :func:`ranges` expands per-item code ranges, so the router gathers a
  whole route's cells in one pass for rip-up victims and congestion
  factors;
* :func:`spanning_pairs` decomposes every net of a route plan into pin
  pairs, batched over the nets with the same pin count.

Bitwise equality with the per-gcell oracles: a commit is the oracle's
per-cell loop of IEEE double adds; the ratio of a bin is the same IEEE
add then divide of its usage at that moment (NaN where ``cap <= 0``),
and max/min/any reductions are order-independent.  Spanning pairs
compare the same Manhattan distances (two subtractions, two ``abs``,
one add) in the scalar loop's order.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Sequence, Tuple

import numpy as np

#: (flat ratio view, per-bin capacity with NaN where ``cap <= 0``, the
#: layer's track demand, the layer's ratio shifts); see :func:`apply_line`.
LineRatio = Tuple[Any, Sequence[float], float, Tuple[int, ...]]


def apply_line(
    use: Any,
    layer_first: int,
    ny: int,
    horizontal: bool,
    lo: int,
    hi: int,
    fixed: int,
    delta: float,
    ratio: LineRatio,
) -> None:
    """Add ``delta`` tracks along a straight run, one cell at a time.

    ``use`` is a writable flat view of a C-ordered ``(K, nx, ny)``
    usage array (``usage.reshape(-1).data``) and ``layer_first`` the
    flat bin of the run's layer's cell ``(0, 0)``.  A run's cells are a
    few bins, so Python float adds on the view beat a numpy slice add;
    each is the same IEEE double add.

    ``ratio`` ``(view, cap, demand, shifts)`` keeps a :func:`ratio_grid`
    in step: right after bin ``b``'s add, its new
    ``(use[b] + demand) / cap[b]`` is written to ``view[b + s]`` for
    every ``s`` in ``shifts`` (the bin's cells in the ratio table).
    """
    if horizontal:
        first = layer_first + fixed
        cells = range(first + lo * ny, first + hi * ny + 1, ny)
    else:
        first = layer_first + fixed * ny
        cells = range(first + lo, first + hi + 1)
    view, cap, demand, shifts = ratio
    if len(shifts) == 1:
        s = shifts[0]
        for b in cells:
            u = use[b] + delta
            use[b] = u
            view[b + s] = (u + demand) / cap[b]
        return
    for b in cells:
        u = use[b] + delta
        use[b] = u
        r = (u + demand) / cap[b]
        for s in shifts:
            view[b + s] = r


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
    column of the h half of :func:`ratio_grid`'s table), a vertical
    piece's cell ``(nx + ix) * ny + iy`` (the v half), each piece's
    codes in ascending ``lo..hi`` order.  Returns the codes and the
    ``len + 1`` offsets of each piece's codes.
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


class RatioGrid(NamedTuple):
    """Congestion ratios of a usage grid, per tier column (see :func:`ratio_grid`).

    Attributes:
        index: ``(2 nx ny, T)`` flat bin of each gather code on each tier.
        ratio: ``(T, 2 nx ny)`` ``(use + demand) / cap`` of that bin.
        cap: Per flat bin, its capacity, NaN where ``cap <= 0``.
        shifts: Per layer ``k - 1``, where its bins sit in ``ratio``:
            bin ``b`` at flat position ``b + s`` for each ``s``.
    """

    index: np.ndarray
    ratio: np.ndarray
    cap: List[float]
    shifts: Tuple[Tuple[int, ...], ...]


def ratio_grid(
    usage: np.ndarray,
    capacity: np.ndarray,
    layer_demand: Sequence[float],
    tiers: Sequence[Tuple[int, int]],
) -> RatioGrid:
    """Every bin's congestion ratio on each tier ``(h_layer, v_layer)``.

    Code ``ix * ny + iy`` is gcell ``(ix, iy)`` on a tier's h layer, code
    ``(nx + ix) * ny + iy`` the same gcell on its v layer.  Column
    ``code`` of row ``t`` of the ratio table holds that bin's
    ``(use + demand) / cap``, with the track demand of its layer
    (``layer_demand[k - 1]`` on layer ``k``) and NaN where
    ``cap <= 0``.  A bin feeds one cell per tier side it sits on: on a
    thin stack, clamped tiers share layers, so one bin feeds several
    columns.  Valid while capacity and demands are unchanged and every
    usage change goes through :func:`apply_line` with the bin's ratio.
    """
    k, nx, ny = capacity.shape
    cells = nx * ny
    index = np.empty((2 * cells, len(tiers)), dtype=np.intp)
    shifts: List[List[int]] = [[] for _ in range(k)]
    for t, (h, v) in enumerate(tiers):
        index[:cells, t] = (h - 1) * cells + np.arange(cells)
        index[cells:, t] = (v - 1) * cells + np.arange(cells)
        shifts[h - 1].append(2 * t * cells - (h - 1) * cells)
        shifts[v - 1].append((2 * t + 1) * cells - (v - 1) * cells)
    demand = np.repeat(np.asarray(layer_demand, dtype=float), cells)
    cap = np.where(capacity > 0, capacity, np.nan).ravel()
    bins = index.T
    ratio = usage.ravel().take(bins)
    ratio += demand.take(bins)
    ratio /= cap.take(bins)
    return RatioGrid(index, ratio, cap.tolist(), tuple(map(tuple, shifts)))


def code_scores(
    ratio: np.ndarray, codes: np.ndarray, starts: np.ndarray
) -> List[List[float]]:
    """Worst ``(use + demand) / cap`` of every candidate shape on every tier.

    ``ratio`` is a :func:`ratio_grid` table.  Shape ``i`` owns
    ``codes[starts[i]:starts[i + 1]]`` (the last one runs to the end),
    as built by :func:`piece_codes`; every shape owns at least one code.
    Returns one list of shape scores per tier.  A bin with ``cap <= 0``
    scores ``inf``, 0/0 too: its NaN ratio propagates through
    ``np.maximum``, and ``np.fmin`` turns it into ``inf``.
    """
    worst = np.maximum.reduceat(ratio.take(codes, axis=1), starts, axis=1)
    np.fmin(worst, np.inf, out=worst)
    return worst.tolist()


#: Nets with more pins than this are chained, not spanned by Prim.
PRIM_MAX_PINS = 24

#: Height (µm) of the y-bands a chained net's pins are swept in.
CHAIN_BAND = 5.0


def spanning_pairs(
    x: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Spanning pin pairs of many nets, ``counts[i] - 1`` for net ``i``.

    Net ``i`` owns the points ``(x, y)[first_i : first_i + counts[i]]``
    in order, at least one.  Returns float rows ``(x1, y1, x2, y2)``,
    net by net.

    * Nets of up to :data:`PRIM_MAX_PINS` pins: a Prim tree grown from
      the first pin.  Each step joins the not-yet-joined pin at the
      least Manhattan distance from a joined pin (the first such pin in
      point order) to the first-joined of its nearest joined pins, and
      emits ``(joined pin, new pin)``.
    * Larger nets (clocks, resets): a serpentine chain.  Pins sort by
      the :data:`CHAIN_BAND` y-band ``int(y / CHAIN_BAND)``, then by x,
      ascending in even bands and descending in odd ones, ties in point
      order; consecutive pins pair up.

    Prim runs batched over all nets with the same pin count: each
    pin's distance to the tree falls only on a strictly smaller
    distance, and ``argmin`` takes the first minimum, which is the
    scalar loop's first ``(pin, joined pin)`` at the least distance.
    """
    counts = np.asarray(counts, dtype=np.intp)
    first = np.cumsum(counts) - counts
    n_pairs = counts - 1
    out_first = np.cumsum(n_pairs) - n_pairs
    out = np.empty((int(n_pairs.sum()), 4))
    for n in np.unique(counts[counts <= PRIM_MAX_PINS]).tolist():
        nets = np.flatnonzero(counts == n)
        points = first[nets][:, None] + np.arange(n)
        px, py = x[points], y[points]
        rows = out_first[nets][:, None] + np.arange(n - 1)
        out[rows] = _prim(px, py)
    big = np.flatnonzero(counts > PRIM_MAX_PINS)
    if len(big):
        out[ranges(out_first[big], n_pairs[big])] = _chain(
            x, y, first[big], counts[big]
        )
    return out


def _prim(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """``(B, n - 1, 4)`` Prim pairs of ``B`` nets of ``n`` pins each."""
    batch, n = px.shape
    pairs = np.empty((batch, n - 1, 4))
    net = np.arange(batch)
    dist = np.abs(px - px[:, :1]) + np.abs(py - py[:, :1])
    near = np.zeros((batch, n), dtype=np.intp)
    joined = np.zeros((batch, n), dtype=bool)
    joined[:, 0] = True
    dist[:, 0] = np.inf
    for step in range(n - 1):
        new = dist.argmin(axis=1)
        old = near[net, new]
        jx, jy = px[net, new], py[net, new]
        pairs[:, step] = np.column_stack((px[net, old], py[net, old], jx, jy))
        joined[net, new] = True
        dist[net, new] = np.inf
        d = np.abs(px - jx[:, None]) + np.abs(py - jy[:, None])
        closer = d < dist
        closer &= ~joined
        np.copyto(dist, d, where=closer)
        np.copyto(near, new[:, None], where=closer)
    return pairs


def _chain(
    x: np.ndarray, y: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Serpentine chain pairs of the nets at ``first``, net by net."""
    points = ranges(first, counts)
    cx, cy = x[points], y[points]
    net = np.repeat(np.arange(len(counts)), counts)
    band = (cy / CHAIN_BAND).astype(np.int64)
    order = np.lexsort((np.where(band % 2 == 0, cx, -cx), band, net))
    cx, cy = cx[order], cy[order]
    # net is the primary key, so each net's chain keeps its slice
    left = ranges(np.cumsum(counts) - counts, counts - 1)
    return np.column_stack((cx[left], cy[left], cx[left + 1], cy[left + 1]))
