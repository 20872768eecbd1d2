"""Shortest distance between orbits and correlation-dimension estimation.

The nearest-pair problem min_{i,j<n} d(a_i, b_j) has a quadratic reference,
`shortest_distance`, which evaluates the n x n distances in blocks of rows of
a (about 2^14 entries each), so it runs no per-row Python loop.

Every fast query rests on one primitive, `_close_pairs(pa, pb, space, r)`: it
yields chunks (d, i, j) holding every pair within r. It buckets pb into one
`_Grid` with cells just wider than r and takes the pairs whose cells differ by
at most one in each axis, cyclically on the torus. A split axis is never
narrower than r, and an axis held in one cell, however narrow, puts every
pair in neighbouring cells. Each point set takes its cell order from one sort
of packed int64 keys, flat cell << ib | index, ib the bits that index the
larger set; each axis is clipped to 2^((62 - ib) // dim) cells, which keeps
the keys below 2^62. Cells c-1..c+1 of the last axis are one range of the
grid's sorted order, so each offset of the leading axes is one range lookup;
with pb None, pa joins itself by a half stencil, each unordered pair once.
Where the grid has at most three cells per axis, row blocks of the full
matrix serve instead. Otherwise every torus axis, of span 1, has more than
three cells, so no pair comes twice.
`_least_by_prefix` reduces the chunks to the least (d, i, j) with i, j < n
for each n: in (d, i, j) order, the first pair with max(i, j) < n.

A single-n search widens w fourfold from 4 span n^(-2/dim) until some pair
lies within w; the least of them is the least overall. A distance profile,
m_n along a schedule, first gives m_n = 0 to each n, from the largest down,
where `_common_point` finds a coincidence: one sort of side-tagged keys, the
first words >> 2, picks the rows, and a sort of whole rows decides. The
rest run in passes: since m_n never increases with n, r = m_{n0} from a
single-n search at the pass's first n bounds every later minimum, and one
`_close_pairs` call at r over the pass's largest n serves them all.
`shortest_distance_fast` is the profile of one n. Every route folds the
metric over coordinates in the same order, and the witness is the least
(d, i, j), the reference's first minimum in row-major order, so the fast
and reference answers are bitwise equal.

The correlation dimension is the least-squares slope (`fit_slope`, the
package's one least-squares fit, which the harness also uses) of the log
correlation sum versus log-radius over a geometric radius window. The
Grassberger-Procaccia sums count the pairs i < j closer than each radius
among the close pairs at the largest radius.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import TORUS, Orbit
from .matching import _keys_meet

_BLOCK_ENTRIES = 1 << 14
_CHUNK_PAIRS = 1 << 14
_PASS_SPAN = 256  # largest N / n0 that one distance-profile pass covers


@dataclass(frozen=True)
class NearestPair:
    distance: float
    witness: tuple[int, int]


@dataclass(frozen=True)
class DistanceProfile:
    """Shortest distances m_n along an increasing schedule of n values."""

    schedule: tuple[int, ...]
    m_values: np.ndarray
    witnesses: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float


def fit_slope(xs, ys) -> SlopeFit:
    """Ordinary least squares; exact on affine data."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least three points")
    if np.ptp(x) == 0.0:
        raise ValueError("xs are all equal; slope undefined")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    stderr = float(np.sqrt((resid ** 2).sum() / dof / sxx)) if dof > 0 else 0.0
    return SlopeFit(slope, intercept, stderr)


@dataclass(frozen=True)
class DimensionFit:
    """Log-log slope of the correlation sum with fit diagnostics."""

    slope: float
    intercept: float
    stderr: float
    radii: np.ndarray
    sums: np.ndarray
    n_excluded: int


def _fold_metric(deltas, space: str) -> np.ndarray:
    """Distances from per-coordinate differences, folded in coordinate order.

    Each delta is a fresh array and is overwritten. On the torus the fold is
    a running max of min(|delta|, 1 - |delta|); in the cube a running sum of
    delta^2 followed by sqrt. Every route computes distances through here,
    so their floats agree bitwise.
    """
    acc = None
    for delta in deltas:
        if space == TORUS:
            np.abs(delta, out=delta)
            np.minimum(delta, 1.0 - delta, out=delta)
            acc = delta if acc is None else np.maximum(acc, delta, out=acc)
        else:
            np.multiply(delta, delta, out=delta)
            acc = delta if acc is None else np.add(acc, delta, out=acc)
    return acc if space == TORUS else np.sqrt(acc, out=acc)


def _block_dist(pa: np.ndarray, pb: np.ndarray, space: str) -> np.ndarray:
    """The full matrix d(pa[i], pb[j]), shape (len(pa), len(pb))."""
    return _fold_metric((np.subtract.outer(pa[:, c], pb[:, c])
                         for c in range(pa.shape[1])), space)


def _check_pair_inputs(orbit_a: Orbit, orbit_b: Orbit, n: int) -> tuple[np.ndarray, np.ndarray, str]:
    if orbit_a.space != orbit_b.space or orbit_a.dim != orbit_b.dim:
        raise ValueError("orbits must share space and dimension")
    if n < 1 or n > len(orbit_a) or n > len(orbit_b):
        raise ValueError(f"n={n} exceeds orbit length")
    return orbit_a.points[:n], orbit_b.points[:n], orbit_a.space


def shortest_distance(orbit_a: Orbit, orbit_b: Orbit, n: int) -> NearestPair:
    """Exact minimum over the n x n point pairs; quadratic reference route.

    The distance matrix is evaluated in blocks of whole rows of a, about
    2^14 entries each: small enough that the block's arrays stay cheap to
    allocate and cache-resident, large enough that each NumPy call does
    real work. The witness is the first (i, j) in row-major order among the
    minima: argmin takes the first minimum of a block, and a later block
    replaces it only when strictly closer.
    """
    pa, pb, space = _check_pair_inputs(orbit_a, orbit_b, n)
    rows = max(1, _BLOCK_ENTRIES // n)
    best = math.inf
    bi = bj = 0
    for i0 in range(0, n, rows):
        d = _block_dist(pa[i0:i0 + rows], pb, space)
        k = int(np.argmin(d))
        if d.flat[k] < best:
            best = float(d.flat[k])
            bi, bj = divmod(k, n)
            bi += i0
    return NearestPair(best, (bi, bj))


class _Grid:
    """Points bucketed into an axis-aligned cell grid, in flat cell order and
    index order within a cell, from one sort of packed keys flat << ib | index."""

    def __init__(self, pts: np.ndarray, w: float, space: str,
                 mins: np.ndarray, spans: np.ndarray, count: int):
        self.torus = space == TORUS
        self.ib = int(count).bit_length()  # bits that index any of count points
        # at most 2^((62 - ib) // dim) cells per axis keep every packed key below 2^62;
        # a clipped axis only gets wider cells, which still hold every close pair
        self.k_axes = np.clip(spans / w, 1, 2.0 ** ((62 - self.ib) // spans.size)).astype(np.int64)
        self.widths = spans / self.k_axes
        self.mins = mins
        self.sorted_flat, self.order = self._sorted(pts)

    def _sorted(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The flat cells of pts in increasing order, and the index of each."""
        keys = self._flatten(self._cells(pts)) << self.ib | np.arange(len(pts))
        keys.sort()
        order = keys & ((1 << self.ib) - 1)
        return np.right_shift(keys, self.ib, out=keys), order

    def _cells(self, pts: np.ndarray) -> np.ndarray:
        cells = ((pts - self.mins) / self.widths).astype(np.int64)
        np.clip(cells, 0, self.k_axes - 1, out=cells)
        return cells

    def _flatten(self, cells: np.ndarray) -> np.ndarray:
        flat = cells[:, 0].copy()
        for d in range(1, cells.shape[1]):
            flat *= self.k_axes[d]
            flat += cells[:, d]
        return flat

    @property
    def exhaustive(self) -> bool:
        return bool((self.k_axes <= 3).all())

    def pairs(self, query: np.ndarray | None):
        """Chunks (i, j) of query and bucketed indices in neighbouring cells.

        Yields every pair whose cells differ by at most one in each axis,
        cyclically on the torus, exactly once on a grid that is not exhaustive.
        Cells c-1..c+1 of the last axis are one range of the sorted flat order,
        so each of the 3^(d-1) leading offsets costs two searches, plus, on the
        torus, a one-cell range for the wrapped neighbour of an edge cell.
        With query None the bucketed points join themselves by a half stencil,
        each unordered pair of distinct points once: positive leading offsets
        (lexicographically) take their full ranges, and the zero offset takes
        the points after the query's own sorted position up to the end of cell
        c+1, wrapping only from the last cell to cell 0.
        """
        # queries in cell order keep the searchsorted keys sorted, which
        # makes their lookups cache-local
        qflat, qorder = (self.sorted_flat, self.order) if query is None else self._sorted(query)
        *lead, c = np.unravel_index(qflat, self.k_axes.tolist())  # the query's cells
        del qflat  # only the cells stay alive while chunks are out
        k_last = int(self.k_axes[-1])
        wraps = [(c == k_last - 1, 0), (c == 0, k_last - 1)] if self.torus else []
        for off in itertools.product((-1, 0, 1), repeat=len(lead)):
            if query is None and off < (0,) * len(off):
                continue  # the pair comes from the other point's positive offset
            half = query is None and not any(off)
            start, out = np.zeros_like(c), np.zeros(c.size, dtype=bool)
            for cells, k, o in zip(lead, self.k_axes.tolist(), off):
                cells = (cells + o) % k if self.torus else cells + o
                out |= (cells < 0) | (cells >= k)
                start = start * k + cells
            start *= k_last
            hi = np.searchsorted(self.sorted_flat, start + c + (c < k_last - 1), side="right")
            lo = (np.arange(1, c.size + 1) if half
                  else np.searchsorted(self.sorted_flat, start + c - (c > 0), side="left"))
            np.copyto(hi, lo, where=out)
            yield from self._ranges(qorder, lo, hi)
            for at, cell in wraps[:1] if half else wraps:
                key = start[at] + cell
                yield from self._ranges(qorder[at], *(np.searchsorted(
                    self.sorted_flat, key, side=side) for side in ("left", "right")))

    def _ranges(self, qidx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """Chunks (qidx[q], order[t]) for t in [lo[q], hi[q]) for each q: about
        _CHUNK_PAIRS pairs of whole queries, plus at most one query's. Uses up
        lo and hi, whose storage holds the working arrays."""
        counts = np.subtract(hi, lo, out=hi)
        ends = np.cumsum(counts)
        base = np.subtract(lo, ends - counts, out=lo)  # pair t of query q is at t + base[q]
        total = int(ends[-1]) if ends.size else 0
        cuts = np.searchsorted(ends, np.arange(0, total, _CHUNK_PAIRS), side="right").tolist()
        for q0, q1 in zip(cuts, cuts[1:] + [ends.size]):
            if q1 > q0:
                q = np.repeat(np.arange(q0, q1), counts[q0:q1])
                t = np.arange(ends[q0] - counts[q0], ends[q1 - 1])
                yield qidx[q], self.order[t + base[q]]


def _space_frame(space: str, *pointsets) -> tuple[np.ndarray, np.ndarray]:
    dim = pointsets[0].shape[1]
    if space == TORUS:
        return np.zeros(dim), np.ones(dim)
    allpts = np.vstack(pointsets)
    mins = allpts.min(axis=0)
    spans = np.maximum(allpts.max(axis=0) - mins, 1e-300)
    return mins, spans


def _common_point(pa: np.ndarray, pb: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically smallest (i, j) with pa[i] == pb[j] bytewise, if any.

    Only rows whose key, the first uint64 word >> 2, occurs in the other set
    can match; one sort of side-tagged keys (`_keys_meet`) finds those rows.
    The key is only a filter: the rows that hold one are sorted together by
    a stable sort on whole rows, so equal rows form runs led by their least
    i, then by their least j.
    """
    wa, wb = pa.view(np.uint64), pb.view(np.uint64)
    ka, kb = wa[:, 0] >> 2, wb[:, 0] >> 2  # below 2^62, as the tag needs
    ia, jb = _keys_meet(ka, kb)
    if ia.size == 0:
        return None
    words = np.vstack((wa[ia], wb[jb]))
    order = np.lexsort(words.T[::-1])  # stable: equal rows keep a, then b, by index
    rows, index, from_b = words[order], np.concatenate((ia, jb))[order], order >= ia.size
    starts = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
    lead_b = np.flatnonzero(from_b & ~np.r_[True, from_b[:-1]] & ~starts)
    if lead_b.size == 0:
        return None
    lead_a = np.maximum.accumulate(np.where(starts, np.arange(order.size), 0))[lead_b]
    k = int(np.argmin(index[lead_a]))
    return int(index[lead_a[k]]), int(index[lead_b[k]])


def _close_pairs(pa: np.ndarray, pb: np.ndarray | None, space: str, r: float):
    """Chunks (d, i, j) holding every pair of pa x pb with d(pa[i], pb[j]) <= r;
    with pb None, each pair i != j of pa x pa once, as (i, j) or (j, i).

    The pairs come from one grid with cells just wider than r, so a pair at
    exactly r lies in neighbouring cells, or, where that grid has at most
    three cells per axis, from row blocks of the full matrix, cut to i < j
    for a self-join.
    """
    join, pb = pb is None, pa if pb is None else pb
    mins, spans = _space_frame(space, pa, pb)
    w = float(np.nextafter(r, math.inf)) * (1.0 + 1e-12)
    grid = _Grid(pb, w, space, mins, spans, max(len(pa), len(pb)))
    if grid.exhaustive:
        rows = max(1, _BLOCK_ENTRIES // len(pb))
        for i0 in range(0, len(pa), rows):
            d = _block_dist(pa[i0:i0 + rows], pb, space)
            near = d <= r
            i, j = np.nonzero(np.triu(near, i0 + 1) if join else near)
            yield d[i, j], i + i0, j
        return
    for i, j in grid.pairs(None if join else pa):
        # whole rows by take: a strided column's own take would copy the column
        d = _fold_metric(pa.take(i, axis=0).T - pb.take(j, axis=0).T, space)
        near = np.flatnonzero(d <= r)
        yield d[near], i[near], j[near]


def _least_by_prefix(chunks, ns: list[int]) -> list[NearestPair | None]:
    """The least (d, i, j) with i, j < n for each n in ns; None for an n that
    no pair in chunks serves. Each chunk is cut to its own per-n winners."""
    best = [(math.inf, -1, -1)] * len(ns)
    for d, i, j in chunks:
        order = np.lexsort((j, i, d))
        # running least max(i, j) along (d, i, j) order: the first position
        # where it drops below n is the least (d, i, j) among pairs with i, j < n
        reach = np.minimum.accumulate(np.maximum(i, j)[order])
        at = np.searchsorted(-reach, -np.asarray(ns), side="right")
        for k, a in enumerate(at.tolist()):
            if a < order.size:
                o = order[a]
                best[k] = min(best[k], (float(d[o]), int(i[o]), int(j[o])))
    return [NearestPair(dk, (ik, jk)) if ik >= 0 else None for dk, ik, jk in best]


def _nearest(pa: np.ndarray, pb: np.ndarray, space: str, n: int) -> NearestPair:
    """The least (d, i, j) with i, j < n: the search width w grows fourfold
    from a first guess until some pair lies within it, which certifies the
    least pair within w as the least overall."""
    pa, pb = pa[:n], pb[:n]
    w = 4.0 * float(_space_frame(space, pa, pb)[1].max()) * n ** (-2.0 / pa.shape[1])
    while (found := _least_by_prefix(_close_pairs(pa, pb, space, w), [n])[0]) is None:
        w *= 4.0  # ends: once the grid covers the space, the blocks hold every pair
    return found


def shortest_distance_fast(orbit_a: Orbit, orbit_b: Orbit, n: int) -> NearestPair:
    """Grid-accelerated nearest pair; exact (bitwise equal to the reference)."""
    prof = distance_profile(orbit_a, orbit_b, (n,))
    return NearestPair(float(prof.m_values[0]), prof.witnesses[0])


def distance_profile(orbit_a: Orbit, orbit_b: Orbit, schedule) -> DistanceProfile:
    """m_n and its witness at each scheduled n; bitwise equal to
    `shortest_distance` at each n.

    Coincident n are answered by `_common_point`; one pass (see the module
    docstring) serves every other n up to _PASS_SPAN * n0. It keeps about
    (N / n0)^2 pairs, so a schedule that reaches further starts a new pass,
    with its own single-n search, at the first n beyond that.
    """
    ns = [int(n) for n in schedule]
    if any(b <= a for a, b in zip(ns, ns[1:])) or (ns and ns[0] < 1):
        raise ValueError("schedule must be strictly increasing and positive")
    pa, pb, space = _check_pair_inputs(orbit_a, orbit_b, ns[-1] if ns else 1)
    # a coincidence at n persists at every later n: trim them from the top
    rest, coincident = len(ns), []
    while rest and (hit := _common_point(pa[:ns[rest - 1]], pb[:ns[rest - 1]])) is not None:
        rest -= 1
        coincident.insert(0, NearestPair(0.0, hit))
    found: list[NearestPair] = []
    while len(found) < rest:
        part = ns[len(found):bisect.bisect_right(ns, _PASS_SPAN * ns[len(found)], hi=rest)]
        first = _nearest(pa, pb, space, part[0])
        found += [first] if len(part) == 1 else _least_by_prefix(
            _close_pairs(pa[:part[-1]], pb[:part[-1]], space, first.distance), part)
    found += coincident
    m_values = np.array([p.distance for p in found], dtype=float)
    m_values.flags.writeable = False
    return DistanceProfile(tuple(ns), m_values, tuple(p.witness for p in found))


def _pair_counts_below(pts: np.ndarray, radii: np.ndarray, space: str) -> np.ndarray:
    """#{i<j : d(p_i, p_j) < r} for each r, among the pairs within max(radii),
    which the half-stencil self-join of `_close_pairs` yields once each."""
    counts = np.zeros(radii.size, dtype=np.int64)
    for d, _, _ in _close_pairs(pts, None, space, float(radii.max())):
        counts += np.searchsorted(np.sort(d), radii)  # left side: #{d < r}
    return counts


def default_radius_window(n_points: int, dim: int) -> tuple[float, float]:
    """One decade below 4 * n^(-1/dim): above the noise floor, below saturation."""
    r_hi = 4.0 * n_points ** (-1.0 / dim)
    return r_hi / 10.0, r_hi


def correlation_dimension(points, r_lo: float, r_hi: float, n_radii: int = 8,
                          space: str = TORUS) -> DimensionFit:
    """Least-squares slope of log correlation sum against log radius."""
    pts = (points if isinstance(points, Orbit) else Orbit(points, space)).points
    m = pts.shape[0]
    if m < 2:
        raise ValueError("need at least two points")
    if not 0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")
    if n_radii < 3:
        raise ValueError("need at least three radii")
    radii = np.geomspace(r_lo, r_hi, n_radii)
    counts = _pair_counts_below(pts, radii, space)
    sums = 2.0 * counts / (m * (m - 1.0))
    usable = counts > 0
    n_excluded = int((~usable).sum())
    if n_excluded:
        warnings.warn(f"{n_excluded} radii had empty correlation sums and were "
                      "excluded", RuntimeWarning, stacklevel=2)
    if usable.sum() < 3:
        raise ArithmeticError("fewer than three usable radii; enlarge the window")
    fit = fit_slope(np.log(radii[usable]), np.log(sums[usable]))
    return DimensionFit(slope=fit.slope, intercept=fit.intercept, stderr=fit.stderr,
                        radii=radii, sums=sums, n_excluded=n_excluded)
