"""Shortest distance between orbits and correlation-dimension estimation.

The nearest-pair problem min_{i,j<n} d(a_i, b_j) has a quadratic reference,
`shortest_distance`, which evaluates the n x n distances in blocks of rows of
a (about 2^14 entries each), so it runs no per-row Python loop.

Every fast query rests on one primitive, `_close_pairs(pa, pb, space, r)`: it
yields chunks (d, i, j) holding every pair within r. It buckets pb into one
`_Grid` with cells just wider than r and takes the pairs whose cells differ by
at most one in each axis, cyclically on the torus. A split axis is never
narrower than r, and an axis held in one cell, however narrow, puts every
pair in neighbouring cells. Where the grid has at most three cells per axis,
row blocks of the full matrix serve instead. Otherwise every torus axis, of
span 1, has more than three cells, so no pair comes twice.
`_least_by_prefix` reduces the chunks to the least (d, i, j) with i, j < n
for each n: in (d, i, j) order, the first pair with max(i, j) < n.

A single-n search widens w fourfold from 4 span n^(-2/dim) until some pair
lies within w; the least of them is the least overall. A distance profile,
m_n along a schedule, first gives m_n = 0 to each n, from the largest down,
where `_common_point` finds a coincidence. The rest run in passes: since m_n
never increases with n, r = m_{n0} from a single-n search at the pass's first
n bounds every later minimum, and one `_close_pairs` call at r over the
pass's largest n serves them all. `shortest_distance_fast` is the profile of
one n. Every route folds the metric over coordinates in the same order, and
the witness is the least (d, i, j), the reference's first minimum in
row-major order, so the fast and reference answers are bitwise equal.

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
    """Points bucketed into an axis-aligned cell grid (sorted flat index)."""

    def __init__(self, pts: np.ndarray, w: float, space: str,
                 mins: np.ndarray, spans: np.ndarray):
        self.torus = space == TORUS
        self.k_axes = np.maximum((spans / w).astype(np.int64), 1)
        self.widths = spans / self.k_axes
        self.mins = mins
        flat = self._flatten(self._cells(pts))
        self.order = np.argsort(flat)
        self.sorted_flat = flat[self.order]

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

    def pairs(self, query: np.ndarray):
        """Chunks (i, j) of query and bucketed indices in neighbouring cells.

        Yields every pair whose cells differ by at most one in each axis,
        cyclically on the torus, exactly once on a grid that is not exhaustive.
        A chunk holds whole queries' candidates: about _CHUNK_PAIRS pairs,
        plus at most one query's.
        """
        # visiting queries in cell order keeps the searchsorted keys nearly
        # sorted, which makes their lookups cache-local
        qcells = self._cells(query)
        qorder = np.argsort(self._flatten(qcells))
        qcells = qcells[qorder]
        for off in itertools.product((-1, 0, 1), repeat=qcells.shape[1]):
            nc = qcells + np.asarray(off, dtype=np.int64)
            if self.torus:
                nc %= self.k_axes
            flat = self._flatten(nc)
            lo = np.searchsorted(self.sorted_flat, flat, side="left")
            counts = np.searchsorted(self.sorted_flat, flat, side="right") - lo
            counts[((nc < 0) | (nc >= self.k_axes)).any(axis=1)] = 0
            ends = np.cumsum(counts)
            base = lo - (ends - counts)  # pair number t of query i is at t + base[i]
            cuts = np.searchsorted(ends, np.arange(0, ends[-1], _CHUNK_PAIRS),
                                   side="right").tolist()
            for q0, q1 in zip(cuts, cuts[1:] + [ends.size]):
                if q1 > q0:
                    i = np.repeat(np.arange(q0, q1), counts[q0:q1])
                    t = np.arange(ends[q0] - counts[q0], ends[q1 - 1])
                    yield qorder[i], self.order[t + base[i]]


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

    Only rows whose first uint64 word occurs in the other set can match. They
    are sorted together by a stable sort, so equal rows form runs led by their
    least i, then by their least j.
    """
    wa, wb = pa.view(np.uint64), pb.view(np.uint64)
    # sorted keys keep the lookups cache-local
    first_a, first_b = np.sort(wa[:, 0]), np.sort(wb[:, 0])
    at = np.minimum(np.searchsorted(first_b, first_a), first_b.size - 1)
    shared = first_a[first_b[at] == first_a]
    if shared.size == 0:
        return None
    ia = np.flatnonzero(np.isin(wa[:, 0], shared))
    jb = np.flatnonzero(np.isin(wb[:, 0], shared))
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


def _close_pairs(pa: np.ndarray, pb: np.ndarray, space: str, r: float):
    """Chunks (d, i, j) holding every pair of pa x pb with d(pa[i], pb[j]) <= r.

    The pairs come from one grid with cells just wider than r, so a pair at
    exactly r lies in neighbouring cells, or, where that grid has at most
    three cells per axis, from row blocks of the full matrix.
    """
    mins, spans = _space_frame(space, pa, pb)
    grid = _Grid(pb, float(np.nextafter(r, math.inf)) * (1.0 + 1e-12), space, mins, spans)
    if grid.exhaustive:
        rows = max(1, _BLOCK_ENTRIES // len(pb))
        for i0 in range(0, len(pa), rows):
            d = _block_dist(pa[i0:i0 + rows], pb, space)
            i, j = np.nonzero(d <= r)
            yield d[i, j], i + i0, j
        return
    for i, j in grid.pairs(pa):
        d = _fold_metric((pa[i, c] - pb[j, c] for c in range(pa.shape[1])), space)
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
    """#{i<j : d(p_i, p_j) < r} for each r, among the pairs within max(radii)."""
    counts = np.zeros(radii.size, dtype=np.int64)
    for d, i, j in _close_pairs(pts, pts, space, float(radii.max())):
        counts += np.searchsorted(np.sort(d[i < j]), radii)  # left side: #{d < r}
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
