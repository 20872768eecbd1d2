"""Shortest distance between orbits and correlation-dimension estimation.

The nearest-pair problem min_{i,j<n} d(a_i, b_j) has a quadratic reference
(`shortest_distance`) and a sparse-grid fast path (`shortest_distance_fast`).
The reference evaluates all n x n distances, a block of rows of a at a time
(about 2^14 pair entries per block), so it runs no per-row Python loop.

The fast path and the correlation sums share one neighbour engine,
`_Grid.pairs`. One point set is bucketed into cells at least as wide as the search radius; for
a query set, the engine yields every (query, bucketed) index pair whose cells
differ by at most one in each axis, cyclically on the torus, in chunks of
about 2^14 pairs. Any pair closer than the cell width is among them. On the
torus each axis lists its shifts once modulo its cell count ({0} for one
cell, {0, 1} for two, {-1, 0, 1} otherwise), so no pair is yielded twice.

The fast path takes its candidates from the engine and adapts the cell width
(grown when nothing is found, set to the found distance when that exceeds
the width) until the best candidate is no farther than the cell width, which
certifies it: any pair outside the candidates is at least one full cell apart
in some coordinate. Both routes fold the metric over coordinates in the same
order and break ties the same way: the witness is the first (i, j) in
row-major order among the minima, i.e. the least (distance, i, j) over all
candidates, whatever their chunk or cell shift. They therefore return
bitwise-identical distances and witnesses.

Correlation sums (Grassberger-Procaccia) count the pairs i < j closer than r
among the engine's pairs on one grid at the largest radius, and the
correlation dimension is the least-squares slope (`fit_slope`, the package's
one least-squares fit, which the harness also uses) of log-sum versus
log-radius over a geometric radius window.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import TORUS, Orbit

_BLOCK_ENTRIES = 1 << 14
_CHUNK_PAIRS = 1 << 14


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


def _as_points(obj, space: str) -> np.ndarray:
    """Validated (m, dim) points; raw arrays are checked as an Orbit in `space`."""
    return (obj if isinstance(obj, Orbit) else Orbit(obj, space)).points


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


def _rows_dist(pa: np.ndarray, pb: np.ndarray, space: str) -> np.ndarray:
    """d(pa[k], pb[k]) for aligned rows."""
    return _fold_metric((pa[:, c] - pb[:, c] for c in range(pa.shape[1])), space)


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
        self.order = np.argsort(flat, kind="stable")
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
    def min_width(self) -> float:
        return float(self.widths.min())

    @property
    def exhaustive(self) -> bool:
        return bool((self.k_axes <= 3).all())

    def pairs(self, query: np.ndarray):
        """Chunks (i, j) of query and bucketed indices in neighbouring cells.

        Yields every pair whose cells differ by at most one in each axis,
        cyclically on the torus, exactly once. A chunk holds the candidates
        of whole queries, about _CHUNK_PAIRS pairs, plus at most one query's.
        """
        # visiting queries in cell order keeps the searchsorted keys nearly
        # sorted, which makes their lookups cache-local
        qcells = self._cells(query)
        qorder = np.argsort(self._flatten(qcells), kind="stable")
        qcells = qcells[qorder]
        if self.torus:
            shifts = [sorted({s % k for s in (-1, 0, 1)}) for k in self.k_axes.tolist()]
        else:
            shifts = [(-1, 0, 1)] * qcells.shape[1]
        for off in itertools.product(*shifts):
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
    first_b = np.sort(wb[:, 0])
    at = np.minimum(np.searchsorted(first_b, wa[:, 0]), first_b.size - 1)
    ia = np.flatnonzero(first_b[at] == wa[:, 0])
    if ia.size == 0:
        return None
    jb = np.flatnonzero(np.isin(wb[:, 0], wa[ia, 0]))
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


def shortest_distance_fast(orbit_a: Orbit, orbit_b: Orbit, n: int,
                           w_init: float | None = None) -> NearestPair:
    """Grid-accelerated nearest pair; exact (bitwise equal to the reference)."""
    pa, pb, space = _check_pair_inputs(orbit_a, orbit_b, n)
    dim = pa.shape[1]
    # coincident points collapse whole cells into quadratic candidate sets;
    # resolve them exactly up front (distance zero implies bytewise equality)
    hit = _common_point(pa, pb)
    if hit is not None:
        return NearestPair(0.0, hit)
    mins, spans = _space_frame(space, pa, pb)
    w = w_init if w_init and w_init > 0 else 4.0 * float(spans.max()) * n ** (-2.0 / dim)
    for _ in range(256):
        w = min(w, float(spans.max()))
        grid = _Grid(pb, w, space, mins, spans)
        if grid.exhaustive:
            return shortest_distance(orbit_a, orbit_b, n)
        best = math.inf
        bi = bj = -1
        for i, j in grid.pairs(pa):
            d = _rows_dist(pa[i], pb[j], space)
            k = np.lexsort((j, i, d))[0]
            if (d[k], i[k], j[k]) < (best, bi, bj):
                best, bi, bj = float(d[k]), int(i[k]), int(j[k])
        if best == math.inf:
            w *= 4.0
            continue
        if best <= grid.min_width:
            return NearestPair(best, (bi, bj))
        w = best  # next round certifies: cell width >= found distance >= true min
    raise ArithmeticError("grid search failed to certify a nearest pair")


def distance_profile(orbit_a: Orbit, orbit_b: Orbit, schedule) -> DistanceProfile:
    """m_n at each scheduled n; cost about one grid pass at max(schedule).

    Each scheduled prefix is re-bucketed, primed with the previous minimum as
    the cell width; for geometric schedules the total work is proportional to
    the final pass.
    """
    ns = [int(n) for n in schedule]
    if any(b <= a for a, b in zip(ns, ns[1:])) or (ns and ns[0] < 1):
        raise ValueError("schedule must be strictly increasing and positive")
    m_values = np.empty(len(ns))
    witnesses = []
    prev: float | None = None
    for t, n in enumerate(ns):
        hint = prev * 2.0 if prev and prev > 0 else None
        res = shortest_distance_fast(orbit_a, orbit_b, n, w_init=hint)
        if prev is not None and res.distance > prev:
            raise AssertionError("shortest distance increased along the schedule")
        m_values[t] = res.distance
        witnesses.append(res.witness)
        prev = res.distance
    m_values.flags.writeable = False
    return DistanceProfile(tuple(ns), m_values, tuple(witnesses))


def _pair_counts_below(pts: np.ndarray, radii: np.ndarray, space: str) -> np.ndarray:
    """#{i<j : d(p_i, p_j) < r} for each r, via one grid at max(radii)."""
    grid = _Grid(pts, float(radii.max()), space, *_space_frame(space, pts))
    counts = np.zeros(radii.size, dtype=np.int64)
    for i, j in grid.pairs(pts):
        keep = i < j
        d = _rows_dist(pts[i[keep]], pts[j[keep]], space)
        counts += np.searchsorted(np.sort(d), radii)  # left side: #{d < r}
    return counts


def correlation_sum(points, r: float, space: str = TORUS) -> float:
    """Pair-proximity U-statistic: 2 #{i<j : d < r} / (M (M-1))."""
    pts = _as_points(points, space)
    m = pts.shape[0]
    if m < 2:
        raise ValueError("need at least two points")
    if r <= 0:
        raise ValueError("radius must be positive")
    count = int(_pair_counts_below(pts, np.asarray([r], dtype=float), space)[0])
    return 2.0 * count / (m * (m - 1))


def default_radius_window(n_points: int, dim: int) -> tuple[float, float]:
    """One decade below 4 * n^(-1/dim): above the noise floor, below saturation."""
    r_hi = 4.0 * n_points ** (-1.0 / dim)
    return r_hi / 10.0, r_hi


def correlation_dimension(points, r_lo: float, r_hi: float, n_radii: int = 8,
                          space: str = TORUS) -> DimensionFit:
    """Least-squares slope of log correlation sum against log radius."""
    pts = _as_points(points, space)
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
