"""Expanding torus maps, random (skew-product) systems, and observations.

Orbits of expanding maps are generated in fixed-point arithmetic with 1024
fraction bits per coordinate. Native float iteration of x -> m*x mod 1
shifts the initial mantissa out within ~50 steps and the orbit degenerates;
here, when a seeded orbit's valid precision drops below a floor, the stale
low-order bits are re-drawn from the orbit's own bit stream. For expanding
affine maps that preserve Lebesgue measure, the unresolved tail of the
current point is uniform conditionally on everything emitted so far, so the
refresh reproduces the exact orbit law while keeping cost bounded. Orbits
started from an explicit point are iterated exactly (no refresh) as the true
orbit of that dyadic initial condition.

Random systems are driven either by the 4-branch piecewise-linear driver on
[0,1] (selecting the doubling or tripling map at threshold 2/5), by i.i.d.
Bernoulli choices between two maps, or by i.i.d. additive noise drawn
uniformly from (-epsilon, epsilon).

Every front end (`iterate`, `lebesgue_orbit`, `iterate_random`) compiles its
system to plain integers and runs it by one of two routes that give the
same bits. Each fiber map becomes (a, b, c, d, bits), the matrix
[[a, b], [c, d]] (a times map is [[m, 0], [0, 0]]) and the precision it
spends per step. The driver becomes a per-step map-index stream and a noise
stream, both drawn up front exactly as the drivers define them: Bernoulli
choices and noise offsets from the trial's NumPy stream, selector indices
from a fixed-point run of the piecewise-linear driver.

- Shift register (`_shift_register`): when the only fiber map is
  TimesMap(2^b), b < 62, NumPy computes the top 62 bits of every point from
  a linear recurrence mod 2^62, with no per-step loop. It serves `iterate`,
  `lebesgue_orbit` and the additive-noise driver on such a map.
- Integer loop (`_orbit`), for every other system (m not a power of two,
  toral maps, the selector drivers): it keeps its state in local integers,
  reduces mod 1 with a bit mask, inlines the refresh, and yields the top 53
  bits of each coordinate, which NumPy collects and scales once.

Both return bitwise the points of a per-step fixed-point iteration.
"""

from __future__ import annotations


import random as _pyrandom
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .seeding import spawn_seed

FRACTION_BITS = 1024
_ONE = 1 << FRACTION_BITS
_MASK = _ONE - 1
_FIFTH = _ONE // 5
_REFRESH_FLOOR = 160
_OUT_SHIFT = FRACTION_BITS - 53
_OUT_SCALE = 2.0 ** -53
_NOISE_SHIFT = FRACTION_BITS - 62  # noise keeps 62 bits, far past the 53 emitted
_WINDOW_BITS = FRACTION_BITS - _NOISE_SHIFT
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_BLOCK = 4096

TORUS = "torus"
CUBE = "cube"


@dataclass(frozen=True)
class Orbit:
    """Finite trajectory of points; rows are points, columns coordinates."""

    points: np.ndarray
    space: str = TORUS

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        # freeze a view, so the caller's array stays writeable
        pts = (pts[:, None] if pts.ndim == 1 else pts).view()
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("orbit must be a nonempty (n, dim) array")
        if self.space not in (TORUS, CUBE):
            raise ValueError(f"unknown space {self.space!r}")
        if not np.isfinite(pts).all():
            raise ValueError("orbit coordinates must be finite")
        if self.space == TORUS and (pts.min() < 0.0 or pts.max() >= 1.0):
            raise ValueError("torus coordinates must lie in [0, 1)")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def torus_distance(a, b, space: str = TORUS) -> float:
    """Distance between two points: sup wrap metric on the torus, Euclidean else."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if space == TORUS:
        delta = np.abs(a - b)
        return float(np.max(np.minimum(delta, 1.0 - delta)))
    return float(np.sqrt(np.sum((a - b) ** 2)))


@dataclass(frozen=True)
class TimesMap:
    """x -> m x mod 1 on the circle, integer m >= 2."""

    m: int

    def __post_init__(self):
        if int(self.m) < 2:
            raise ValueError(f"multiplier must be >= 2, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    dim = 1

    @property
    def bits_per_step(self) -> int:
        return (self.m - 1).bit_length()


@dataclass(frozen=True)
class ToralAutomorphism:
    """x -> A x mod 1 on the 2-torus; A integer, |det| = 1, hyperbolic."""

    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("matrix must be 2x2")
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if abs(det) != 1:
            raise ValueError(f"matrix determinant must be +-1, got {det}")
        eig = np.linalg.eigvals(np.asarray(rows, dtype=float))
        if np.any(np.abs(np.abs(eig) - 1.0) <= 1e-9):
            raise ValueError("matrix is not hyperbolic: eigenvalue on the unit circle")
        object.__setattr__(self, "matrix", rows)

    dim = 2

    @property
    def bits_per_step(self) -> int:
        s = max(sum(abs(v) for v in row) for row in self.matrix)
        return (s - 1).bit_length()


MapSpec = Union[TimesMap, ToralAutomorphism]


def default_toral_pair() -> tuple[ToralAutomorphism, ToralAutomorphism]:
    """Smallest classical hyperbolic pair with all-positive entries."""
    return ToralAutomorphism(((2, 1), (1, 1))), ToralAutomorphism(((3, 2), (1, 1)))


def _exact(x0, dim: int) -> list[int]:
    """Fixed-point coordinates of an explicit (dyadic) point."""
    vals = np.atleast_1d(np.asarray(x0, dtype=float))
    if vals.shape != (dim,):
        raise ValueError(f"initial point must have dimension {dim}")
    coords = []
    for v in vals:
        f = Fraction(float(v) % 1.0)
        coords.append((f.numerator * _ONE) // f.denominator)
    return coords


def _start(x0, dim: int, seed: int, role: int) -> tuple[list[int], _pyrandom.Random | None]:
    """x0 exactly without refresh, or a Lebesgue-random start and its refresh stream."""
    if x0 is not None:
        return _exact(x0, dim), None
    refresher = _pyrandom.Random(spawn_seed(seed, role))
    return [refresher.getrandbits(FRACTION_BITS) for _ in range(dim)], refresher


def _fibers(maps, refreshed: bool) -> list[tuple[int, int, int, int, int]]:
    """Each map as (a, b, c, d, bits): x -> a x + b y, y -> c x + d y, bits spent."""
    out = []
    for m in maps:
        (a, b), (c, d) = m.matrix if isinstance(m, ToralAutomorphism) else ((m.m, 0), (0, 0))
        out.append((a, b, c, d, m.bits_per_step if refreshed else 0))
    return out


def _orbit(fibers, coords: list[int], refresher, index: np.ndarray, noise: np.ndarray):
    """The one orbit loop: yields x >> _OUT_SHIFT per coordinate, point by point.

    Step k applies fibers[index[k]] and, on the circle, adds noise[k] * 2^-62;
    `& _MASK` is the reduction mod 1, negative noise included. A refreshed
    orbit re-draws its stale low bits once fewer than _REFRESH_FLOOR are valid.
    The streams become Python ints a block at a time, so no orbit-long list
    is ever held.
    """
    two = len(coords) == 2
    x, y = coords if two else (coords[0], 0)
    precision = FRACTION_BITS
    yield x >> _OUT_SHIFT
    if two:
        yield y >> _OUT_SHIFT
    for lo in range(0, index.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        for i, e in zip(index[block].tolist(), noise[block].tolist()):
            a, b, c, d, bits = fibers[i]
            if two:
                x, y = (a * x + b * y) & _MASK, (c * x + d * y) & _MASK
            else:
                x = (a * x + (e << _NOISE_SHIFT)) & _MASK
            precision -= bits
            if precision < _REFRESH_FLOOR:
                stale = FRACTION_BITS - precision
                x = ((x >> stale) << stale) | refresher.getrandbits(stale)
                if two:
                    y = ((y >> stale) << stale) | refresher.getrandbits(stale)
                precision = FRACTION_BITS
            yield x >> _OUT_SHIFT
            if two:
                yield y >> _OUT_SHIFT


def _theta_states(w: int, refresher):
    """Theta driver states packed as (w >> _OUT_SHIFT) << 1 | [w >= 2/5]."""
    fifth, two_fifths, three_fifths, four_fifths = (k * _FIFTH for k in range(1, 5))
    spent = 2 if refresher is not None else 0  # steepest branch slope is 3
    precision = FRACTION_BITS
    while True:
        yield (w >> _OUT_SHIFT) << 1 | (w >= two_fifths)
        if w < fifth:
            w = 2 * w
        elif w < two_fifths:
            w = 3 * w - fifth
        elif w < three_fifths:
            w = 2 * w - four_fifths
        else:
            w = (3 * w - _ONE) >> 1
        precision -= spent
        if precision < _REFRESH_FLOOR:
            stale = FRACTION_BITS - precision
            w = ((w >> stale) << stale) | refresher.getrandbits(stale)
            precision = FRACTION_BITS


def _shift_bits(maps) -> int:
    """b when the only fiber map is TimesMap(2^b) with b < 62, else 0."""
    if len(maps) == 1 and isinstance(maps[0], TimesMap):
        m = maps[0].m
        if m & (m - 1) == 0 and m < 1 << _WINDOW_BITS:
            return m.bit_length() - 1
    return 0


def _bits_of(value: int, width: int) -> np.ndarray:
    """The low `width` bits of value, most significant first, one uint8 each."""
    size = (width + 7) // 8
    low = value & ((1 << width) - 1)
    bits = np.unpackbits(np.frombuffer(low.to_bytes(size, "big"), dtype=np.uint8))
    return bits[8 * size - width:]


def _shift_register(b: int, x: int, refresher, n: int, noise=None) -> np.ndarray:
    """x_k >> _OUT_SHIFT for k < n under x -> 2^b x + noise * 2^-62 mod 1.

    It returns exactly what _orbit yields for the fiber TimesMap(2^b), with
    no per-step loop. The noise only reaches bits from _NOISE_SHIFT up, and
    carries only move up, so the bits below _NOISE_SHIFT are a shift
    register: they hold x's low bits, then each refresh's bits (zeros
    without a refresher), and every step moves the next b of them, c_k,
    into the 62-bit window W = x >> _NOISE_SHIFT. Hence
    W_{k+1} = 2^b W_k + c_k + e_k mod 2^62. Unrolled,
    W_k = sum_j 2^(b j) v_{k-j} with v = [W_0, c_0 + e_0, c_1 + e_1, ...],
    and every term with b j >= 62 vanishes, so a few doubling passes of
    shifted adds in wrapping uint64 give each W_k; W_k >> 9 is the output.
    The refresher is called with the sizes and in the order _orbit uses.
    """
    steps = n - 1
    chunks = [_bits_of(x, _NOISE_SHIFT)]
    if refresher is None:
        chunks.append(np.zeros(max(0, steps * b - _NOISE_SHIFT), dtype=np.uint8))
    else:
        period = (FRACTION_BITS - _REFRESH_FLOOR) // b + 1  # steps per refresh
        stale = period * b
        chunks += [_bits_of(refresher.getrandbits(stale), stale)
                   for _ in range(steps // period)]
    bits = np.concatenate(chunks)[:steps * b].reshape(steps, b)
    window = np.empty(n, dtype=np.uint64)
    window[0] = x >> _NOISE_SHIFT
    digits = window[1:]
    digits[:] = bits[:, 0]
    for column in bits.T[1:]:
        digits <<= np.uint64(1)
        digits |= column
    if noise is not None:
        digits += (noise & _WINDOW_MASK).astype(np.uint64)
    span = 1
    while span * b < _WINDOW_BITS:
        window[span:] += window[:-span] << np.uint64(span * b)
        span *= 2
    return (window & np.uint64(_WINDOW_MASK)) >> np.uint64(_OUT_SHIFT - _NOISE_SHIFT)


def _run(maps, coords: list[int], refresher, n: int, index=None, noise=None) -> Orbit:
    """n points from coords; index and noise (fixed point) default to zeros.

    A lone TimesMap(2^b) runs as a shift register, every other system
    through the integer loop; both give the same bits.
    """
    dim = len(coords)
    b = _shift_bits(maps)
    if b:
        out = _shift_register(b, coords[0], refresher, n, noise)
    else:
        zeros = np.zeros(n - 1, dtype=np.int64)
        stream = _orbit(_fibers(maps, refresher is not None), coords, refresher,
                        zeros if index is None else index,
                        zeros if noise is None else noise)
        out = np.fromiter(stream, dtype=np.int64, count=n * dim)
    return Orbit(out.reshape(n, dim) * _OUT_SCALE, TORUS)


def iterate(map_spec: MapSpec, x0, n: int) -> Orbit:
    """Exact orbit [x0, T x0, ..., T^(n-1) x0] of a dyadic initial point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _run((map_spec,), _exact(x0, map_spec.dim), None, n)


def lebesgue_orbit(map_spec: MapSpec, n: int, seed: int) -> Orbit:
    """Orbit from a Lebesgue-random start, with lazy precision refresh."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _run((map_spec,), *_start(None, map_spec.dim, seed, 0), n)


@dataclass(frozen=True)
class ThetaDriver:
    """Deterministic piecewise-linear driver; maps[0] below 2/5, maps[1] above."""


@dataclass(frozen=True)
class BernoulliDriver:
    """I.i.d. choice of maps[0] with probability q, maps[1] otherwise."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")


@dataclass(frozen=True)
class UniformBallDriver:
    """I.i.d. additive noise uniform in (-epsilon, epsilon), applied after maps[0]."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("noise radius must be nonnegative")


DriverSpec = Union[ThetaDriver, BernoulliDriver, UniformBallDriver]


@dataclass(frozen=True)
class SkewSystem:
    """Random dynamical system: a driver plus the fiber maps it selects."""

    driver: DriverSpec
    maps: tuple[MapSpec, ...]

    def __post_init__(self):
        maps = tuple(self.maps)
        if isinstance(self.driver, (ThetaDriver, BernoulliDriver)):
            if len(maps) != 2:
                raise ValueError("selector drivers need exactly two maps")
        elif len(maps) != 1:
            raise ValueError("noise driver perturbs exactly one base map")
        dims = {m.dim for m in maps}
        if len(dims) != 1:
            raise ValueError("all fiber maps must share a dimension")
        if isinstance(self.driver, UniformBallDriver) and maps[0].dim != 1:
            raise ValueError("additive noise driver supports 1-d maps")
        object.__setattr__(self, "maps", maps)

    @property
    def dim(self) -> int:
        return self.maps[0].dim


def iterate_random(system: SkewSystem, omega0, x0, n: int, seed: int
                   ) -> tuple[Orbit, np.ndarray]:
    """Random orbit x_{k+1} = T_{omega_k}(x_k) plus the driver trajectory.

    omega0/x0 may be None, meaning: draw from the invariant (uniform) law with
    lazy bit refresh. Explicit values are iterated exactly. The trajectory
    holds driver states (theta), map indices (Bernoulli) or noise offsets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords, refresher = _start(x0, system.dim, seed, 0)
    driver = system.driver
    if isinstance(driver, ThetaDriver):
        (w,), w_refresher = _start(omega0, 1, seed, 1)
        states = np.fromiter(_theta_states(w, w_refresher), dtype=np.int64, count=n)
        orbit = _run(system.maps, coords, refresher, n, index=states[:-1] & 1)
        return orbit, (states >> 1) * _OUT_SCALE
    rng = np.random.default_rng(spawn_seed(seed, 1))
    if isinstance(driver, BernoulliDriver):
        index = (rng.random(n - 1) >= driver.q).astype(np.int64)
        return _run(system.maps, coords, refresher, n, index=index), index.astype(float)
    eps = driver.epsilon
    noise = rng.uniform(-eps, eps, n - 1) if eps > 0 else np.zeros(n - 1)
    # a step reads an offset only mod 2^62, and fmod is exact, so this int64 has
    # the residue of int(v * 2^62) for any epsilon: both truncate toward zero
    fixed = (np.fmod(noise, 1.0) * 2.0 ** 62).astype(np.int64)
    return _run(system.maps, coords, refresher, n, noise=fixed), noise


@dataclass(frozen=True)
class IdentityObservation:
    """The orbit itself, unchanged."""


@dataclass(frozen=True)
class CoordinateProjection:
    index: int


@dataclass(frozen=True)
class LipschitzAffine:
    """x -> M x + b into plain Euclidean space."""

    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]

    def __post_init__(self):
        M = tuple(tuple(float(v) for v in row) for row in self.matrix)
        b = tuple(float(v) for v in self.offset)
        if len(M) != len(b) or any(len(r) != len(M[0]) for r in M):
            raise ValueError("matrix/offset shapes are inconsistent")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "offset", b)


@dataclass(frozen=True)
class Collapse:
    """Constant on the interval [lo, hi], identity elsewhere (1-d spaces)."""

    interval: tuple[float, float]
    value: float

    def __post_init__(self):
        lo, hi = (float(self.interval[0]), float(self.interval[1]))
        if not lo < hi:
            raise ValueError("collapse interval must have positive length")
        object.__setattr__(self, "interval", (lo, hi))


ObservationSpec = Union[IdentityObservation, CoordinateProjection,
                        LipschitzAffine, Collapse]


def observe(obs: ObservationSpec, orbit: Orbit) -> Orbit:
    """Pointwise image of an orbit under the observation."""
    pts = orbit.points
    if isinstance(obs, IdentityObservation):
        return orbit
    if isinstance(obs, CoordinateProjection):
        if not 0 <= obs.index < orbit.dim:
            raise ValueError(f"projection index {obs.index} out of range")
        return Orbit(pts[:, obs.index:obs.index + 1], orbit.space)
    if isinstance(obs, LipschitzAffine):
        M = np.asarray(obs.matrix, dtype=float)
        if M.shape[1] != orbit.dim:
            raise ValueError("affine observation dimension mismatch")
        return Orbit(pts @ M.T + np.asarray(obs.offset, dtype=float), CUBE)
    if isinstance(obs, Collapse):
        if orbit.dim != 1:
            raise ValueError("collapse observation supports 1-d orbits")
        lo, hi = obs.interval
        inside = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        out = np.where(inside, obs.value, pts[:, 0])
        return Orbit(out[:, None], orbit.space)
    raise ValueError(f"unknown observation {obs!r}")
