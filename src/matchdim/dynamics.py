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
_FIFTH = _ONE // 5
_REFRESH_FLOOR = 160
_OUT_SHIFT = FRACTION_BITS - 53
_OUT_SCALE = 2.0 ** -53

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

    kind = "times_m"
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

    kind = "toral_automorphism"
    dim = 2

    @property
    def positive_entries(self) -> bool:
        return all(v > 0 for row in self.matrix for v in row)

    @property
    def bits_per_step(self) -> int:
        s = max(sum(abs(v) for v in row) for row in self.matrix)
        return (s - 1).bit_length()


@dataclass(frozen=True)
class PerturbedMap:
    """Base circle map plus per-step additive noise uniform in (-eps, eps)."""

    base: TimesMap
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("noise radius must be nonnegative")

    kind = "perturbed"
    dim = 1


MapSpec = Union[TimesMap, ToralAutomorphism, PerturbedMap]


def default_toral_pair() -> tuple[ToralAutomorphism, ToralAutomorphism]:
    """Smallest classical hyperbolic pair with all-positive entries."""
    pair = (ToralAutomorphism(((2, 1), (1, 1))), ToralAutomorphism(((3, 2), (1, 1))))
    assert pair[0].positive_entries and pair[1].positive_entries
    return pair


class _FixedVector:
    """Per-coordinate 1024-bit fixed-point state with optional bit refresh."""

    __slots__ = ("coords", "precision", "refresher")

    def __init__(self, coords: list[int], refresher: _pyrandom.Random | None):
        self.coords = coords
        self.precision = FRACTION_BITS
        self.refresher = refresher

    @classmethod
    def from_floats(cls, values, dim: int) -> "_FixedVector":
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.shape != (dim,):
            raise ValueError(f"initial point must have dimension {dim}")
        coords = []
        for v in vals:
            f = Fraction(float(v) % 1.0)
            coords.append((f.numerator * _ONE) // f.denominator)
        return cls(coords, None)

    @classmethod
    def uniform(cls, dim: int, refresher: _pyrandom.Random) -> "_FixedVector":
        return cls([refresher.getrandbits(FRACTION_BITS) for _ in range(dim)],
                   refresher)

    def spend(self, bits: int) -> None:
        if self.refresher is None:
            return
        self.precision -= bits
        if self.precision < _REFRESH_FLOOR:
            stale = FRACTION_BITS - self.precision
            for i, x in enumerate(self.coords):
                self.coords[i] = ((x >> stale) << stale) | self.refresher.getrandbits(stale)
            self.precision = FRACTION_BITS

    def emit(self, out: list[float]) -> None:
        for x in self.coords:
            out.append((x >> _OUT_SHIFT) * _OUT_SCALE)


def _step_times(fv: _FixedVector, m: int, bits: int) -> None:
    fv.coords[0] = (m * fv.coords[0]) % _ONE
    fv.spend(bits)


def _step_times_noisy(fv: _FixedVector, m: int, bits: int, noise_fixed: int) -> None:
    fv.coords[0] = (m * fv.coords[0] + noise_fixed) % _ONE
    fv.spend(bits)


def _step_toral(fv: _FixedVector, rows, bits: int) -> None:
    x, y = fv.coords
    fv.coords[0] = (rows[0][0] * x + rows[0][1] * y) % _ONE
    fv.coords[1] = (rows[1][0] * x + rows[1][1] * y) % _ONE
    fv.spend(bits)


def _theta_step_int(x: int) -> int:
    if x < _FIFTH:
        return 2 * x
    if x < 2 * _FIFTH:
        return 3 * x - _FIFTH
    if x < 3 * _FIFTH:
        return 2 * x - 4 * _FIFTH
    return (3 * x - _ONE) >> 1


def theta_driver(omega):
    """The 4-branch piecewise-linear Lebesgue-preserving driver on [0, 1]."""
    w = np.asarray(omega, dtype=float)
    if np.any((w < 0.0) | (w > 1.0)):
        raise ValueError("driver state must lie in [0, 1]")
    out = np.select(
        [w < 0.2, w < 0.4, w < 0.6],
        [2.0 * w, 3.0 * w - 0.2, 2.0 * w - 0.8],
        default=1.5 * w - 0.5,
    )
    return float(out) if np.isscalar(omega) or np.ndim(omega) == 0 else out


def _run_fixed(fv: _FixedVector, step, n: int, dim: int, space: str = TORUS) -> Orbit:
    out: list[float] = []
    fv.emit(out)
    for k in range(n - 1):
        step(fv, k)
        fv.emit(out)
    return Orbit(np.asarray(out, dtype=float).reshape(n, dim), space)


def iterate(map_spec: MapSpec, x0, n: int) -> Orbit:
    """Exact orbit [x0, T x0, ..., T^(n-1) x0] of a dyadic initial point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(map_spec, PerturbedMap):
        if map_spec.epsilon == 0.0:
            return iterate(map_spec.base, x0, n)
        raise ValueError("perturbed maps need a noise stream; use iterate_random")
    fv = _FixedVector.from_floats(x0, map_spec.dim)
    if isinstance(map_spec, TimesMap):
        step = lambda s, k: _step_times(s, map_spec.m, map_spec.bits_per_step)
    else:
        step = lambda s, k: _step_toral(s, map_spec.matrix, map_spec.bits_per_step)
    return _run_fixed(fv, step, n, map_spec.dim)


def lebesgue_orbit(map_spec: MapSpec, n: int, seed: int) -> Orbit:
    """Orbit from a Lebesgue-random start, with lazy precision refresh."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(map_spec, PerturbedMap):
        raise ValueError("perturbed maps need a noise stream; use iterate_random")
    refresher = _pyrandom.Random(spawn_seed(seed, 0))
    fv = _FixedVector.uniform(map_spec.dim, refresher)
    if isinstance(map_spec, TimesMap):
        step = lambda s, k: _step_times(s, map_spec.m, map_spec.bits_per_step)
    else:
        step = lambda s, k: _step_toral(s, map_spec.matrix, map_spec.bits_per_step)
    return _run_fixed(fv, step, n, map_spec.dim)


@dataclass(frozen=True)
class ThetaDriver:
    """Deterministic piecewise-linear driver; maps[0] below 2/5, maps[1] above."""

    kind = "piecewise_linear_theta"


@dataclass(frozen=True)
class BernoulliDriver:
    """I.i.d. choice of maps[0] with probability q, maps[1] otherwise."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")

    kind = "iid_bernoulli"


@dataclass(frozen=True)
class UniformBallDriver:
    """I.i.d. additive noise uniform in (-epsilon, epsilon), applied after maps[0]."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("noise radius must be nonnegative")

    kind = "iid_uniform_ball"


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


def _noise_to_fixed(v: float) -> int:
    # 62 significant bits of noise is far beyond the 53 emitted per coordinate
    return int(v * (1 << 62)) << (FRACTION_BITS - 62)


def iterate_random(system: SkewSystem, omega0, x0, n: int, seed: int
                   ) -> tuple[Orbit, np.ndarray]:
    """Random orbit x_{k+1} = T_{omega_k}(x_k) plus the driver trajectory.

    omega0/x0 may be None, meaning: draw from the invariant (uniform) law with
    lazy bit refresh. Explicit values are iterated exactly. The trajectory
    holds driver states (theta), map indices (Bernoulli) or noise offsets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = system.dim
    if x0 is None:
        fv = _FixedVector.uniform(dim, _pyrandom.Random(spawn_seed(seed, 0)))
    else:
        fv = _FixedVector.from_floats(x0, dim)
    maps = system.maps
    driver = system.driver

    def fiber_step(fv_, idx):
        m = maps[idx]
        if isinstance(m, TimesMap):
            _step_times(fv_, m.m, m.bits_per_step)
        else:
            _step_toral(fv_, m.matrix, m.bits_per_step)

    out: list[float] = []
    if isinstance(driver, ThetaDriver):
        if omega0 is None:
            wref = _pyrandom.Random(spawn_seed(seed, 1))
            wfv = _FixedVector([wref.getrandbits(FRACTION_BITS)], wref)
        else:
            wfv = _FixedVector.from_floats(omega0, 1)
        traj = np.empty(n, dtype=float)
        fv.emit(out)
        traj[0] = (wfv.coords[0] >> _OUT_SHIFT) * _OUT_SCALE
        for k in range(1, n):
            idx = 0 if wfv.coords[0] < 2 * _FIFTH else 1
            fiber_step(fv, idx)
            wfv.coords[0] = _theta_step_int(wfv.coords[0])
            wfv.spend(2)  # steepest branch slope is 3
            fv.emit(out)
            traj[k] = (wfv.coords[0] >> _OUT_SHIFT) * _OUT_SCALE
    elif isinstance(driver, BernoulliDriver):
        rng = np.random.default_rng(spawn_seed(seed, 1))
        idxs = (rng.random(max(n - 1, 0)) >= driver.q).astype(np.int64)
        fv.emit(out)
        for k in range(n - 1):
            fiber_step(fv, int(idxs[k]))
            fv.emit(out)
        traj = idxs.astype(float)
    else:
        rng = np.random.default_rng(spawn_seed(seed, 1))
        eps = driver.epsilon
        noise = rng.uniform(-eps, eps, max(n - 1, 0)) if eps > 0 else np.zeros(max(n - 1, 0))
        base = maps[0]
        assert isinstance(base, TimesMap)
        fv.emit(out)
        for k in range(n - 1):
            _step_times_noisy(fv, base.m, base.bits_per_step, _noise_to_fixed(float(noise[k])))
            fv.emit(out)
        traj = noise
    orbit = Orbit(np.asarray(out, dtype=float).reshape(n, dim), TORUS)
    return orbit, traj


@dataclass(frozen=True)
class IdentityObservation:
    kind = "identity"


@dataclass(frozen=True)
class CoordinateProjection:
    index: int
    kind = "coordinate_projection"


@dataclass(frozen=True)
class LipschitzAffine:
    """x -> M x + b into plain Euclidean space."""

    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]
    kind = "lipschitz_affine"

    def __post_init__(self):
        M = tuple(tuple(float(v) for v in row) for row in self.matrix)
        b = tuple(float(v) for v in self.offset)
        if len(M) != len(b) or any(len(r) != len(M[0]) for r in M):
            raise ValueError("matrix/offset shapes are inconsistent")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "offset", b)

    @property
    def lipschitz_constant(self) -> float:
        return max(sum(abs(v) for v in row) for row in self.matrix)


@dataclass(frozen=True)
class Collapse:
    """Constant on the interval [lo, hi], identity elsewhere (1-d spaces)."""

    interval: tuple[float, float]
    value: float
    kind = "collapse"

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
