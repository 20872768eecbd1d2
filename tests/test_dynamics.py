import random
from fractions import Fraction

import numpy as np
import pytest

from matchdim import (BernoulliDriver, Collapse, CoordinateProjection,
                      IdentityObservation, LipschitzAffine, Orbit,
                      SkewSystem, ThetaDriver, TimesMap, ToralAutomorphism,
                      UniformBallDriver, default_toral_pair, iterate,
                      iterate_random, lebesgue_orbit, observe, torus_distance)
from matchdim import dynamics
from matchdim.dynamics import _BLOCK
from matchdim.seeding import spawn_seed


class TestOrbit:
    @pytest.mark.parametrize("space", ["torus", "cube"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, space, bad):
        with pytest.raises(ValueError, match="finite"):
            Orbit(np.array([[bad], [0.5]]), space=space)

    @pytest.mark.parametrize("space", ["torus", "cube"])
    def test_rejects_zero_columns(self, space):
        with pytest.raises(ValueError, match=r"nonempty \(n, dim\) array"):
            Orbit(np.zeros((3, 0)), space=space)

    @pytest.mark.parametrize("shape", [(5,), (5, 2)])
    def test_caller_array_stays_writeable(self, shape):
        pts = np.random.default_rng(0).random(shape)
        orb = Orbit(pts)
        assert not orb.points.flags.writeable
        pts[0] = 0.25
        assert orb.points[0, 0] == 0.25  # a view, not a copy


class TestMaps:
    def test_times_fixed_point(self):
        orb = iterate(TimesMap(2), 0.0, 5)
        assert np.all(orb.points == 0.0)

    def test_doubling_arithmetic(self):
        orb = iterate(TimesMap(2), 0.3, 3)
        assert orb.points.ravel() == pytest.approx([0.3, 0.6, 0.2], abs=1e-12)

    def test_toral_fixed_point(self):
        orb = iterate(ToralAutomorphism(((2, 1), (1, 1))), (0.0, 0.0), 4)
        assert np.all(orb.points == 0.0)

    def test_multiplier_bound(self):
        with pytest.raises(ValueError):
            TimesMap(1)

    def test_hyperbolicity_enforced(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            ToralAutomorphism(((1, 1), (0, 1)))  # parabolic: eigenvalues 1, 1

    def test_determinant_enforced(self):
        with pytest.raises(ValueError, match="determinant"):
            ToralAutomorphism(((2, 0), (0, 2)))

    def test_default_pair_positive(self):
        assert all(v > 0 for a in default_toral_pair() for row in a.matrix for v in row)

    def test_mod_one_closure(self):
        orb = iterate(ToralAutomorphism(((2, 1), (1, 1))), (0.37, 0.81), 200)
        assert orb.points.min() >= 0.0 and orb.points.max() < 1.0


class TestLebesgueOrbits:
    def test_no_precision_collapse(self):
        # float iteration of the doubling map dies after ~50 steps; the
        # refreshed fixed-point orbit must stay nondegenerate for thousands
        orb = lebesgue_orbit(TimesMap(2), 5000, 42)
        tail = orb.points[4000:, 0]
        assert len(np.unique(tail)) == len(tail)
        assert 0.4 < tail.mean() < 0.6
        assert tail.std() > 0.2

    def test_deterministic_in_seed(self):
        a = lebesgue_orbit(TimesMap(3), 500, 9)
        b = lebesgue_orbit(TimesMap(3), 500, 9)
        assert np.array_equal(a.points, b.points)

    def test_doubling_relation_holds(self):
        orb = lebesgue_orbit(TimesMap(2), 300, 5).points.ravel()
        rel = (2 * orb[:-1]) % 1.0
        # refresh only touches bits far below emitted float precision
        assert np.max(np.minimum(np.abs(rel - orb[1:]), 1 - np.abs(rel - orb[1:]))) < 1e-9


class TestThetaDriver:
    """The fixed-point driver trajectory, the second output of iterate_random."""

    system = SkewSystem(ThetaDriver(), (TimesMap(2), TimesMap(3)))

    def image(self, w):
        return iterate_random(self.system, w, 0.0, 2, seed=1)[1][1]

    def test_branch_values(self):
        assert self.image(0.0) == 0.0
        assert self.image(0.3) == pytest.approx(0.7, abs=1e-12)
        assert self.image(0.5) == pytest.approx(0.2, abs=1e-12)
        # an explicit state is taken mod 1: the state 1.0 is probed just below
        assert self.image(np.nextafter(1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_lebesgue_invariance_empirical(self):
        # a trajectory from a Lebesgue-random start: every state is uniform,
        # but successive states are correlated (most near the fixed point 1),
        # so sigma is the spread of the means of 100 batches, not the i.i.d. one
        traj = iterate_random(self.system, None, None, 10 ** 6, seed=77)[1]
        bins = 20
        freq = np.array([np.histogram(batch, bins=bins, range=(0.0, 1.0))[0]
                         for batch in traj.reshape(100, -1)]) / 10 ** 4
        sigma = freq.std(axis=0, ddof=1) / np.sqrt(100)
        assert np.max(np.abs(freq.mean(axis=0) - 1.0 / bins) / sigma) < 3


class TestSkewSystems:
    def test_theta_fixed_point_driver_gives_pure_doubling(self):
        system = SkewSystem(ThetaDriver(), (TimesMap(2), TimesMap(3)))
        orbit, traj = iterate_random(system, 0.0, 0.3, 6, seed=1)
        expected = iterate(TimesMap(2), 0.3, 6)
        assert np.array_equal(orbit.points, expected.points)
        assert np.all(traj == 0.0)

    def test_perturbed_zero_noise_equals_deterministic(self):
        system = SkewSystem(UniformBallDriver(0.0), (TimesMap(2),))
        orbit, _ = iterate_random(system, None, 0.3, 50, seed=3)
        assert np.array_equal(orbit.points, iterate(TimesMap(2), 0.3, 50).points)

    def test_degenerate_bernoulli_is_first_map(self):
        pair = default_toral_pair()
        system = SkewSystem(BernoulliDriver(1.0), pair)
        orbit, traj = iterate_random(system, None, (0.2, 0.7), 40, seed=4)
        assert np.array_equal(orbit.points, iterate(pair[0], (0.2, 0.7), 40).points)
        assert np.all(traj == 0)

    def test_theta_selector_threshold(self):
        system = SkewSystem(ThetaDriver(), (TimesMap(2), TimesMap(3)))
        orbit, traj = iterate_random(system, None, None, 4000, seed=8)
        # reconstruct selections from the driver trajectory
        mult = np.where(traj[:-1] < 0.4, 2.0, 3.0)
        xs = orbit.points[:, 0]
        step = (mult * xs[:-1]) % 1.0
        wrap_err = np.minimum(np.abs(step - xs[1:]), 1 - np.abs(step - xs[1:]))
        assert wrap_err.max() < 1e-9

    def test_selector_stationary_frequency(self):
        # two-state selector chain has stationary mass 2/5 on the first map
        system = SkewSystem(ThetaDriver(), (TimesMap(2), TimesMap(3)))
        _, traj = iterate_random(system, None, None, 200_000, seed=15)
        freq = float(np.mean(traj < 0.4))
        assert abs(freq - 0.4) < 0.02

    def test_perturbed_noise_bound(self):
        system = SkewSystem(UniformBallDriver(1e-3), (TimesMap(2),))
        _, noise = iterate_random(system, None, None, 1000, seed=5)
        assert np.max(np.abs(noise)) < 1e-3

    def test_driver_map_count_validation(self):
        with pytest.raises(ValueError):
            SkewSystem(ThetaDriver(), (TimesMap(2),))
        with pytest.raises(ValueError):
            SkewSystem(UniformBallDriver(0.1), (TimesMap(2), TimesMap(3)))


class TestObservations:
    def test_identity(self):
        orb = iterate(TimesMap(2), 0.3, 5)
        assert observe(IdentityObservation(), orb) is orb

    def test_collapse_on_and_off_the_set(self):
        orb = Orbit(np.array([[0.3], [0.7]]))
        out = observe(Collapse((0.0, 0.5), 0.25), orb)
        assert out.points.ravel() == pytest.approx([0.25, 0.7])

    def test_projection(self):
        orb = iterate(ToralAutomorphism(((2, 1), (1, 1))), (0.1, 0.2), 10)
        out = observe(CoordinateProjection(0), orb)
        assert out.dim == 1
        assert np.array_equal(out.points[:, 0], orb.points[:, 0])

    def test_affine_maps_to_euclidean_space(self):
        orb = Orbit(np.array([[0.5], [0.25]]))
        out = observe(LipschitzAffine(((2.0,),), (1.0,)), orb)
        assert out.space == "cube"
        assert out.points.ravel() == pytest.approx([2.0, 1.5])


class TestTorusDistance:
    def test_coincident(self):
        assert torus_distance([0.4], [0.4]) == 0.0

    def test_wraparound(self):
        assert torus_distance([0.1], [0.9]) == pytest.approx(0.2, abs=1e-15)

    def test_sup_metric_2d(self):
        assert torus_distance([0.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_euclidean_for_cube(self):
        assert torus_distance([0.0, 0.0], [3.0, 4.0], space="cube") == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            torus_distance([0.1], [0.1, 0.2])


# Per-step fixed-point reference: one coordinate list per point, reduced with
# `% 1`, refreshed coordinate by coordinate. It is the route the hoisted
# integer orbit loop replaced, kept here so every driver stays checkable.
_BITS = 1024
_UNIT = 1 << _BITS
_EMIT = _BITS - 53


class _Reference:
    def __init__(self, x0, dim, seed, role):
        if x0 is None:
            self.refresher = random.Random(spawn_seed(seed, role))
            self.coords = [self.refresher.getrandbits(_BITS) for _ in range(dim)]
        else:
            self.refresher = None
            fracs = [Fraction(float(v) % 1.0) for v in np.atleast_1d(x0)]
            self.coords = [f.numerator * _UNIT // f.denominator for f in fracs]
        self.precision = _BITS

    def spend(self, bits):
        if self.refresher is None:
            return
        self.precision -= bits
        if self.precision < 160:
            stale = _BITS - self.precision
            self.coords = [((c >> stale) << stale) | self.refresher.getrandbits(stale)
                           for c in self.coords]
            self.precision = _BITS

    def apply(self, fiber, noise=0.0):
        rows = fiber.matrix if isinstance(fiber, ToralAutomorphism) else ((fiber.m,),)
        shifted = int(noise * (1 << 62)) << (_BITS - 62)
        self.coords = [(sum(r * c for r, c in zip(row, self.coords)) + shifted) % _UNIT
                       for row in rows]
        self.spend(fiber.bits_per_step)

    def point(self):
        return [(c >> _EMIT) * 2.0 ** -53 for c in self.coords]


def _reference_theta(w):
    fifth = _UNIT // 5
    if w < fifth:
        return 2 * w
    if w < 2 * fifth:
        return 3 * w - fifth
    if w < 3 * fifth:
        return 2 * w - 4 * fifth
    return (3 * w - _UNIT) >> 1


def _reference_random(system, omega0, x0, n, seed):
    state = _Reference(x0, system.dim, seed, 0)
    points = [state.point()]
    driver = system.driver
    if isinstance(driver, ThetaDriver):
        w = _Reference(omega0, 1, seed, 1)
        traj = [w.point()[0]]
        for _ in range(n - 1):
            state.apply(system.maps[0 if w.coords[0] < 2 * (_UNIT // 5) else 1])
            w.coords = [_reference_theta(w.coords[0])]
            w.spend(2)
            points.append(state.point())
            traj.append(w.point()[0])
        return np.array(points), np.array(traj)
    rng = np.random.default_rng(spawn_seed(seed, 1))
    if isinstance(driver, BernoulliDriver):
        traj = (rng.random(n - 1) >= driver.q).astype(float)
        for idx in traj:
            state.apply(system.maps[int(idx)])
            points.append(state.point())
        return np.array(points), traj
    eps = driver.epsilon
    traj = rng.uniform(-eps, eps, n - 1) if eps > 0 else np.zeros(n - 1)
    for v in traj:
        state.apply(system.maps[0], float(v))
        points.append(state.point())
    return np.array(points), traj


def _reference_map(map_spec, x0, n, seed=None):
    state = _Reference(x0, map_spec.dim, seed, 0)
    points = [state.point()]
    for _ in range(n - 1):
        state.apply(map_spec)
        points.append(state.point())
    return np.array(points)


# The first points; the 62-bit window of the shift-register route filled
# from the low bits; its first refresh, which TimesMap(4) makes at step 433
# and TimesMap(2) at step 865; and n - 1 steps at one block of the integer
# loop minus one, one block and one block plus one, sizes that pass several
# refreshes.
_SIZES = [1, 2, 63, 64, 433, 434, 865, 866, _BLOCK, _BLOCK + 1, _BLOCK + 2]
_TORAL = ToralAutomorphism(((2, 1), (1, 1)))
_SYSTEMS = {
    "theta": SkewSystem(ThetaDriver(), (TimesMap(2), TimesMap(3))),
    "bernoulli_toral": SkewSystem(BernoulliDriver(0.5), default_toral_pair()),
    "noise_0": SkewSystem(UniformBallDriver(0.0), (TimesMap(2),)),
    "noise_1e-3": SkewSystem(UniformBallDriver(1e-3), (TimesMap(2),)),
    "noise_1e-3_times4": SkewSystem(UniformBallDriver(1e-3), (TimesMap(4),)),
    # offsets past 1 in magnitude keep only their residue mod 2^62: between 1
    # and 2 the fractional part differs from the offset, past 2 the scaled
    # offset no longer fits int64
    "noise_1.5": SkewSystem(UniformBallDriver(1.5), (TimesMap(2),)),
    "noise_3": SkewSystem(UniformBallDriver(3.0), (TimesMap(2),)),
}


class TestEngineMatchesReference:
    @pytest.mark.parametrize("n", _SIZES)
    @pytest.mark.parametrize("map_spec",
                             [TimesMap(2), TimesMap(3), TimesMap(4), TimesMap(8), _TORAL],
                             ids=["times2", "times3", "times4", "times8", "toral"])
    def test_deterministic_maps(self, map_spec, n):
        x0 = 0.3 if map_spec.dim == 1 else (0.37, 0.81)
        assert np.array_equal(iterate(map_spec, x0, n).points,
                              _reference_map(map_spec, x0, n))
        assert np.array_equal(lebesgue_orbit(map_spec, n, 21).points,
                              _reference_map(map_spec, None, n, seed=21))

    @pytest.mark.parametrize("n", _SIZES)
    @pytest.mark.parametrize("name", list(_SYSTEMS))
    def test_random_systems(self, name, n):
        system = _SYSTEMS[name]
        x0 = 0.3 if system.dim == 1 else (0.2, 0.7)
        omega0 = 0.55 if isinstance(system.driver, ThetaDriver) else None
        for start in ((None, None), (omega0, x0)):
            orbit, traj = iterate_random(system, *start, n, seed=13)
            ref_points, ref_traj = _reference_random(system, *start, n, seed=13)
            assert np.array_equal(orbit.points, ref_points)
            assert np.array_equal(traj, ref_traj)

    def test_power_of_two_maps_skip_the_integer_loop(self, monkeypatch):
        def unused(*args):
            raise AssertionError("integer loop used")

        monkeypatch.setattr(dynamics, "_orbit", unused)
        lebesgue_orbit(TimesMap(8), 100, 1)
        iterate_random(_SYSTEMS["noise_3"], None, None, 100, seed=1)
        with pytest.raises(AssertionError, match="integer loop"):
            lebesgue_orbit(TimesMap(3), 100, 1)

    def test_negative_noise_wraps_a_point_near_zero(self):
        system = _SYSTEMS["noise_1e-3"]
        seed = next(s for s in range(100)
                    if iterate_random(system, None, 0.0, 2, s)[1][0] < 0)
        orbit, traj = iterate_random(system, None, 0.0, 50, seed)
        ref_points, ref_traj = _reference_random(system, None, 0.0, 50, seed)
        assert orbit.points[1, 0] > 0.999  # 0 * 2 + negative noise, mod 1
        assert np.array_equal(orbit.points, ref_points)
        assert np.array_equal(traj, ref_traj)
