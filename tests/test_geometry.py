import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Collapse, Orbit, correlation_dimension, correlation_sum,
                      default_radius_window, distance_profile, iterate,
                      observe, shortest_distance, shortest_distance_fast,
                      TimesMap)


def uniform_orbit(seed, n, dim=1):
    rng = np.random.default_rng(seed)
    return Orbit(rng.random((n, dim)))


class TestShortestDistance:
    def test_identical_orbits(self):
        a = uniform_orbit(1, 50)
        r = shortest_distance(a, a, 50)
        assert r.distance == 0.0
        assert r.witness == (0, 0)

    def test_wrap_metric_single_points(self):
        a = Orbit(np.array([[0.1]]))
        b = Orbit(np.array([[0.9]]))
        assert shortest_distance(a, b, 1).distance == pytest.approx(0.2, abs=1e-15)

    def test_collapse_set_orbits_coincide(self):
        # both orbits observed through a constant patch: distance exactly 0
        obs = Collapse((0.0, 0.5), 0.25)
        a = observe(obs, iterate(TimesMap(2), 0.1, 64))
        b = observe(obs, iterate(TimesMap(2), 0.3, 64))
        assert shortest_distance(a, b, 64).distance == 0.0
        assert shortest_distance_fast(a, b, 64).distance == 0.0

    def test_n_bounds(self):
        a = uniform_orbit(2, 10)
        with pytest.raises(ValueError):
            shortest_distance(a, a, 11)

    def test_space_mismatch(self):
        a = uniform_orbit(3, 5)
        b = Orbit(np.random.default_rng(0).random((5, 1)), space="cube")
        with pytest.raises(ValueError):
            shortest_distance(a, b, 5)

    @pytest.mark.parametrize("space", ["torus", "cube"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_ties_match_full_matrix(self, space, dim, shift):
        # coarse lattice points tie often, and minima spread over many rows
        # cross the reference's row-block boundaries; a half-cell shift of b
        # trades coincident points for ties at a positive distance
        rng = np.random.default_rng(dim)
        n, levels = 700, 4 * dim
        a = rng.integers(0, levels, (n, dim)) / levels
        b = (rng.integers(0, levels, (n, dim)) + shift) / levels % 1.0
        if space == "cube":
            a, b = 3.0 * a - 1.0, 3.0 * b - 1.0
        delta = np.abs(a[:, None, :] - b[None, :, :])
        if space == "torus":
            full = np.minimum(delta, 1.0 - delta).max(axis=2)
        else:
            full = np.sqrt((delta ** 2).sum(axis=2))
        rows = np.nonzero(full == full.min())[0]
        assert rows[-1] - rows[0] > n // 2
        oa, ob = Orbit(a, space=space), Orbit(b, space=space)
        witness = np.unravel_index(np.argmin(full), full.shape)
        for r in (shortest_distance(oa, ob, n), shortest_distance_fast(oa, ob, n)):
            assert r.distance == full.min()
            assert r.witness == witness


class TestFastPath:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        dim = int(rng.integers(1, 3))
        a = Orbit(rng.random((n, dim)))
        b = Orbit(rng.random((n, dim)))
        ref = shortest_distance(a, b, n)
        fast = shortest_distance_fast(a, b, n)
        assert fast.distance == ref.distance
        assert fast.witness == ref.witness

    def test_separated_orbits(self):
        # every pair exactly 0.4 apart in both coordinates
        a = Orbit(np.tile([0.1, 0.2], (10, 1)))
        b = Orbit(np.tile([0.5, 0.6], (10, 1)))
        ref = shortest_distance(a, b, 10)
        fast = shortest_distance_fast(a, b, 10)
        assert fast.distance == ref.distance == pytest.approx(0.4, abs=1e-15)

    def test_duplicate_heavy_inputs(self):
        # large identical clusters must short-circuit, not blow up the grid
        pts = np.full((5000, 1), 0.25)
        a = Orbit(pts)
        b = Orbit(pts.copy())
        r = shortest_distance_fast(a, b, 5000)
        assert r.distance == 0.0
        assert r.witness == (0, 0)

    def test_cube_space(self):
        rng = np.random.default_rng(11)
        a = Orbit(rng.random((200, 2)) * 3.0, space="cube")
        b = Orbit(rng.random((200, 2)) * 3.0 + 0.5, space="cube")
        ref = shortest_distance(a, b, 200)
        fast = shortest_distance_fast(a, b, 200)
        assert fast.distance == ref.distance
        assert fast.witness == ref.witness


class TestDistanceProfile:
    def test_identical_orbit_profile(self):
        a = uniform_orbit(5, 8)
        prof = distance_profile(a, a, (1, 2, 4))
        assert np.all(prof.m_values == 0.0)

    def test_nonincreasing_and_matches_direct(self):
        a = uniform_orbit(6, 512)
        b = uniform_orbit(7, 512)
        sched = (8, 32, 128, 512)
        prof = distance_profile(a, b, sched)
        assert np.all(np.diff(prof.m_values) <= 0)
        for n, m, wit in zip(sched, prof.m_values, prof.witnesses):
            direct = shortest_distance(a, b, n)
            assert m == direct.distance
            assert wit == direct.witness

    def test_witness_realizes_value(self):
        a = uniform_orbit(8, 128)
        b = uniform_orbit(9, 128)
        prof = distance_profile(a, b, (16, 128))
        from matchdim import torus_distance
        for m, (i, j) in zip(prof.m_values, prof.witnesses):
            assert torus_distance(a.points[i], b.points[j]) == m

    def test_schedule_validation(self):
        a = uniform_orbit(10, 4)
        with pytest.raises(ValueError):
            distance_profile(a, a, (4, 2))


class TestCorrelationSum:
    def test_radius_beyond_diameter(self):
        pts = np.random.default_rng(1).random((100, 1))
        assert correlation_sum(pts, 0.6) == 1.0  # wrap diameter is 1/2

    def test_two_points_small_radius(self):
        pts = np.array([[0.2], [0.5]])
        assert correlation_sum(pts, 0.1) == 0.0

    def test_uniform_circle_analytic(self):
        # E[C(r)] = 2r for the wrap metric on the circle
        pts = np.random.default_rng(2).random((10_000, 1))
        assert correlation_sum(pts, 0.01) == pytest.approx(0.02, rel=0.10)

    def test_monotone_in_radius(self):
        pts = np.random.default_rng(3).random((500, 2))
        sums = [correlation_sum(pts, r) for r in (0.01, 0.03, 0.1, 0.3)]
        assert sums == sorted(sums)
        assert pts.flags.writeable  # validation must not freeze the input

    @pytest.mark.parametrize("space", ["torus", "cube"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("lattice", [True, False])
    def test_grid_matches_direct_counting(self, space, dim, lattice):
        # radii of 1..7 lattice spacings put 1, 2, 3 and more cells on each
        # axis; on the lattice, pairs exactly one radius apart test the strict
        # `<`, and at the widest radius one cell holds all m^2 ordered pairs,
        # more than one chunk
        rng = np.random.default_rng(dim)
        m, levels = 400, 12
        if lattice:
            pts = rng.integers(0, levels, (m, dim)) / levels
        else:
            pts = rng.random((m, dim))
        radii = np.arange(1, 8) / levels
        if space == "cube":
            pts, radii = 3.0 * pts - 1.0, 3.0 * radii
        spans = np.ones(dim) if space == "torus" else np.ptp(pts, axis=0)
        cells = {max(int(s / r), 1) for s in spans for r in radii}
        assert {1, 2, 3} <= cells and max(cells) > 3
        delta = np.abs(pts[:, None, :] - pts[None, :, :])
        if space == "torus":
            full = np.minimum(delta, 1.0 - delta).max(axis=2)
        else:
            full = np.sqrt((delta ** 2).sum(axis=2))
        upper = full[np.triu_indices(m, k=1)]
        for r in radii:
            expected = 2.0 * (upper < r).sum() / (m * (m - 1))
            assert correlation_sum(pts, r, space=space) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -0.25])
    def test_rejects_invalid_points(self, bad):
        pts = np.array([[0.1], [bad], [0.5]])
        with pytest.raises(ValueError):
            correlation_sum(pts, 0.1)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            correlation_sum(np.array([[0.1]]), 0.1)


class TestCorrelationDimension:
    def test_uniform_circle(self):
        pts = np.random.default_rng(5).random((20_000, 1))
        fit = correlation_dimension(pts, *default_radius_window(20_000, 1))
        assert fit.slope == pytest.approx(1.0, abs=0.08)

    def test_uniform_torus2(self):
        pts = np.random.default_rng(6).random((20_000, 2))
        fit = correlation_dimension(pts, *default_radius_window(20_000, 2))
        assert fit.slope == pytest.approx(2.0, abs=0.15)

    def test_degenerate_cloud_slope_zero(self):
        pts = np.full((200, 1), 0.37)
        fit = correlation_dimension(pts, 1e-4, 1e-2)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert np.all(fit.sums == 1.0)

    def test_empty_radii_excluded_with_warning(self):
        # smallest radii fall below the nearest-pair distance and drop out,
        # while enough larger radii remain for the fit
        pts = np.random.default_rng(8).random((200, 1))
        with pytest.warns(RuntimeWarning, match="excluded"):
            fit = correlation_dimension(pts, 1e-7, 0.3, n_radii=10)
        assert fit.n_excluded >= 1
        assert np.isfinite(fit.slope)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_too_few_usable_radii(self):
        pts = np.array([[0.0], [0.5]])
        with pytest.raises(ArithmeticError):
            correlation_dimension(pts, 1e-6, 1e-4, n_radii=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -0.25])
    def test_rejects_invalid_points(self, bad):
        pts = np.random.default_rng(9).random((50, 1))
        pts[7, 0] = bad
        with pytest.raises(ValueError):
            correlation_dimension(pts, 0.01, 0.1)

    def test_window_validation(self):
        pts = np.random.default_rng(7).random((50, 1))
        with pytest.raises(ValueError):
            correlation_dimension(pts, 0.1, 0.01)
        with pytest.raises(ValueError):
            correlation_dimension(pts, 0.01, 0.1, n_radii=2)
