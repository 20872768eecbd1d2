import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Collapse, Orbit, correlation_dimension,
                      default_radius_window, distance_profile, iterate,
                      observe, shortest_distance, shortest_distance_fast,
                      TimesMap)
from matchdim import geometry
from matchdim.geometry import _common_point, _pair_counts_below


def pair_count(pts, r, space="torus"):
    """#{i<j : d < r}, counted through one `_close_pairs` grid at r."""
    return int(_pair_counts_below(np.asarray(pts, dtype=float), np.array([r]), space)[0])


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_common_point_matches_brute_force(self, dim, seed):
        rng = np.random.default_rng(seed)
        pa, pb = rng.random((300, dim)), rng.random((400, dim))
        assert _common_point(pa, pb) is None
        if dim > 1:  # equal first coordinates only: no coincidence
            pb[rng.choice(400, 40, replace=False), 0] = pa[rng.choice(300, 40), 0]
            assert _common_point(pa, pb) is None
        for i in rng.choice(300, 5, replace=False):  # several j per i
            pb[rng.choice(400, 3, replace=False)] = pa[i]
        lattice = rng.integers(0, 3, (300, dim)) / 4.0  # many equal rows
        for a, b in ((pa, pb), (lattice, lattice[::-1].copy()), (lattice[:50], pb)):
            equal = (a.view(np.uint64)[:, None] == b.view(np.uint64)[None]).all(axis=2)
            hits = np.argwhere(equal)
            expected = tuple(int(v) for v in hits[0]) if hits.size else None
            assert _common_point(a, b) == expected
            if expected is not None:
                n = min(len(a), len(b))
                fast = shortest_distance_fast(Orbit(a[:n]), Orbit(b[:n]), n)
                assert fast == shortest_distance(Orbit(a[:n]), Orbit(b[:n]), n)

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


def assert_profile_matches_reference(a, b, schedule):
    prof = distance_profile(a, b, schedule)
    for n, m, witness in zip(schedule, prof.m_values, prof.witnesses):
        ref = shortest_distance(a, b, n)
        assert (m, witness) == (ref.distance, ref.witness), n
    return prof


@pytest.fixture
def routes(monkeypatch):
    """Records the n of each single-n search, each other `_close_pairs` call
    (a pass) as (N, r, route), route "grid" or "block" by which of the two
    served it, and each n whose coincidence `_common_point` found."""
    seen = {"single_n": [], "passes": [], "coincident": []}
    nearest, close_pairs = geometry._nearest, geometry._close_pairs
    common_point, grid_pairs = geometry._common_point, geometry._Grid.pairs
    searching, served = [], []

    def spy_nearest(pa, pb, space, n):
        seen["single_n"].append(n)
        searching.append(n)
        try:
            return nearest(pa, pb, space, n)
        finally:
            searching.pop()

    def spy_close_pairs(pa, pb, space, r):
        served.append("block")
        yield from close_pairs(pa, pb, space, r)
        route = served.pop()
        if not searching:
            seen["passes"].append((len(pa), r, route))

    def spy_grid_pairs(grid, query):
        served[-1] = "grid"
        return grid_pairs(grid, query)

    def spy_common_point(pa, pb):
        hit = common_point(pa, pb)
        if hit is not None:
            seen["coincident"].append(len(pa))
        return hit

    monkeypatch.setattr(geometry, "_nearest", spy_nearest)
    monkeypatch.setattr(geometry, "_close_pairs", spy_close_pairs)
    monkeypatch.setattr(geometry._Grid, "pairs", spy_grid_pairs)
    monkeypatch.setattr(geometry, "_common_point", spy_common_point)
    return seen


class TestCertifiedPass:
    """distance_profile against shortest_distance at every scheduled n."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_orbits_and_schedules(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        dim = int(rng.integers(1, 3))
        space = ("torus", "cube")[int(rng.integers(2))]
        scale = 1.0 if space == "torus" else float(rng.uniform(0.3, 5.0))
        a = Orbit(scale * rng.random((n, dim)), space=space)
        b = Orbit(scale * rng.random((n, dim)), space=space)
        schedule = tuple(int(v) for v in np.unique(rng.integers(1, n + 1, size=5)))
        assert_profile_matches_reference(a, b, schedule)

    def test_one_single_n_search_then_one_pass(self, routes):
        a, b = uniform_orbit(20, 4096), uniform_orbit(21, 4096)
        prof = assert_profile_matches_reference(a, b, (64, 256, 1024, 4096))
        assert routes == {"single_n": [64], "passes": [(4096, prof.m_values[0], "grid")],
                          "coincident": []}

    def test_pair_at_exactly_the_radius(self, routes):
        # with cells exactly as wide as r, rounding in (x - min) / width puts
        # a0 and b0, exactly r apart, two cells apart, and the pass would
        # miss the only pair within r
        x, y = 7.743413417387507, 8.575098228943586
        low, high = -2.2368043212854447, -2.2368043212854447 + 37 * 0.8316848115560794
        a = Orbit(np.array([[x], [low]]), space="cube")
        b = Orbit(np.array([[y], [high]]), space="cube")
        prof = assert_profile_matches_reference(a, b, (1, 2))
        assert prof.witnesses == ((0, 0), (0, 0))
        assert routes["passes"] == [(2, y - x, "grid")]

    def test_coincidence_after_the_first_n(self, routes):
        rng = np.random.default_rng(22)
        pa, pb = rng.random((512, 1)), rng.random((512, 1))
        pb[300] = pa[200]
        a, b = Orbit(pa), Orbit(pb)
        prof = assert_profile_matches_reference(a, b, (32, 128, 512))
        assert prof.m_values[-1] == 0.0 and prof.m_values[0] > 0.0
        assert routes == {"single_n": [32], "passes": [(128, prof.m_values[0], "grid")],
                          "coincident": [512]}

    @pytest.mark.parametrize("space", ["torus", "cube"])
    def test_exhaustive_grid_at_the_radius(self, routes, space):
        # n0 = 1 puts r near the typical distance: at most three cells per
        # axis; 300 lies beyond _PASS_SPAN * n0 and is searched on its own
        rng = np.random.default_rng(23)
        a = Orbit(rng.random((300, 1)), space=space)
        b = Orbit(rng.random((300, 1)), space=space)
        prof = assert_profile_matches_reference(a, b, (1, 10, 300))
        assert routes == {"single_n": [1, 300], "passes": [(10, prof.m_values[0], "block")],
                          "coincident": []}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cube_with_non_unit_spans(self, routes, dim):
        rng = np.random.default_rng(24 + dim)
        spans = np.array([7.0, 0.3])[:dim]
        a = Orbit(rng.random((1500, dim)) * spans - 2.0, space="cube")
        b = Orbit(rng.random((1500, dim)) * spans + 0.1, space="cube")
        prof = assert_profile_matches_reference(a, b, (50, 200, 800, 1500))
        assert routes["passes"] == [(1500, prof.m_values[0], "grid")]

    @pytest.mark.parametrize("spread", [0.0, 1e-9])
    def test_flat_cube_axis(self, routes, spread):
        # the second axis, narrower than r, is held in one cell; its width
        # must not keep the grid on the first axis from serving the pass
        rng = np.random.default_rng(28)
        pa, pb = rng.random((500, 2)), rng.random((500, 2))
        pa[:, 1] *= spread
        pb[:, 1] *= spread
        a, b = Orbit(pa, space="cube"), Orbit(pb, space="cube")
        assert shortest_distance_fast(a, b, 500) == shortest_distance(a, b, 500)
        prof = assert_profile_matches_reference(a, b, (20, 100, 500))
        assert routes["passes"] == [(500, prof.m_values[0], "grid")]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_distance_ties(self, routes, dim):
        # half-shifted lattices tie at one distance from the first n on, so
        # the witness at n is the least (i, j) among tied pairs with i, j < n,
        # not the least tied pair overall
        rng = np.random.default_rng(25)
        levels = 32
        pa = rng.integers(0, levels, (600, dim)) / levels
        pb = (rng.integers(0, levels, (600, dim)) + 0.5) / levels
        a, b = Orbit(pa), Orbit(pb)
        schedule = (40, 80, 160, 320, 600)
        prof = assert_profile_matches_reference(a, b, schedule)
        assert len(set(prof.m_values.tolist())) == 1
        assert len(set(prof.witnesses)) > 1
        assert routes["passes"] == [(600, prof.m_values[0], "grid")]

    def test_a_long_schedule_starts_a_new_pass(self, routes):
        a, b = uniform_orbit(26, 2048), uniform_orbit(27, 2048)
        schedule = tuple(2 ** p for p in range(2, 12))
        prof = assert_profile_matches_reference(a, b, schedule)
        assert routes["single_n"] == [4, 2048]
        assert routes["passes"] == [(1024, prof.m_values[0], "grid")]


class TestCorrelationSum:
    def test_radius_beyond_diameter(self):
        pts = np.random.default_rng(1).random((100, 1))
        assert pair_count(pts, 0.6) == 100 * 99 // 2  # wrap diameter is 1/2

    def test_two_points_small_radius(self):
        pts = np.array([[0.2], [0.5]])
        assert pair_count(pts, 0.1) == 0

    def test_uniform_circle_analytic(self):
        # E[C(r)] = 2r for the wrap metric on the circle
        pts = np.random.default_rng(2).random((10_000, 1))
        m = len(pts)
        assert 2.0 * pair_count(pts, 0.01) / (m * (m - 1)) == pytest.approx(0.02, rel=0.10)

    def test_monotone_in_radius(self):
        pts = np.random.default_rng(3).random((500, 2))
        counts = [pair_count(pts, r) for r in (0.01, 0.03, 0.1, 0.3)]
        assert counts == sorted(counts)
        fit = correlation_dimension(pts, 0.01, 0.3, n_radii=4)
        assert fit.sums.tolist() == sorted(fit.sums.tolist())
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
            assert pair_count(pts, r, space) == (upper < r).sum()
        fit = correlation_dimension(pts, radii[0], radii[-1], n_radii=3, space=space)
        for r, total in zip(fit.radii, fit.sums):
            assert total == 2.0 * (upper < r).sum() / (m * (m - 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -0.25])
    def test_rejects_invalid_points(self, bad):
        pts = np.array([[0.1], [bad], [0.5]])
        with pytest.raises(ValueError):
            correlation_dimension(pts, 0.01, 0.1)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            correlation_dimension(np.array([[0.1]]), 0.01, 0.1)


class TestCloseGridShape:
    """In the grid `_close_pairs` builds, an axis split into several cells is
    at least r wide, and a torus grid is exhaustive or has more than three
    cells on every axis, so the shifts -1, 0, 1 stay distinct modulo every
    cell count and `pairs` yields no pair twice."""

    @pytest.mark.parametrize("space", ["torus", "cube"])
    def test_split_axes_are_wide_and_torus_axes_agree(self, space):
        rng = np.random.default_rng(31)
        for _ in range(1500):
            dim = int(rng.integers(1, 4))
            r = 10.0 ** rng.uniform(-21.0, 0.5)
            spans = np.ones(dim)
            if space == "cube":
                spans = 10.0 ** rng.uniform(-22.0, 3.0, dim)
                spans[rng.random(dim) < 0.2] = 1e-300  # a flat axis, as floored
            w = float(np.nextafter(r, np.inf)) * (1.0 + 1e-12)
            with np.errstate(invalid="ignore"):  # span / w past 2^63
                grid = geometry._Grid(np.zeros((1, dim)), w, space, np.zeros(dim), spans)
            split = grid.k_axes > 1
            assert (grid.widths[split] >= r).all(), (r, spans)
            if space == "torus":
                assert grid.exhaustive or (grid.k_axes > 3).all(), (r, grid.k_axes)


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
