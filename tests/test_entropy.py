import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Alphabet, IIDSource, MarkovSource, SymbolSeq,
                      build_qstar, dominant_eigenvalue, empirical_plateau, renyi2_empirical,
                      renyi2_iid, renyi2_markov, renyi2_scrabble,
                      renyi2_zero_inflated, sample)
from matchdim import entropy
from matchdim.sources import window_counts
from oracles import block_counts, ordered_counts


def two_state_oracle(a, b):
    """Largest root of l^2 - (a^2+(1-b)^2) l + a^2 (1-b)^2 - (1-a)^2 b^2 = 0."""
    tr = a * a + (1 - b) * (1 - b)
    det = a * a * (1 - b) * (1 - b) - (1 - a) * (1 - a) * b * b
    lam = (tr + math.sqrt(tr * tr - 4 * det)) / 2
    return -math.log(lam)


def sarrus_det3(M, lam):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    a, e, i = a - lam, e - lam, i - lam
    return a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h


def perron_by_bisection(M):
    """Rightmost real root of the 3x3 characteristic polynomial."""
    hi = float(M.sum(axis=1).max()) + 1.0
    xs = np.linspace(0.0, hi, 20_000)
    vals = np.array([sarrus_det3(M, x) for x in xs])
    flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    a, b = xs[flips[-1]], xs[flips[-1] + 1]
    fa = sarrus_det3(M, a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = sarrus_det3(M, mid)
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


class TestClosedForms:
    def test_iid_fair(self):
        assert renyi2_iid([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-14)

    def test_iid_degenerate(self):
        assert renyi2_iid([1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_iid_skewed(self):
        assert renyi2_iid([0.9, 0.1]) == pytest.approx(-math.log(0.82), abs=1e-12)

    def test_markov_rank_one(self):
        assert renyi2_markov([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(math.log(2), abs=1e-10)

    def test_markov_trivial(self):
        assert renyi2_markov([[1.0]]) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_markov_two_state_quadratic_oracle(self, a, b):
        P = [[a, 1 - a], [b, 1 - b]]
        assert renyi2_markov(P) == pytest.approx(two_state_oracle(a, b), abs=1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_rank_one_equals_iid(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.random(int(rng.integers(2, 6)))
        q /= q.sum()
        P = np.tile(q, (q.size, 1))
        assert abs(renyi2_markov(P) - renyi2_iid(q)) < 1e-9

    def test_markov_requires_irreducible(self):
        with pytest.raises(ValueError):
            renyi2_markov([[1.0, 0.0], [0.0, 1.0]])

    def test_zero_inflated(self):
        assert renyi2_zero_inflated([0.5, 0.5], 0.0) == pytest.approx(math.log(2))
        assert renyi2_zero_inflated([0.5, 0.5], 0.5) == pytest.approx(0.5 * math.log(2))
        assert renyi2_zero_inflated([0.5, 0.5], 1 - 1e-12) == pytest.approx(0.0, abs=1e-11)

    @given(st.floats(0.0, 0.99), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_entropy_bounds(self, eps, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(int(rng.integers(2, 6)))
        p /= p.sum()
        h = renyi2_zero_inflated(p, eps)
        assert 0.0 <= h <= math.log(p.size) + 1e-12


class TestQstar:
    def test_unit_weights_are_identity_expansion(self):
        P = np.array([[0.3, 0.7], [0.6, 0.4]])
        assert np.array_equal(build_qstar(P, (1, 1)), P)

    def test_single_symbol_cycle(self):
        Q = build_qstar(np.array([[1.0]]), (3,))
        assert np.array_equal(Q, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_two_symbol_hand_expansion(self):
        Q = build_qstar(np.array([[0.5, 0.5], [0.5, 0.5]]), (1, 2))
        assert np.allclose(Q, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])

    def test_rows_stochastic(self):
        rng = np.random.default_rng(4)
        P = rng.random((3, 3)) + 0.1
        P /= P.sum(axis=1, keepdims=True)
        Q = build_qstar(P, (2, 1, 3))
        assert Q.shape == (6, 6)
        assert np.allclose(Q.sum(axis=1), 1.0)


class TestScrabbleSpectrum:
    def test_unit_weights_match_markov(self):
        P = [[0.9, 0.1], [0.3, 0.7]]
        spec = renyi2_scrabble(P, (1, 1))
        assert spec.entropy == pytest.approx(renyi2_markov(P), abs=1e-10)

    def test_single_symbol_degenerate(self):
        spec = renyi2_scrabble([[1.0]], (1,))
        assert spec.p_eigen == pytest.approx(1.0, abs=1e-12)
        assert spec.entropy == pytest.approx(0.0, abs=1e-12)

    def test_fair_chain_weights_12_cubic_oracle(self):
        # det of the 2x2 weighted system expands to l^3 - l^2/4 - l/4
        roots = np.roots([1.0, -0.25, -0.25, 0.0])
        expected = float(max(r.real for r in roots if abs(r.imag) < 1e-12))
        spec = renyi2_scrabble([[0.5, 0.5], [0.5, 0.5]], (1, 2))
        assert spec.p_eigen == pytest.approx(expected, abs=1e-9)
        assert spec.p_root == pytest.approx(expected, abs=1e-9)
        assert spec.expanded_size == 3

    def test_internal_agreement_random_specs(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            P = rng.random((d, d)) + 0.05
            P /= P.sum(axis=1, keepdims=True)
            while True:
                w = tuple(int(v) for v in rng.integers(1, 5, size=d))
                if math.gcd(*w) == 1:
                    break
            spec = renyi2_scrabble(P, w)
            assert abs(spec.p_eigen - spec.p_root) < 1e-9
            assert 0 < spec.p_eigen <= 1

    def test_gcd_warning(self):
        with pytest.warns(RuntimeWarning, match="gcd"):
            renyi2_scrabble([[0.5, 0.5], [0.5, 0.5]], (2, 4))


class TestDominantEigenvalue:
    def test_identity(self):
        assert dominant_eigenvalue(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one(self):
        M = np.full((2, 2), 0.25)
        assert dominant_eigenvalue(M) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_against_characteristic_polynomial_bisection(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((3, 3)) + 0.05
        assert dominant_eigenvalue(M) == pytest.approx(perron_by_bisection(M), abs=1e-9)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            dominant_eigenvalue(np.array([[0.5, -0.1], [0.2, 0.3]]))


class TestEmpirical:
    @pytest.mark.filterwarnings("ignore:sequence length:RuntimeWarning")
    def test_constant_sequence_zero(self):
        s = SymbolSeq(Alphabet(2), [0] * 500)
        for k in (1, 3, 7):
            assert renyi2_empirical(s, k).value == pytest.approx(0.0, abs=1e-14)

    def test_fair_coin_k8(self):
        s = sample(IIDSource(np.array([0.5, 0.5])), 10 ** 6, 41)
        est = renyi2_empirical(s, 8)
        assert est.value == pytest.approx(math.log(2), abs=0.02)
        assert est.value == pytest.approx(-math.log(est.collision) / 8, abs=1e-14)

    @pytest.mark.filterwarnings("ignore:sequence length:RuntimeWarning")
    def test_deviation_shrinks_with_n(self):
        src = IIDSource(np.array([0.5, 0.5]))
        devs = []
        for n in (10 ** 4, 10 ** 5, 10 ** 6):
            est = renyi2_empirical(sample(src, n, 1234), 8)
            devs.append(abs(est.value - math.log(2)))
        assert devs[0] >= devs[1] >= devs[2]

    def test_undersampling_warning(self):
        s = sample(IIDSource(np.array([0.5, 0.5])), 300, 3)
        with pytest.warns(RuntimeWarning, match="guideline"):
            renyi2_empirical(s, 8)

    @pytest.mark.filterwarnings("ignore:sequence length:RuntimeWarning")
    @pytest.mark.parametrize("case", ["iid2", "markov2", "markov3", "iid10",
                                      "dirac", "const1", "const2", "huge",
                                      "const3", "zero_tail", "forced_k3", "markov4",
                                      "iid256", "zero_tail16"])
    @pytest.mark.parametrize("n", [5, 12, 40, 200, 1000, 20_000])
    def test_plateau_rows_equal_the_from_scratch_oracle(self, case, n):
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        P3 = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])
        P4 = np.full((4, 4), 0.05) + np.eye(4) * 0.8  # sticky: long runs of one symbol
        rng = np.random.default_rng(13)
        tail = np.r_[rng.integers(1, 16, 12), [0] * 8]
        seq = {"iid2": lambda: sample(IIDSource(np.array([0.5, 0.5])), n, 3),
               "markov2": lambda: sample(MarkovSource.stationary(P), n, 4),
               "markov3": lambda: sample(MarkovSource.stationary(P3), n, 5),
               "iid10": lambda: sample(IIDSource(np.full(10, 0.1)), n, 6),
               "dirac": lambda: sample(MarkovSource(P, np.array([0.0, 1.0])), n, 7),
               "const1": lambda: SymbolSeq(Alphabet(1), [0] * n),
               "const2": lambda: SymbolSeq(Alphabet(2), [1] * n),
               # symbols past 2^31 are ranked before their codes are packed
               "huge": lambda: SymbolSeq(Alphabet(2 ** 40), np.random.default_rng(8).choice(
                   [0, 2 ** 31 + 7, 2 ** 40 - 1], n)),
               # from n = 156 on, k runs to the cap 39 = int(62 / log2 3)
               "const3": lambda: SymbolSeq(Alphabet(3), [2] * n),
               # the zero-padded windows at the end equal real all-zero windows
               "zero_tail": lambda: SymbolSeq(Alphabet(2), np.r_[
                   np.random.default_rng(9).integers(0, 2, max(n - 70, 0)), [0] * min(n, 70)]),
               # hard_cap = int(62 / 25) = 2, so k = 3 is forced past 2^62 codes
               "forced_k3": lambda: SymbolSeq(Alphabet(2 ** 25), np.random.default_rng(10).choice(
                   [0, 2 ** 24 + 3, 2 ** 25 - 1], n)),
               # codes packed 2 and 8 bits a symbol: prefixes part by the XOR of neighbours
               "markov4": lambda: sample(MarkovSource.stationary(P4), n, 11),
               "iid256": lambda: sample(IIDSource(np.full(256, 1 / 256)), n, 12),
               # ends in 12 symbols and 6 zeros, seen before with 8 zeros: past k = 8 the
               # padded window after the 12 symbols joins a real one, while the all-zero
               # padded windows form a group of their own, whose count drops to 0 (the
               # run of ones ahead keeps the collisions up, so k gets past 8)
               "zero_tail16": lambda: SymbolSeq(Alphabet(16), np.r_[
                   [1] * n, tail, tail[:-2]][-n:])}[case]()
        with warnings.catch_warnings():  # no divide or overflow warning, base 1 (b = 0) too
            warnings.simplefilter("error")
            plateau, table = empirical_plateau(seq)
        assert [est.k for est in table] == list(range(2, len(table) + 2))
        assert plateau in table
        for est in table:
            assert est == renyi2_empirical(seq, est.k)
            if seq.alphabet.size <= 256:
                blocks = block_counts(seq, est.k)
                assert window_counts(seq, est.k).tolist() == ordered_counts(blocks)
            else:
                blocks = {tuple(seq.data[i:i + est.k]) for i in range(n - est.k + 1)}
            assert est.distinct_blocks == len(blocks)

    @pytest.mark.filterwarnings("ignore:sequence length:RuntimeWarning")
    def test_plateau_past_2_to_the_62_with_many_distinct_symbols(self):
        # over 2^20.67 distinct symbols past 2^31: ranked 3-window codes would
        # pass 2^62, and min_coincidences = 0 forces k = 3
        n = 1_800_000
        data = np.random.default_rng(11).permutation(n) * 2 ** 19
        data[-99_999:] = data[:99_999]
        data[-99_997::3] += 1  # the repeated pairs continue with new symbols
        seq = SymbolSeq(Alphabet(2 ** 40), data)
        plateau, table = empirical_plateau(seq, min_coincidences=0.0)
        assert [est.k for est in table] == [2, 3]
        for est in table:
            assert est == renyi2_empirical(seq, est.k)

    @pytest.mark.parametrize("n", [0, 1])
    def test_plateau_rejects_sequences_shorter_than_two(self, n):
        with pytest.raises(ValueError, match="block length k=2"):
            empirical_plateau(SymbolSeq(Alphabet(2), [0] * n))

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    @pytest.mark.parametrize("block", [5, None])
    def test_part_levels_match_the_bit_length_of_each_xor(self, b, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(entropy, "_LEVEL_BLOCK", block)
        K = -(-62 // b)  # b K >= 62 bits hold every XOR below
        # 2^m - 1 rounds up to 2^m as a float from m = 54 on; 0 is a pair of equal neighbours
        xors = [0, 0] + [v for m in range(62) for v in (2 ** m - 1, 2 ** m, 2 ** m + 1)]
        xors = np.random.default_rng(b).permutation(np.array(xors, dtype=np.int64))
        # at the default block size the xors straddle the edge at pair 2^16, amid equal pairs
        pad = 2 ** 16 - xors.size // 2
        xors = np.r_[np.zeros(pad, dtype=np.int64), xors, np.zeros(9, dtype=np.int64)]
        first = np.array([2 ** 62 - 12345], dtype=np.int64)
        codes = np.bitwise_xor.accumulate(np.r_[first, xors])  # neighbours XOR to xors
        levels = entropy._part_levels(codes, b, K)
        assert levels.dtype == np.uint8
        expected = [K - (v.bit_length() - 1) // b if v else K + 1 for v in xors.tolist()]
        assert levels.tolist() == expected

    def test_plateau_peak_memory_is_at_most_18_bytes_a_symbol(self):
        # beyond its input: the codes and their spare buffer take 16
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        n = 2 ** 20
        seq = sample(MarkovSource.stationary(P), n, 5)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            empirical_plateau(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peak - before) / n <= 18

    def test_plateau_tracks_markov_closed_form(self):
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        s = sample(MarkovSource.stationary(P), 10 ** 5, 8)
        plateau, table = empirical_plateau(s)
        closed = renyi2_markov(P)
        assert abs(plateau.value - closed) / closed < 0.10
        ks = [est.k for est in table]
        assert ks == sorted(ks)
