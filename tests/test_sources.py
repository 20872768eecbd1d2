from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Alphabet, IIDSource, MarkovSource, SymbolSeq,
                      block_counts, collision_probability, sample,
                      stationary_distribution)
from matchdim.sources import WindowClasses, collision_sum, window_counts


def seq(symbols, size=None):
    return SymbolSeq.from_symbols(symbols, size)


class TestValidation:
    def test_alphabet_positive(self):
        with pytest.raises(ValueError):
            Alphabet(0)

    def test_symbols_in_range(self):
        with pytest.raises(ValueError):
            SymbolSeq(Alphabet(2), np.array([0, 2]))

    def test_iid_probs_sum(self):
        with pytest.raises(ValueError):
            IIDSource(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            IIDSource(np.array([-0.1, 1.1]))

    def test_markov_rows_stochastic(self):
        with pytest.raises(ValueError):
            MarkovSource(np.array([[0.5, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MarkovSource(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.9, 0.2]))

    def test_sample_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample(IIDSource(np.array([1.0])), 0, 1)

    def test_caller_arrays_stay_writeable(self):
        data, probs = np.array([0, 1, 1]), np.array([0.5, 0.5])
        P, init = np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([1.0, 0.0])
        s = SymbolSeq(Alphabet(2), data)
        src = IIDSource(probs)
        chain = MarkovSource(P, init)
        for frozen, caller in ((s.data, data), (src.probs, probs),
                               (chain.transition, P), (chain.initial, init)):
            assert not frozen.flags.writeable
            assert caller.flags.writeable
            assert np.shares_memory(frozen, caller)


class TestSample:
    def test_single_symbol_alphabet(self):
        s = sample(IIDSource(np.array([1.0])), 5, 123)
        assert s.data.tolist() == [0] * 5

    def test_deterministic_in_seed(self):
        src = IIDSource(np.array([0.2, 0.3, 0.5]))
        a = sample(src, 200, 99)
        b = sample(src, 200, 99)
        assert np.array_equal(a.data, b.data)
        c = sample(src, 200, 100)
        assert not np.array_equal(a.data, c.data)

    def test_prefix_stability(self):
        # longer draws extend shorter ones for the same seed
        src = MarkovSource.stationary(np.array([[0.9, 0.1], [0.3, 0.7]]))
        short = sample(src, 500, 7)
        long = sample(src, 2000, 7)
        assert np.array_equal(short.data, long.data[:500])

    def test_fair_coin_frequency(self):
        # binomial: 0.002 = 4 sigma at n = 1e6
        s = sample(IIDSource(np.array([0.5, 0.5])), 10 ** 6, 2024)
        freq = float(np.mean(s.data == 0))
        assert abs(freq - 0.5) < 0.002

    def test_markov_marginals_follow_chain(self):
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        s = sample(MarkovSource.stationary(P), 10 ** 5, 11)
        freq = float(np.mean(s.data == 0))
        assert abs(freq - 0.75) < 0.02

    def test_identical_rows_match_iid_law(self):
        # chi-squared over length-2 blocks; both samplers draw one uniform
        # per symbol so the laws coincide
        probs = np.array([0.3, 0.7])
        P = np.tile(probs, (2, 1))
        a = sample(IIDSource(probs), 30_000, 5)
        b = sample(MarkovSource(P, probs), 30_000, 6)
        ca = block_counts(a, 2)
        cb = block_counts(b, 2)
        keys = sorted(set(ca) | set(cb))
        chi2 = sum((ca.get(k, 0) - cb.get(k, 0)) ** 2 /
                   max(ca.get(k, 0) + cb.get(k, 0), 1) for k in keys)
        assert chi2 < 30.0  # df=3, far beyond any sane quantile


    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_markov_matches_inverse_cdf_loop(self, seed):
        P = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
        init = np.array([0.1, 0.3, 0.6])
        n = 3000
        u = np.random.default_rng(seed).random(n)
        state = int(np.searchsorted(np.cumsum(init), u[0], "right"))
        expected = [state]
        for t in range(1, n):
            state = int(np.searchsorted(np.cumsum(P[state])[:-1], u[t], "right"))
            expected.append(state)
        got = sample(MarkovSource(P, init), n, seed)
        assert got.data.dtype == np.int64
        assert got.data.tolist() == expected


class TestBlockCounts:
    def test_hand_enumerated(self):
        counts = block_counts(seq([0, 1, 0, 1]), 2)
        assert counts == {bytes([0, 1]): 2, bytes([1, 0]): 1}

    def test_single_symbol(self):
        assert block_counts(seq([0, 0, 0, 0]), 1) == {bytes([0]): 4}

    def test_window_arithmetic(self):
        s = sample(IIDSource(np.array([0.5, 0.5])), 100, 3)
        assert sum(block_counts(s, 3).values()) == 98

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            block_counts(seq([0, 1]), 3)
        with pytest.raises(ValueError):
            block_counts(seq([0, 1]), 0)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_window_count(self, seed, n, k):
        s = sample(IIDSource(np.array([0.25, 0.25, 0.5])), n, seed)
        if k > n:
            k = n
        assert sum(block_counts(s, k).values()) == n - k + 1


def repetitive(size, n, seed):
    # a few distinct motifs glued with noise: long windows repeat often
    rng = np.random.default_rng(seed)
    motifs = [rng.integers(0, size, int(rng.integers(150, 250))) for _ in range(3)]
    parts = []
    while sum(p.size for p in parts) < n:
        parts.append(motifs[int(rng.integers(3))])
        parts.append(rng.integers(0, size, int(rng.integers(0, 3))))
    return SymbolSeq(Alphabet(size), np.concatenate(parts)[:n])


class TestWindowCounts:
    # k on both sides of 62 / log2(size), past which Horner codes overflow int64
    @pytest.mark.parametrize("size,ks", [(2, (1, 5, 62, 63, 64, 100, 129)),
                                         (3, (39, 40, 41, 77)),
                                         (256, (7, 8, 9, 33))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_block_counts_in_window_order(self, size, ks, seed):
        s = repetitive(size, 1500, seed)
        for k in ks:
            ref = block_counts(s, k)
            counts = window_counts(s, k)
            # counts follow the lexicographic order of the windows
            assert counts.tolist() == [ref[key] for key in sorted(ref)]
            assert collision_probability(s, k) == collision_sum(counts)
            assert counts.max() > 1

    @pytest.mark.parametrize("k", [1, 6, 7, 30])
    def test_large_alphabet_matches_tuple_counter(self, k):
        s = repetitive(1000, 500, 4)
        ref = Counter(tuple(s.data[i:i + k]) for i in range(s.length - k + 1))
        assert window_counts(s, k).tolist() == [ref[key] for key in sorted(ref)]


class TestWindowClasses:
    @pytest.mark.parametrize("size", [1, 2, 7, 2 ** 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keys_order_windows_exactly(self, size, seed):
        rng = np.random.default_rng(seed)
        n = 37
        data = rng.integers(0, size, n) if size <= 7 else rng.integers(0, 3, n) * (size // 3)
        if size == 7:
            data -= 3  # negative symbols are ranked first, as those past 2^31
        classes = WindowClasses(data)
        for k in range(1, n + 1):
            keys = classes.keys(k)
            windows = [tuple(data[i:i + k]) for i in range(n - k + 1)]
            for a in range(len(windows)):
                for b in range(len(windows)):
                    assert ((keys[a] < keys[b]) == (windows[a] < windows[b])
                            and (keys[a] == keys[b]) == (windows[a] == windows[b]))

    def test_slices_match_full_keys(self):
        data = np.random.default_rng(5).integers(0, 2, 200)
        classes = WindowClasses(data)
        for k in (1, 2, 3, 8, 13, 64, np.int64(200)):
            full = classes.keys(k)
            start = min(3, 201 - k)
            assert np.array_equal(classes.keys(k, start, 201 - k), full[start:])
            assert np.array_equal(classes.keys(k, 0, 0), full[:0])

    def test_rejects_out_of_range(self):
        classes = WindowClasses(np.array([0, 1, 0]))
        for k in (0, 4):
            with pytest.raises(ValueError, match="window length"):
                classes.keys(k)
        with pytest.raises(ValueError, match="window starts"):
            classes.keys(2, 0, 3)
        with pytest.raises(ValueError):
            WindowClasses(np.array([], dtype=np.int64))


class TestCollisionProbability:
    def test_constant_sequence(self):
        s = seq([0, 0, 0, 0])
        for k in range(1, 5):
            assert collision_probability(s, k) == 1.0

    def test_two_symbols(self):
        assert collision_probability(seq([0, 1]), 1) == pytest.approx(0.5)

    def test_hand_enumeration(self):
        # 0101 at k=2: windows 01,10,01 -> (2/3)^2 + (1/3)^2
        assert collision_probability(seq([0, 1, 0, 1]), 2) == pytest.approx(5 / 9)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 80), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_equality_case(self, seed, n, k):
        s = sample(IIDSource(np.array([0.5, 0.5])), n, seed)
        k = min(k, n)
        col = collision_probability(s, k)
        distinct = len(block_counts(s, k))
        assert 1.0 / distinct <= col + 1e-15
        assert col <= 1.0
        all_same = distinct == 1
        assert (col == 1.0) == all_same


class TestStationaryDistribution:
    def test_doubly_stochastic(self):
        mu = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_trivial_chain(self):
        assert stationary_distribution(np.array([[1.0]])) == pytest.approx([1.0])

    def test_two_state_balance(self):
        # pi_0 * 0.1 = pi_1 * 0.3 gives (3/4, 1/4)
        mu = stationary_distribution(np.array([[0.9, 0.1], [0.3, 0.7]]))
        assert np.allclose(mu, [0.75, 0.25], atol=1e-10)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_residual(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        P = rng.random((d, d)) + 0.01
        P /= P.sum(axis=1, keepdims=True)
        mu = stationary_distribution(P)
        assert np.max(np.abs(mu @ P - mu)) < 1e-10
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))
