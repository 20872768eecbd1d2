from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Alphabet, IIDSource, MarkovSource, SymbolSeq, sample,
                      stationary_distribution)
from matchdim.sources import (_SAMPLE_CHUNK, WindowClasses, _chain_walk,
                              _padded_window_codes, _two_state_walk, collision_sum,
                              window_counts)
from oracles import block_counts, ordered_counts


def seq(symbols, size):
    return SymbolSeq(Alphabet(size), symbols)


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

    def test_prefix_stability_across_a_chunk_end(self):
        # the short draw ends one past the first chunk of uniforms of the walk
        src = MarkovSource.stationary(np.array([[0.2, 0.8], [0.6, 0.4]]))
        n = _SAMPLE_CHUNK + 1
        short = sample(src, n, 7)
        long = sample(src, 2 * _SAMPLE_CHUNK + 808, 7)
        assert np.array_equal(short.data, long.data[:n])

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


    # the d = 3 chain keeps the bare seed ids; each two-state chain runs the same seeds
    @pytest.mark.parametrize("seed, P, init", [
        pytest.param(seed, [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]],
                     [0.1, 0.3, 0.6], id=str(seed)) for seed in (0, 5, 17)] + [
        pytest.param(seed, P, init, id=f"{name}-{seed}") for name, P, init in [
            ("committed", [[0.9, 0.1], [0.3, 0.7]], [0.75, 0.25]),
            ("swap", [[0.2, 0.8], [0.6, 0.4]], [0.5, 0.5]),  # P[0, 0] < P[1, 0]
            ("flip", [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
            ("absorbing", [[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5]),
            ("identical", [[0.3, 0.7], [0.3, 0.7]], [0.3, 0.7]),
        ] for seed in (0, 5, 17)])
    def test_markov_matches_inverse_cdf_loop(self, seed, P, init):
        # two chunks and three symbols: the walk crosses two chunk ends
        P, init = np.array(P), np.array(init)
        n = 2 * _SAMPLE_CHUNK + 3
        u = np.random.default_rng(seed).random(n)
        state = int(np.searchsorted(np.cumsum(init), u[0], "right"))
        expected = [state]
        cums = [np.cumsum(row)[:-1] for row in P]
        for t in range(1, n):
            state = int(np.searchsorted(cums[state], u[t], "right"))
            expected.append(state)
        got = sample(MarkovSource(P, init), n, seed)
        assert got.data.dtype == np.int64
        assert got.data.tolist() == expected

    # a threshold of 0 or 1 is a deterministic row, and t_0 < t_1 gives swap
    # steps; uniforms drawn exactly on a threshold take the upper bucket
    @pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.4), (0.7, 1.0),
                                        (0.3, 0.3), (1.0, 1.0), (0.2, 0.8), (0.8, 0.2)])
    @pytest.mark.parametrize("state", [0, 1])
    def test_two_state_walk_on_the_thresholds(self, t0, t1, state):
        rows = [(t0,), (t1,)]
        v = np.random.default_rng(3).random(1000)
        v[::31], v[1::31] = t0, t1
        assert _two_state_walk(rows, v, state).tolist() == _chain_walk(rows, v, state)

    # one uniform and a whole chunk, where the step codes run up to 2 _SAMPLE_CHUNK + 1
    @pytest.mark.parametrize("t0, t1", [(0.2, 0.8), (0.9, 0.3)])  # swap, no swap
    @pytest.mark.parametrize("state", [0, 1])
    @pytest.mark.parametrize("n", [1, _SAMPLE_CHUNK])
    def test_two_state_walk_at_the_chunk_ends(self, t0, t1, state, n):
        rows = [(t0,), (t1,)]
        v = np.random.default_rng(4).random(n)
        assert _two_state_walk(rows, v, state).tolist() == _chain_walk(rows, v, state)

    def test_a_chunk_of_step_codes_fits_sixteen_bits(self):
        # the walk's largest code, 2 (i + 1) | 1 at the last step of a chunk
        assert 2 * _SAMPLE_CHUNK + 1 < 2 ** 16


class TestBlockCounts:
    """The per-window oracle, and `window_counts` against it on each case."""

    def test_hand_enumerated(self):
        counts = block_counts(seq([0, 1, 0, 1], 2), 2)
        assert counts == {bytes([0, 1]): 2, bytes([1, 0]): 1}
        assert window_counts(seq([0, 1, 0, 1], 2), 2).tolist() == ordered_counts(counts)

    def test_single_symbol(self):
        assert block_counts(seq([0, 0, 0, 0], 1), 1) == {bytes([0]): 4}
        assert window_counts(seq([0, 0, 0, 0], 1), 1).tolist() == [4]

    def test_window_arithmetic(self):
        s = sample(IIDSource(np.array([0.5, 0.5])), 100, 3)
        assert sum(block_counts(s, 3).values()) == 98
        assert window_counts(s, 3).tolist() == ordered_counts(block_counts(s, 3))

    def test_k_out_of_range(self):
        for count in (block_counts, window_counts):
            with pytest.raises(ValueError):
                count(seq([0, 1], 2), 3)
            with pytest.raises(ValueError):
                count(seq([0, 1], 2), 0)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_window_count(self, seed, n, k):
        s = sample(IIDSource(np.array([0.25, 0.25, 0.5])), n, seed)
        if k > n:
            k = n
        assert sum(block_counts(s, k).values()) == n - k + 1
        assert window_counts(s, k).tolist() == ordered_counts(block_counts(s, k))


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
            ref = ordered_counts(block_counts(s, k))
            counts = window_counts(s, k)
            # counts follow the lexicographic order of the windows
            assert counts.tolist() == ref
            assert collision_sum(window_counts(s, k)) == collision_sum(np.array(ref))
            assert counts.max() > 1

    @pytest.mark.parametrize("k", [1, 6, 7, 30])
    def test_large_alphabet_matches_tuple_counter(self, k):
        s = repetitive(1000, 500, 4)
        ref = Counter(tuple(s.data[i:i + k]) for i in range(s.length - k + 1))
        assert window_counts(s, k).tolist() == [ref[key] for key in sorted(ref)]


class TestPaddedWindowCodes:
    # lengths around the powers of two the doubling stops at, and the packed
    # spans 62, 39 and 22 of sizes 2, 3 and 7 (the longest with size^K <= 2^62)
    @pytest.mark.parametrize("size, K", [
        (size, K) for size in (2, 3, 7)
        for K in (1, 2, 3, 5, 22, 31, 32, 33, 39, 61, 62) if size ** K <= 2 ** 62])
    @pytest.mark.parametrize("kind", ["random", "top-symbol"])
    def test_codes_equal_per_window_brute_force(self, size, K, kind):
        rng = np.random.default_rng(K)
        for n in (K, K + 1, 2 * K + 3):
            x = rng.integers(0, size, n) if kind == "random" else np.full(n, size - 1)
            codes, spare, base = _padded_window_codes(x, size, K)
            rows = x.tolist() + [0] * K  # zero past the end
            expected = [sum(rows[i + t] * size ** (K - 1 - t) for t in range(K))
                        for i in range(n)]
            assert base == size and spare.shape == codes.shape
            assert codes.tolist() == expected


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

    # packed spans: size 1 packs the whole array, 3^39 <= 2^62 < 3^40 and
    # (2^31)^2 = 2^62; symbols past 2^31 are ranked (here to three) first
    @pytest.mark.parametrize("size, n, span", [(1, 140, 140), (2, 140, 62), (3, 100, 39),
                                               (2 ** 31, 12, 2), (2 ** 40, 100, 39)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keys_order_windows_across_packed_and_ranked_levels(self, size, n, span, seed):
        rng = np.random.default_rng(seed)
        symbols = np.unique([0, size // 2, size - 1])
        picks = np.tile(rng.integers(0, symbols.size, 5), n)[:n]  # period 5
        if seed == 1 and symbols.size > 1:
            # a window ending (starting) at a substitution differs from its
            # shift by 5 in its last (first) symbol alone, at every k
            for at in (int(rng.integers(0, 5)), n - 1 - int(rng.integers(0, 5))):
                picks[at] = (picks[at] + 1) % symbols.size
        elif seed == 2:
            picks = rng.integers(0, symbols.size, n)
        data = symbols[picks]
        classes = WindowClasses(data)
        assert classes.span == span
        assert not classes.keys(span).flags.writeable  # the codes, shared, not a copy
        rows = data.tolist()
        for k in range(1, n + 1):  # k <= span, then one and two ranked levels
            keys = classes.keys(k)
            windows = [tuple(rows[i:i + k]) for i in range(n - k + 1)]
            order = sorted(range(len(windows)), key=windows.__getitem__)
            assert np.argsort(keys, kind="stable").tolist() == order
            ordered = [windows[i] for i in order]
            assert (keys[order][1:] == keys[order][:-1]).tolist() == [
                a == b for a, b in zip(ordered[1:], ordered[:-1])]

    # budget 0 takes every key from the ranked levels of the whole array, and
    # 2^40 ranks the window halves among the starts of the call alone
    @pytest.mark.parametrize("budget", [0, 2 ** 40])
    @pytest.mark.parametrize("size, n", [(2, 300), (3, 200), (2 ** 40, 200)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_keys_at_compare_as_the_keys_of_their_starts(self, budget, size, n, seed):
        rng = np.random.default_rng(seed)
        symbols = np.unique([0, size // 2, size - 1])
        picks = rng.integers(0, symbols.size, n)
        if seed == 0:
            picks = np.tile(picks[:7], n)[:n]  # period 7: many equal windows
        classes = WindowClasses(symbols[picks])
        for k in range(1, n + 1):
            starts = rng.integers(0, n - k + 1, 30)
            got, ref = classes.keys_at(k, starts, budget), classes.keys(k)[starts]
            assert np.array_equal(np.argsort(got, kind="stable"), np.argsort(ref, kind="stable"))
            assert np.array_equal(got[:, None] == got, ref[:, None] == ref)

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
        s = seq([0, 0, 0, 0], 1)
        for k in range(1, 5):
            assert collision_sum(window_counts(s, k)) == 1.0

    def test_two_symbols(self):
        assert collision_sum(window_counts(seq([0, 1], 2), 1)) == pytest.approx(0.5)

    def test_hand_enumeration(self):
        # 0101 at k=2: windows 01,10,01 -> (2/3)^2 + (1/3)^2
        assert collision_sum(window_counts(seq([0, 1, 0, 1], 2), 2)) == pytest.approx(5 / 9)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_out_takes_the_squared_shares_and_the_sum_keeps_its_bits(self, dtype):
        counts = np.random.default_rng(3).integers(1, 1000, 777).astype(dtype)
        out = np.full(counts.size, np.nan)
        col = collision_sum(counts, out)
        assert col == collision_sum(counts) == float(np.sum((counts / float(counts.sum())) ** 2))
        assert np.array_equal(out, (counts / float(counts.sum())) ** 2)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 80), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_equality_case(self, seed, n, k):
        s = sample(IIDSource(np.array([0.5, 0.5])), n, seed)
        k = min(k, n)
        col = collision_sum(window_counts(s, k))
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
