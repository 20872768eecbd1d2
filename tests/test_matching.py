import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Alphabet, IIDSource, IdentityEncoder, StretchEncoder,
                      SymbolSeq, ZeroInflation, encode, highest_score, lcs_fast,
                      lcs_oracle, renyi2_scrabble, sample)
from matchdim.matching import lcs_lengths_over_schedule, masked_window_lcs


def seq(symbols, size=None):
    return SymbolSeq.from_symbols(symbols, size)


def random_pair(seed, max_len=60, max_size=5):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, max_size + 1))
    lx, ly = (int(v) for v in rng.integers(1, max_len + 1, size=2))
    x = SymbolSeq(Alphabet(size), rng.integers(0, size, lx))
    y = SymbolSeq(Alphabet(size), rng.integers(0, size, ly))
    return x, y


class TestOracle:
    def test_worked_example(self):
        # abab / bba as 0101 / 110: longest common substring "ba" = "10"
        r = lcs_oracle(seq([0, 1, 0, 1], 2), seq([1, 1, 0], 2))
        assert r.length == 2
        i, j, k = r.witness
        assert k == 2 and (i, j) == (1, 1)

    def test_self_match(self):
        s = sample(IIDSource(np.array([0.5, 0.5])), 40, 8)
        assert lcs_oracle(s, s).length == 40

    def test_disjoint_symbol_use(self):
        assert lcs_oracle(seq([0, 0, 0], 2), seq([1, 1, 1], 2)).length == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lcs_oracle(seq([], 2), seq([0], 2))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            lcs_oracle(seq([0], 2), seq([0], 3))


class TestFastPath:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, seed):
        x, y = random_pair(seed)
        assert lcs_fast(x, y).length == lcs_oracle(x, y).length

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_witness_realizes_match(self, seed):
        x, y = random_pair(seed)
        r = lcs_fast(x, y)
        i, j, k = r.witness
        assert k == r.length
        assert np.array_equal(x.data[i:i + k], y.data[j:j + k])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_witness_tie_break_smallest_i_then_j(self, seed):
        x, y = random_pair(seed, max_len=18, max_size=3)
        r = lcs_oracle(x, y)
        if r.length == 0:
            return
        k = r.length
        wits = [(i, j)
                for i in range(x.length - k + 1)
                for j in range(y.length - k + 1)
                if np.array_equal(x.data[i:i + k], y.data[j:j + k])]
        assert r.witness[:2] == min(wits)
        assert lcs_fast(x, y).witness[:2] == min(wits)

    def test_long_identical(self):
        s = seq([0] * 1000, 1)
        assert lcs_fast(s, s).length == 1000

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, seed):
        x, y = random_pair(seed)
        assert lcs_fast(x, y).length == lcs_fast(y, x).length

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_n_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = SymbolSeq(Alphabet(2), rng.integers(0, 2, 50))
        y = SymbolSeq(Alphabet(2), rng.integers(0, 2, 50))
        prev = 0
        for n in (5, 10, 20, 35, 50):
            cur = lcs_fast(x.prefix(n), y.prefix(n)).length
            assert prev <= cur <= n
            prev = cur

    def test_schedule_helper_matches_per_prefix(self):
        x = sample(IIDSource(np.array([0.5, 0.5])), 800, 1)
        y = sample(IIDSource(np.array([0.5, 0.5])), 800, 2)
        sched = (10, 40, 200, 800)
        vals = lcs_lengths_over_schedule(x, y, sched)
        assert vals == [lcs_fast(x.prefix(n), y.prefix(n)).length for n in sched]

    def test_schedule_requires_increasing(self):
        x = seq([0, 1, 0], 2)
        with pytest.raises(ValueError):
            lcs_lengths_over_schedule(x, x, (2, 2))


def low_entropy_pair(seed, size, nx, ny):
    # one symbol dominates, so matches are long and ties are common
    rng = np.random.default_rng(seed)
    p = np.full(size, 0.15 / max(size - 1, 1))
    p[0] = 1.0 if size == 1 else 0.85
    return (SymbolSeq(Alphabet(size), rng.choice(size, nx, p=p)),
            SymbolSeq(Alphabet(size), rng.choice(size, ny, p=p)))


class TestWindowClassKernel:
    # 257 > 2N + 1 for N = 50, so the pair-key base must cover the symbol
    # range; 2^40 symbols are ranked before their pairs are packed
    @pytest.mark.parametrize("size", [1, 2, 7, 257, 2 ** 40])
    @pytest.mark.parametrize("seed", range(4))
    def test_schedule_matches_oracle_per_prefix(self, size, seed):
        rng = np.random.default_rng(seed)
        x, y = (SymbolSeq(Alphabet(size), rng.integers(0, size, 50)) for _ in range(2))
        if seed % 2:
            x, y = low_entropy_pair(seed, min(size, 2 ** 20), 50, 50)
            x, y = SymbolSeq(Alphabet(size), x.data), SymbolSeq(Alphabet(size), y.data)
        for sched in ((1, 2, 3, 5, 8, 13, 21, 34, 50), tuple(range(1, 51)), (1, 50), (17,)):
            assert lcs_lengths_over_schedule(x, y, sched) == [
                lcs_oracle(x.prefix(n), y.prefix(n)).length for n in sched]

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 64, 257])
    def test_constant_sequences_build_every_level(self, n):
        x = seq([1] * n, 2)
        sched = sorted({1, max(1, n // 2), n})
        assert lcs_lengths_over_schedule(x, x, sched) == sched
        assert lcs_fast(x, x).witness == (0, 0, n)
        assert lcs_fast(x, seq([0] * n, 2)).length == 0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_witness_is_least_i_then_j_on_unequal_lengths(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.choice([1, 2, 3, 40]))
        nx, ny = int(rng.integers(1, 30)), int(rng.integers(30, 60))
        if rng.random() < 0.5:
            nx, ny = ny, nx
        x, y = low_entropy_pair(seed, size, nx, ny)
        r = lcs_fast(x, y)
        k = lcs_oracle(x, y).length
        assert r.length == k
        if k == 0:
            assert r.witness == (0, 0, 0)
            return
        wits = [(i, j) for i in range(nx - k + 1) for j in range(ny - k + 1)
                if np.array_equal(x.data[i:i + k], y.data[j:j + k])]
        assert r.witness == (*min(wits), k)
        assert lcs_fast(x, y, want_witness=False) == type(r)(k, (0, 0, 0))


class TestMaskedWindowLcs:
    @staticmethod
    def brute_force(x, y, mask, n):
        best = 0
        for k in range(1, n + 1):
            wx = {tuple(x.data[i:i + k] * mask[:k]) for i in range(n - k + 1)}
            if any(tuple(y.data[j:j + k] * mask[:k]) in wx for j in range(n - k + 1)):
                best = k
        return best

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x, y = low_entropy_pair(seed, 3, 40, 40)
        mask = (rng.random(40) < 0.7).astype(np.int64)
        sched = (1, 4, 9, 20, 40)
        assert masked_window_lcs(x, y, mask, schedule=sched) == [
            self.brute_force(x, y, mask, n) for n in sched]

    @pytest.mark.parametrize("seed", range(4))
    def test_all_ones_mask_is_plain_lcs(self, seed):
        x, y = low_entropy_pair(seed, 2, 300, 300)
        sched = (1, 10, 100, 300)
        assert (masked_window_lcs(x, y, np.ones(300), schedule=sched)
                == lcs_lengths_over_schedule(x, y, sched))


def encoded_lcs_length(x, y, encoder, n):
    """Longest common substring of the two length-n encoded images."""
    return lcs_fast(encode(encoder, x, n), encode(encoder, y, n)).length


class TestEncodedLcs:
    def test_identity_encoder(self):
        x = sample(IIDSource(np.array([0.5, 0.5])), 100, 3)
        y = sample(IIDSource(np.array([0.5, 0.5])), 100, 4)
        length = encoded_lcs_length(x, y, IdentityEncoder(), 60)
        assert length == lcs_oracle(x.prefix(60), y.prefix(60)).length

    def test_all_zero_mask_gives_full_match(self):
        # epsilon -> 1 limit: find a mask seed whose first bits are all zero
        eps = 1 - 1e-9
        enc = ZeroInflation(epsilon=eps, mask_seed=5)
        assert not enc.mask(16).any()
        x = sample(IIDSource(np.array([0.5, 0.5])), 16, 5)
        y = sample(IIDSource(np.array([0.5, 0.5])), 16, 6)
        assert encoded_lcs_length(x, y, enc, 16) == 16

    def test_stretch_matches_hand_stretched_oracle(self):
        enc = StretchEncoder((1, 2))
        rng = np.random.default_rng(17)
        for _ in range(30):
            x = SymbolSeq(Alphabet(2), rng.integers(0, 2, 30))
            y = SymbolSeq(Alphabet(2), rng.integers(0, 2, 30))
            n = 12
            hand_x = seq(np.repeat(x.data, np.asarray(enc.weights)[x.data])[:n], 2)
            hand_y = seq(np.repeat(y.data, np.asarray(enc.weights)[y.data])[:n], 2)
            assert encoded_lcs_length(x, y, enc, n) == lcs_oracle(hand_x, hand_y).length


class TestHighestScore:
    def test_unit_weights_reduce_to_length(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            x = SymbolSeq(Alphabet(3), rng.integers(0, 3, 25))
            y = SymbolSeq(Alphabet(3), rng.integers(0, 3, 25))
            assert (highest_score(x, y, 25, (1, 1, 1)).length
                    == lcs_fast(x.prefix(25), y.prefix(25)).length)

    def test_short_heavy_match_wins(self):
        # x=ab, y=ba with weight 2 on b: single-symbol match "b" scores 2
        r = highest_score(seq([0, 1], 2), seq([1, 0], 2), 2, {0: 1, 1: 2})
        assert r.length == 2
        assert r.witness == (1, 0, 1)

    def test_self_match_scores_total_weight(self):
        x = seq([0, 1, 1, 0, 1], 2)
        w = (3, 2)
        expected = sum(w[s] for s in x.data)
        assert highest_score(x, x, 5, w).length == expected

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError, match="missing weight"):
            highest_score(seq([0, 1], 2), seq([1, 0], 2), 2, {0: 1})

    @pytest.mark.parametrize("weights", [(1, 2, 3), {0: 1, 1: 2, 2: 3}])
    def test_extra_weight_rejected_as_by_the_closed_form(self, weights):
        # one weight rule for the score and the stretched-chain rate
        with pytest.raises(ValueError, match="3 weights for an alphabet of 2"):
            highest_score(seq([0, 1], 2), seq([1, 0], 2), 2, weights)
        with pytest.raises(ValueError, match="3 weights for an alphabet of 2"):
            renyi2_scrabble([[0.5, 0.5], [0.5, 0.5]], weights)

    def test_bound_and_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = SymbolSeq(Alphabet(2), rng.integers(0, 2, 20))
            y = SymbolSeq(Alphabet(2), rng.integers(0, 2, 20))
            r = highest_score(x, y, 20, (1, 3))
            assert r.length <= 20 * 3
            assert r.length == highest_score(y, x, 20, (1, 3)).length


def brute_best_run(xd, yd, wx):
    """Heaviest maximal common run by enumerating every start pair."""
    best, where = 0, (0, 0, 0)
    for i in range(len(xd)):
        for j in range(len(yd)):
            k = 0
            while i + k < len(xd) and j + k < len(yd) and xd[i + k] == yd[j + k]:
                k += 1
            score = int(sum(wx[i:i + k]))
            if score > best:  # strict: the first maximum in (i, j) order stays
                best, where = score, (i, j, k)
    return best, where


class TestMatchTableWitness:
    """lcs_oracle and highest_score share one DP; check its witness directly."""

    @staticmethod
    def assert_witness(r, xd, yd, wx):
        i, j, k = r.witness
        assert np.array_equal(xd[i:i + k], yd[j:j + k])
        assert int(sum(wx[i:i + k])) == r.length
        assert i + k == len(xd) or j + k == len(yd) or xd[i + k] != yd[j + k]
        assert (r.length, r.witness) == brute_best_run(xd, yd, wx)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_highest_score(self, seed):
        x, y = random_pair(seed, max_len=60, max_size=3)
        rng = np.random.default_rng(seed)
        w = rng.integers(1, 5, x.alphabet.size)
        n = int(rng.integers(1, min(x.length, y.length) + 1))
        r = highest_score(x, y, n, tuple(w.tolist()))
        xd, yd = x.data[:n], y.data[:n]
        self.assert_witness(r, xd, yd, w[xd])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lcs_oracle_unequal_lengths(self, seed):
        x, y = random_pair(seed, max_len=60, max_size=3)
        self.assert_witness(lcs_oracle(x, y), x.data, y.data, np.ones(x.length))


class TestStretchScoreConsistency:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matched_window_discrepancy_bounded(self, seed):
        # encoded-match length over the exact images of the raw length-n
        # prefixes differs from the weighted score only by run boundaries
        rng = np.random.default_rng(seed)
        weights = (1, 2)
        enc = StretchEncoder(weights)
        n = 24
        x = SymbolSeq(Alphabet(2), rng.integers(0, 2, n))
        y = SymbolSeq(Alphabet(2), rng.integers(0, 2, n))
        ex = encode(enc, x, enc.image_length(x, n))
        ey = encode(enc, y, enc.image_length(y, n))
        m_enc = lcs_fast(ex, ey).length
        v = highest_score(x, y, n, weights).length
        assert 0 <= m_enc - v <= max(weights)
