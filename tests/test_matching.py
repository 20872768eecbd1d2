import time

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Alphabet, IIDSource, IdentityEncoder, StretchEncoder,
                      SymbolSeq, ZeroInflation, encode, renyi2_scrabble, sample)
from matchdim import matching
from matchdim.matching import (_full_probe, _keys_meet, lcs_lengths_over_schedule,
                               masked_window_lcs)
from matchdim.sources import MaskedWindows, WindowClasses
from oracles import highest_score, lcs_length, lcs_oracle, masked_match_lengths


def seq(symbols, size):
    return SymbolSeq(Alphabet(size), symbols)


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
        with pytest.raises(ValueError, match="nonempty"):
            lcs_lengths_over_schedule(seq([], 2), seq([0], 2), [1])

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="share an alphabet"):
            lcs_lengths_over_schedule(seq([0], 2), seq([0], 3), [1])


class TestFastPath:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, seed):
        x, y = random_pair(seed)
        assert lcs_length(x, y) == lcs_oracle(x, y).length

    def test_long_identical(self):
        s = seq([0] * 1000, 1)
        assert lcs_lengths_over_schedule(s, s, [1000]) == [1000]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, seed):
        x, y = random_pair(seed)
        assert lcs_length(x, y) == lcs_length(y, x)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_n_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = SymbolSeq(Alphabet(2), rng.integers(0, 2, 50))
        y = SymbolSeq(Alphabet(2), rng.integers(0, 2, 50))
        prev = 0
        for n in (5, 10, 20, 35, 50):
            (cur,) = lcs_lengths_over_schedule(x, y, [n])
            assert prev <= cur <= n
            prev = cur

    def test_schedule_helper_matches_per_prefix(self):
        x = sample(IIDSource(np.array([0.5, 0.5])), 800, 1)
        y = sample(IIDSource(np.array([0.5, 0.5])), 800, 2)
        sched = (10, 40, 200, 800)
        vals = lcs_lengths_over_schedule(x, y, sched)
        assert vals == [lcs_lengths_over_schedule(x, y, [n])[0] for n in sched]

    def test_schedule_requires_increasing(self):
        x = seq([0, 1, 0], 2)
        with pytest.raises(ValueError):
            lcs_lengths_over_schedule(x, x, (2, 2))

    def test_schedule_must_not_be_empty(self):
        x = seq([0, 1, 0], 2)
        with pytest.raises(ValueError, match="empty"):
            lcs_lengths_over_schedule(x, x, [])
        with pytest.raises(ValueError, match="empty"):
            masked_window_lcs(x, x, np.ones(3, dtype=np.int64), [])


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
        assert lcs_lengths_over_schedule(x, seq([0] * n, 2), sched) == [0] * len(sched)

    @pytest.mark.parametrize("seed", range(3))
    def test_schedule_crosses_packed_and_ranked_levels(self, seed):
        # binary keys are packed up to 62 symbols, then ranked at 62 and 124;
        # y is x but for three substitutions, so one schedule crosses both, and
        # the last one ends a window of over 124 symbols that differs only there
        rng = np.random.default_rng(seed)
        xd = rng.integers(0, 2, 300)
        yd = xd.copy()
        yd[[int(rng.integers(30, 50)), int(rng.integers(90, 110)),
            int(rng.integers(240, 260))]] ^= 1
        x, y = SymbolSeq(Alphabet(2), xd), SymbolSeq(Alphabet(2), yd)
        sched = tuple(range(20, 301, 10))
        got = lcs_lengths_over_schedule(x, y, sched)
        assert got == [lcs_oracle(x.prefix(n), y.prefix(n)).length for n in sched]
        assert got[0] <= 62 < min(v for v in got if v > 62) <= 124 < got[-1]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_unequal_low_entropy_lengths_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.choice([1, 2, 3, 40]))
        nx, ny = int(rng.integers(1, 30)), int(rng.integers(30, 60))
        if rng.random() < 0.5:
            nx, ny = ny, nx
        x, y = low_entropy_pair(seed, size, nx, ny)
        assert lcs_length(x, y) == lcs_oracle(x, y).length


class TestSurvivorProbes:
    """The schedule kernel against the oracle where its probes change course."""

    @staticmethod
    def assert_schedule_exact(x, y, sched):
        got = lcs_lengths_over_schedule(x, y, sched)
        assert got == [lcs_oracle(x.prefix(n), y.prefix(n)).length for n in sched]
        assert got == [lcs_lengths_over_schedule(x, y, [n])[0] for n in sched]
        return got

    # the packed span is 62 binary symbols and 39 ternary ones (3^39 <= 2^62
    # < 3^40); three symbols past 2^31 are ranked to three first
    @pytest.mark.parametrize("size, span", [(2, 62), (3, 39), (2 ** 40, 39)])
    @pytest.mark.parametrize("extra, times", [(-1, 1), (0, 1), (1, 1), (0, 2), (1, 2)])
    def test_planted_match_around_the_span(self, size, span, extra, times):
        length, n = times * span + extra, 300
        rng = np.random.default_rng(length)
        symbols = np.unique([0, size // 2, size - 1])
        xd, yd = (symbols[rng.integers(0, symbols.size, n)] for _ in range(2))
        i, j = (int(v) for v in rng.integers(1, n - length - 8, 2))
        yd[j:j + length] = xd[i:i + length]
        # the copy cannot extend: its neighbours differ on the two sides
        yd[j - 1] = symbols[(np.searchsorted(symbols, xd[i - 1]) + 1) % symbols.size]
        yd[j + length] = symbols[(np.searchsorted(symbols, xd[i + length]) + 1) % symbols.size]
        x, y = SymbolSeq(Alphabet(size), xd), SymbolSeq(Alphabet(size), yd)
        assert WindowClasses(np.concatenate((xd, yd))).span == span
        end = max(i, j) + length  # the first n whose prefixes hold the whole copy
        got = self.assert_schedule_exact(x, y, (10, end - length // 2, end, n))
        assert got[-2:] == [length, length]
        short = y.prefix(j + length + 8)
        assert lcs_length(x, short) == lcs_oracle(x, short).length
        assert lcs_length(short, x) == lcs_oracle(short, x).length

    # every window of one side meets the other, so no probe drops a survivor
    @pytest.mark.parametrize("kind", ["identical", "period-2", "period-7"])
    def test_pairs_where_every_window_survives(self, kind):
        n = 300
        if kind == "identical":
            xd = np.random.default_rng(7).integers(0, 2, n)
            yd = xd.copy()
        else:
            period = int(kind[-1])
            whole = np.resize([0, 1, 1, 0, 1, 0, 0][:period], n + period)
            xd, yd = whole[:n], whole[3 % period:][:n]
        x, y = SymbolSeq(Alphabet(2), xd), SymbolSeq(Alphabet(2), yd)
        got = self.assert_schedule_exact(x, y, (1, 5, 62, 63, 124, 125, 200, n))
        assert got[-1] >= n - 3
        for a, b in ((x, y), (x, y.prefix(150)), (y.prefix(77), x)):
            assert lcs_length(a, b) == lcs_oracle(a, b).length

    def test_flat_schedule_finds_no_survivors(self):
        # past 40 symbols x holds only 2 and y only 3, so no prefix gains a
        # window the other side holds: each probe of best + 1 meets nothing
        rng = np.random.default_rng(3)
        xd, yd = rng.integers(0, 2, 200), rng.integers(0, 2, 200)
        xd[40:], yd[40:] = 2, 3
        x, y = SymbolSeq(Alphabet(4), xd), SymbolSeq(Alphabet(4), yd)
        got = self.assert_schedule_exact(x, y, (20, 40, 41, 100, 200))
        assert len(set(got[1:])) == 1

    # best passes the span by n = 80 (the 70-symbol copy at 10); the longer
    # copy lies at 250..340 in y, past the prefixes of 200 and 300 symbols
    SPAN_SCHEDULE = (40, 80, 100, 200, 300, 340, 400)

    @staticmethod
    def pair_past_the_span(size):
        rng = np.random.default_rng(size)
        xd, yd = (rng.integers(0, size, 400) for _ in range(2))
        yd[10:80] = xd[10:80]
        yd[250:340] = xd[50:140]
        return SymbolSeq(Alphabet(size), xd), SymbolSeq(Alphabet(size), yd)

    @pytest.mark.parametrize("size, span", [(2, 62), (3, 39)])
    def test_one_span_probe_serves_later_sizes(self, size, span):
        x, y = self.pair_past_the_span(size)
        assert WindowClasses(np.concatenate((x.data, y.data))).span == span
        got = self.assert_schedule_exact(x, y, self.SPAN_SCHEDULE)
        assert got[1] >= 70 and got[-1] >= 90

    def test_one_span_probe_serves_later_masked_sizes(self):
        x, y = self.pair_past_the_span(300)  # 9-bit symbols
        mask = (np.random.default_rng(5).random(400) < 0.7).astype(np.int64)
        assert MaskedWindows(np.concatenate((x.data, y.data)), mask).span == 6
        got = masked_window_lcs(x, y, mask, self.SPAN_SCHEDULE)
        assert got == masked_match_lengths(x, y, mask, self.SPAN_SCHEDULE)
        assert got[1] >= 70 and got[-1] >= 90

    def test_one_full_probe_at_the_span_per_schedule(self, monkeypatch):
        calls = []
        keys = WindowClasses.keys

        def counted(self, k, start=0, stop=None):
            calls.append((k, start, stop))
            return keys(self, k, start, stop)

        monkeypatch.setattr(WindowClasses, "keys", counted)
        x, y = self.pair_past_the_span(2)
        lcs_lengths_over_schedule(x, y, self.SPAN_SCHEDULE)
        # the x and y halves of one probe, over the windows of both 400-symbol prefixes
        assert [c for c in calls if c[0] == 62] == [(62, 0, 339), (62, 400, 739)]


class TestKeysMeet:
    """The tagged meet and the hash-filtered full probe against `np.isin`."""

    @staticmethod
    def held(kx, ky):
        return np.flatnonzero(np.isin(kx, ky)).tolist(), np.flatnonzero(np.isin(ky, kx)).tolist()

    # few distinct keys, so many repeat on one side or both, near 0 or just below 2^62
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("seed", range(20))
    def test_positions_are_those_isin_finds(self, dtype, seed):
        rng = np.random.default_rng(seed)
        low = (0, 2 ** 62 - 40)[seed % 2]
        kx, ky = (np.asarray(low + rng.integers(0, int(rng.integers(1, 40)), int(rng.integers(0, 30))),
                             dtype=dtype) for _ in range(2))
        assert [a.tolist() for a in _keys_meet(kx, ky)] == list(self.held(kx, ky))

    @pytest.mark.parametrize("kx, ky", [
        ([], []), ([], [3, 3]), ([5, 5, 5], []),  # an empty side
        ([7] * 5, [7] * 3), ([7] * 4, [8] * 4),  # all equal
        ([2 ** 62 - 1, 0, 2 ** 62 - 2], [0, 2 ** 62 - 1, 2 ** 62 - 1]),  # the largest keys
    ])
    def test_edge_cases(self, kx, ky):
        kx, ky = np.asarray(kx, dtype=np.int64), np.asarray(ky, dtype=np.int64)
        assert [a.tolist() for a in _keys_meet(kx, ky)] == list(self.held(kx, ky))

    # with _HASH = 1 every key below 2^(64 - b) falls in slot 0, so the table
    # keeps every key and the sort alone decides
    @pytest.mark.parametrize("seed", range(8))
    def test_full_probe_survivors_do_not_depend_on_the_hash(self, seed, monkeypatch):
        x, y = random_pair(seed, max_len=300, max_size=3)
        top, rng = min(x.length, y.length), np.random.default_rng(seed)
        classes = WindowClasses(np.concatenate((x.data[:top], y.data[:top])))
        cases = [(k, int(rng.integers(k, top + 1)))
                 for k in sorted({1, 2, 3, 5, 8, classes.span}) if k <= top]
        got = [_full_probe(classes, top, *case) for case in cases]
        monkeypatch.setattr(matching, "_HASH", 1)
        for (k, n), (sx, sy) in zip(cases, got):
            kx, ky = classes.keys(k, 0, n - k + 1), classes.keys(k, top, top + n - k + 1)
            ix, iy = self.held(kx, ky)
            assert (sx.tolist(), sy.tolist()) == (ix, [top + j for j in iy])
            flat = _full_probe(classes, top, k, n)
            assert (flat[0].tolist(), flat[1].tolist()) == (sx.tolist(), sy.tolist())


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
        assert masked_window_lcs(x, y, mask, sched) == [
            self.brute_force(x, y, mask, n) for n in sched]

    # symbol 0 occurs in odd seeds only; past 2^31 the symbols are ranked,
    # and a masked position must match whatever symbols the two windows hold
    @pytest.mark.parametrize("size", [300, 2 ** 40])
    @pytest.mark.parametrize("seed", range(8))
    def test_large_alphabets_match_brute_force(self, size, seed):
        rng = np.random.default_rng(200 + seed)
        pool = rng.integers(2 ** 31 if size > 2 ** 31 else 1, size, 3)
        if seed % 2:
            pool[0] = 0
        n = 40
        xd = pool[rng.integers(0, 3, n)]
        yd = pool[rng.integers(0, 3, n)]
        yd[5:25] = xd[12:32]
        x, y = SymbolSeq(Alphabet(size), xd), SymbolSeq(Alphabet(size), yd)
        mask = (rng.random(n) < 0.7).astype(np.int64)
        sched = (3, 10, 25, 40)
        assert masked_window_lcs(x, y, mask, sched) == [
            self.brute_force(x, y, mask, n) for n in sched]

    # binary codes are re-ranked before k = 63 and again before k = 119, so
    # the optima at n = 100 and n = 150 lie past one and past two re-ranks
    @pytest.mark.parametrize("flips", [(7,), (75,), (3, 146), (50, 110)])
    def test_lengths_past_re_ranks_match_brute_force(self, flips):
        rng = np.random.default_rng(len(flips) * 1000 + flips[0])
        n = 150
        xd = rng.integers(0, 2, n)
        yd = xd.copy()
        yd[list(flips)] ^= 1
        x, y = SymbolSeq(Alphabet(2), xd), SymbolSeq(Alphabet(2), yd)
        mask = (rng.random(n) < 0.7).astype(np.int64)
        sched = (30, 100, 150)
        got = masked_window_lcs(x, y, mask, sched)
        assert got == [self.brute_force(x, y, mask, m) for m in sched]
        assert got[1] >= 63 and got[2] >= 119

    @pytest.mark.parametrize("seed", range(4))
    def test_pairwise_oracle_matches_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        x, y = low_entropy_pair(seed, 3, 40, 40)
        mask = (rng.random(40) < 0.6).astype(np.int64)
        sched = (1, 7, 23, 40)
        assert masked_match_lengths(x, y, mask, sched, rows=7) == [
            self.brute_force(x, y, mask, n) for n in sched]

    # a chunk holds 62 binary symbols or 6 of a 300-symbol alphabet, so a
    # planted match of 63-200 symbols joins 2-4 chunks, or 11-34, in random
    # pairs where few windows survive the first probe
    @pytest.mark.parametrize("size, span", [(2, 62), (300, 6)])
    @pytest.mark.parametrize("length, n", [(63, 1000), (124, 1500), (125, 2000), (200, 2000)])
    def test_planted_matches_past_the_span(self, size, span, length, n):
        rng = np.random.default_rng(length * n + size)
        xd, yd = rng.integers(0, size, n), rng.integers(0, size, n)
        mask = (rng.random(n) < 0.7).astype(np.int64)
        i, j = (int(v) for v in rng.integers(1, n - length, 2))
        # a copy of x's window, but for fresh symbols where the mask hides them
        yd[j:j + length] = np.where(mask[:length], xd[i:i + length],
                                    rng.integers(0, size, length))
        x, y = SymbolSeq(Alphabet(size), xd), SymbolSeq(Alphabet(size), yd)
        assert MaskedWindows(np.concatenate((xd, yd)), mask).span == span
        end = max(i, j) + length  # the first n whose prefixes hold the whole copy
        sched = sorted({50, end - length // 2, end, n})
        got = masked_window_lcs(x, y, mask, sched)
        assert got == masked_match_lengths(x, y, mask, sched)
        assert got[-1] >= length

    # all-zero symbols pack in 0 bits, so the span is n; a zero mask hides
    # every chunk past the span. Every window matches in both.
    @pytest.mark.parametrize("zero", ["symbols", "mask"])
    def test_degenerate_inputs_match_whole_prefixes_fast(self, zero):
        n = 2 ** 14
        rng = np.random.default_rng(11)
        xd, yd = rng.integers(0, 2, n), rng.integers(0, 2, n)
        mask = (rng.random(n) < 0.7).astype(np.int64)
        if zero == "symbols":
            xd[:], yd[:] = 0, 0
        else:
            mask[:] = 0
        x, y = SymbolSeq(Alphabet(2), xd), SymbolSeq(Alphabet(2), yd)
        sched = tuple(2 ** p for p in range(15))
        t0 = time.perf_counter()
        assert masked_window_lcs(x, y, mask, sched) == list(sched)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_all_ones_mask_is_plain_lcs(self, seed):
        x, y = low_entropy_pair(seed, 2, 300, 300)
        sched = (1, 10, 100, 300)
        assert (masked_window_lcs(x, y, np.ones(300), sched)
                == lcs_lengths_over_schedule(x, y, sched))


def encoded_lcs_length(x, y, encoder, n):
    """Longest common substring of the two length-n encoded images."""
    return lcs_lengths_over_schedule(encode(encoder, x, n), encode(encoder, y, n), [n])[0]


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
                    == lcs_lengths_over_schedule(x, y, [25])[0])

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

    @pytest.mark.parametrize("weights", [(1.9, 2), (True, 2), {0: 1, 1: 2.0}])
    def test_non_integer_weight_rejected_as_by_the_closed_form(self, weights):
        # truncation would score and rate the pair with weights (1, 2)
        with pytest.raises(ValueError, match="weights must be positive integers"):
            highest_score(seq([0, 1], 2), seq([1, 0], 2), 2, weights)
        with pytest.raises(ValueError, match="weights must be positive integers"):
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
        ex, ey = (encode(enc, s, sum(weights[a] for a in s.data)) for s in (x, y))
        m_enc = lcs_length(ex, ey)
        v = highest_score(x, y, n, weights).length
        assert 0 <= m_enc - v <= max(weights)
