import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matchdim import (Alphabet, IIDSource, IdentityEncoder, InputExhausted, StretchEncoder,
                      SymbolSeq, ZeroInflation, encode, sample)


def seq(symbols, size):
    return SymbolSeq(Alphabet(size), symbols)


class TestIdentity:
    def test_passthrough(self):
        s = seq([0, 1, 1, 0], 2)
        assert encode(IdentityEncoder(), s, 4).data.tolist() == [0, 1, 1, 0]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_equals_prefix(self, seed, n):
        s = sample(IIDSource(np.array([0.4, 0.6])), 50, seed)
        assert np.array_equal(encode(IdentityEncoder(), s, n).data, s.data[:n])

    def test_exhausted(self):
        with pytest.raises(InputExhausted, match="10"):
            encode(IdentityEncoder(), seq([0] * 4, 1), 10)


class TestZeroInflation:
    def test_definitional_product(self):
        enc = ZeroInflation(epsilon=0.5, mask_seed=314)
        s = seq([1, 1, 1, 1], 2)
        out = encode(enc, s, 4)
        assert np.array_equal(out.data, s.data * enc.mask(4))

    def test_mask_fixed_across_pair(self):
        enc = ZeroInflation(epsilon=0.4, mask_seed=7)
        x = seq([1, 1, 0, 1], 2)
        y = seq([1, 0, 1, 1], 2)
        m = enc.mask(4)
        assert np.array_equal(encode(enc, x, 4).data, x.data * m)
        assert np.array_equal(encode(enc, y, 4).data, y.data * m)

    def test_all_ones_mask_is_identity(self):
        enc = ZeroInflation(epsilon=0.0, mask_seed=1)
        s = sample(IIDSource(np.array([0.3, 0.3, 0.4])), 300, 5)
        assert np.array_equal(encode(enc, s, 300).data, s.data)

    def test_mask_law(self):
        # 1e6 draws: frequency of 1 within 3 binomial sigma of 1 - eps
        eps = 0.3
        m = ZeroInflation(epsilon=eps, mask_seed=99).mask(10 ** 6)
        sigma = np.sqrt(eps * (1 - eps) / 10 ** 6)
        assert abs(m.mean() - (1 - eps)) < 3 * sigma

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ZeroInflation(epsilon=1.0, mask_seed=0)


class TestStretch:
    def test_worked_example(self):
        # weight 1 for symbol 0, weight 2 for symbol 1: 01 -> 011
        assert encode(StretchEncoder((1, 2)), seq([0, 1], 2), 3).data.tolist() == [0, 1, 1]

    def test_truncation(self):
        assert encode(StretchEncoder((1, 2)), seq([0, 1], 2), 2).data.tolist() == [0, 1]

    def test_required_input_length_scan(self):
        # cumulative weights 3, 6, ... for input 110...: image length 4 needs 2 symbols
        enc = StretchEncoder((1, 3))
        s = seq([1, 1, 0, 0, 0], 2)
        assert (encode(enc, s.prefix(2), 4).data.tolist()
                == encode(enc, s, 4).data.tolist() == [1, 1, 1, 1])
        with pytest.raises(InputExhausted):
            encode(enc, s.prefix(1), 4)
        # all-zero input at weight 2: image length 5 needs 3 symbols
        enc2 = StretchEncoder((2,))
        s2 = seq([0, 0, 0, 0], 1)
        assert encode(enc2, s2.prefix(3), 5).data.tolist() == [0] * 5
        with pytest.raises(InputExhausted):
            encode(enc2, s2.prefix(2), 5)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_run_collapse_recovers_prefix(self, seed, n_out):
        enc = StretchEncoder((1, 3, 2))
        raw = sample(IIDSource(np.array([0.3, 0.4, 0.3])), 120, seed)
        image = encode(enc, raw, n_out)
        decoded = []
        data = image.data
        i = 0
        while i < len(data):
            j = i
            while j < len(data) and data[j] == data[i]:
                j += 1
            decoded.extend([int(data[i])] * ((j - i) // enc.weights[int(data[i])]))
            i = j
        assert np.array_equal(np.asarray(decoded, dtype=np.int64),
                              raw.data[:len(decoded)])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_required_length_matches_encode_consumption(self, seed, n_out):
        enc = StretchEncoder((2, 1, 3))
        raw = sample(IIDSource(np.array([0.2, 0.5, 0.3])), 100, seed)
        w = np.asarray(enc.weights)[raw.data]
        if w.sum() < n_out:
            with pytest.raises(InputExhausted):
                encode(enc, raw, n_out)
            return
        # the shortest raw prefix whose stretched image reaches n_out symbols
        m = int(np.argmax(np.cumsum(w) >= n_out)) + 1
        assert np.array_equal(encode(enc, raw.prefix(m), n_out).data,
                              encode(enc, raw, n_out).data)
        with pytest.raises(InputExhausted):
            encode(enc, raw.prefix(m - 1), n_out)

    def test_exhausted_error_names_lengths(self):
        with pytest.raises(InputExhausted, match="length 9"):
            encode(StretchEncoder((1, 2)), seq([0, 0, 0], 2), 9)

    def test_weights_positive(self):
        with pytest.raises(ValueError):
            StretchEncoder((1, 0))

    def test_weights_follow_the_one_weight_rule(self):
        # ints and NumPy integers pass; a float or a bool is never truncated
        assert StretchEncoder((np.int64(1), 2)).weights == (1, 2)
        for weights in [(1.9, 2), (True, 2), (1.0, 2)]:
            with pytest.raises(ValueError, match="weights must be positive integers"):
                StretchEncoder(weights)

    def test_image_length(self):
        # the image of a raw prefix is exactly as long as its weights add up to
        enc = StretchEncoder((1, 2))
        s = seq([0, 1, 1, 0], 2)
        assert encode(enc, s, 6).data.tolist() == [0, 1, 1, 1, 1, 0]
        assert encode(enc, s.prefix(2), 3).data.tolist() == [0, 1, 1]
        with pytest.raises(InputExhausted):
            encode(enc, s.prefix(2), 4)
