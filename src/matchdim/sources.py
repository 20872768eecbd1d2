"""Finite-alphabet sequences, window counting, and i.i.d./Markov samplers.

This module provides:
- Immutable symbol sequences over a finite alphabet (symbols 0..size-1), and
  the one rule for per-symbol weights: one positive integer per symbol.
- Samplers for i.i.d. and Markov sources, deterministic in (source, n, seed),
  using one inverse-CDF uniform per emitted symbol. A two-state chain is
  walked with no loop (`_two_state_walk`); a larger one steps one symbol at a
  time (`_chain_walk`).
- Overlapping window (block) counts and the collision sum sum_B (N_B / M)^2
  over observed length-k blocks, the plug-in ingredient of the order-2 rate.
- Exact codes of the zero-padded windows of one length at every start, built
  by doubling and one step of overlapping halves, with no sort
  (`_padded_window_codes`), shared by the window classes and the entropy
  plateau.
- Exact window keys of any length (`WindowClasses`), shared by window counts
  and the substring matcher: packed codes up to 62 bits, prefix-doubling
  ranks past them, for a range of starts or for chosen ones.
- Exact keys of mask-anchored windows for the same matcher (`MaskedWindows`).
- Stationary distributions of finite chains via power iteration.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12
_SAMPLE_CHUNK = 1 << 14  # uniforms walked per chunk by the Markov sampler
# 2(i + 1) for step i of a chunk; the largest code, 2 _SAMPLE_CHUNK + 1, fits 16 bits
_STEP_CODES = np.arange(2, 2 * _SAMPLE_CHUNK + 1, 2, dtype=np.uint16)
_STATIONARY_TOL, _STATIONARY_MAX_ITER = 1e-12, 10 ** 6  # stationary_distribution


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


def symbol_weights(weights, size: int) -> list[int]:
    """Exactly one positive integer weight per symbol of a size-symbol alphabet.

    `weights` is a sequence indexed by symbol or a dict keyed by symbol, of
    ints or NumPy integers: a float or a bool weight is rejected, not truncated.
    """
    count = len(weights)
    if isinstance(weights, dict):
        missing = [s for s in range(size) if s not in weights]
        if missing:
            raise ValueError(f"missing weight for symbol {missing[0]}")
        weights = [weights[s] for s in range(size)]
    elif count < size:
        raise ValueError("missing weight: weight vector shorter than alphabet")
    if count > size:
        raise ValueError(f"{count} weights for an alphabet of {size} symbols")
    for v in weights:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"weights must be positive integers, got {v!r}")
    return [int(v) for v in weights]


@dataclass(frozen=True)
class SymbolSeq:
    """Immutable finite realization over an alphabet."""

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise ValueError("symbol out of range for alphabet")
        arr = arr.view()  # freeze a view; the caller's array stays writeable
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def length(self) -> int:
        return int(self.data.size)

    def __len__(self) -> int:
        return self.length

    def prefix(self, n: int) -> "SymbolSeq":
        if n > self.length:
            raise ValueError(f"prefix length {n} exceeds sequence length {self.length}")
        return SymbolSeq(self.alphabet, self.data[:n])


def _check_probability_vector(p: np.ndarray, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{what} must be a nonempty vector")
    if p.min() < 0:
        raise ValueError(f"{what} has negative entries")
    if abs(p.sum() - 1.0) > PROB_ATOL:
        raise ValueError(f"{what} must sum to 1 within {PROB_ATOL}, got {p.sum()!r}")
    return p


def _check_stochastic(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise ValueError("transition matrix must be square and nonempty")
    # written so that NaN entries fail too
    if not (P.min() >= 0 and np.max(np.abs(P.sum(axis=1) - 1.0)) <= PROB_ATOL):
        raise ValueError(f"transition matrix must be row-stochastic within {PROB_ATOL}")
    return P


@dataclass(frozen=True)
class IIDSource:
    """Product measure: each symbol drawn independently from probs."""

    probs: np.ndarray

    def __post_init__(self):
        p = _check_probability_vector(self.probs, "probs").view()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(int(self.probs.size))


@dataclass(frozen=True)
class MarkovSource:
    """Finite chain with row-stochastic transition matrix and initial law."""

    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        P = _check_stochastic(self.transition)
        pi = _check_probability_vector(self.initial, "initial").view()
        if pi.size != P.shape[0]:
            raise ValueError("initial distribution size does not match transition")
        P = np.ascontiguousarray(P).view()
        P.flags.writeable = False
        pi.flags.writeable = False
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "initial", pi)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(int(self.transition.shape[0]))

    @classmethod
    def stationary(cls, transition) -> "MarkovSource":
        """Source started from the stationary distribution of `transition`."""
        P = np.asarray(transition, dtype=float)
        return cls(P, stationary_distribution(P))


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    # first index with cum > u; clip guards cum[-1] rounding slightly below 1
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def sample(source: IIDSource | MarkovSource, n: int, seed: int) -> SymbolSeq:
    """Draw a length-n realization; deterministic in (source, n, seed).

    One uniform is consumed per symbol, mapped through the inverse CDF of the
    relevant distribution (marginal for i.i.d., active row for Markov), so an
    i.i.d. source and a Markov source with identical rows consume randomness
    identically. A two-state chain is walked with no per-symbol loop; a larger
    one steps one symbol at a time. Both give the same states.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    if isinstance(source, IIDSource):
        cum = np.cumsum(source.probs)
        data = _inverse_cdf(cum, u)
    elif isinstance(source, MarkovSource):
        P = source.transition
        d = P.shape[0]
        # per-row upper thresholds, final bucket implicit
        rows = [tuple(np.cumsum(P[i])[:-1]) for i in range(d)]
        walk = _two_state_walk if d == 2 else _chain_walk
        init_cum = np.cumsum(source.initial)
        data = np.empty(n, dtype=np.int64)
        data[0] = _inverse_cdf(init_cum, u[:1])[0]
        # fixed chunks bound the memory alive at once; the state carries over
        for lo in range(1, n, _SAMPLE_CHUNK):
            hi = min(lo + _SAMPLE_CHUNK, n)
            data[lo:hi] = walk(rows, u[lo:hi], int(data[lo - 1]))
    else:
        raise ValueError(f"unsupported source type: {type(source).__name__}")
    return SymbolSeq(Alphabet(int(source.alphabet.size)), data)


def _chain_walk(rows, v: np.ndarray, state: int) -> list[int]:
    """The states after each uniform of v from `state`, one bisect per step.

    `rows[s]` holds the upper thresholds of row s, its last bucket implicit.
    """
    states = []
    for x in v.tolist():
        state = bisect.bisect_right(rows[state], x)
        states.append(state)
    return states


def _two_state_walk(rows, v: np.ndarray, state: int) -> np.ndarray:
    """`_chain_walk` of a two-state chain, with no per-step loop.

    From state s the next state is [x >= t_s], t_s = rows[s][0]. A uniform
    below both thresholds or at or above both is a fixed step: every state goes
    to [x >= hi]. Between them it keeps the state, or swaps it when t_0 < t_1.
    So each state is the value of the last fixed step (or the carried state),
    XOR the parity of the swaps since. Step i gets the code 2(i + 1) |
    [x >= hi] (`_STEP_CODES`) when it is fixed and 0 otherwise, step 0 at
    least the carried state. After a running maximum, bit 0 of a code is the
    value of the last fixed step, or the carried state, and code >> 1 is 1 +
    that step, or 0. Every step since it swaps: i + 1 - (code >> 1) of them.
    """
    t0, t1 = rows[0][0], rows[1][0]
    lo, hi = min(t0, t1), max(t0, t1)
    up = v >= hi
    steps = _STEP_CODES[:v.size]
    code = steps | up
    code *= up | (v < lo)
    code[0] = max(code[0], state)
    np.maximum.accumulate(code, out=code)
    if t0 < t1:  # bit 1 of code ^ steps is the parity of the swaps
        code ^= (code ^ steps) >> 1
    return code & 1


def _check_block_len(seq: SymbolSeq, k: int) -> None:
    if not 1 <= k <= seq.length:
        raise ValueError(f"block length k={k} out of range [1, {seq.length}]")


def _padded_window_codes(x: np.ndarray, size: int, K: int
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact codes of the K-windows of x at every start, zero past its end.

    Returns the codes, a spare buffer of their size and a base such that
    code // base^(K-k) codes the k-window, for every 2 <= k <= K <= x.size,
    in the lexicographic order of the windows. The codes are base-size
    numbers, built with no sort by doubling up to the largest power of two
    P <= K, code_2s(i) = code_s(i) size^s + code_s(i+s), then one step of
    overlapping halves, code_K(i) = code_P(i) size^(K-P) + code_P(i+P) //
    size^(2P-K), so k = 1 holds too while size^K <= 2^62. Past that (only a
    K = 3 forced over a large alphabet), the leading two symbols are replaced
    by the rank of their pair, which is below x.size.
    """
    n = x.size
    if size ** K > 2 ** 62:
        if size >= 2 ** 31:  # rank the symbols, so that pair codes stay below 2^62
            x = np.unique(x, return_inverse=True)[1]
            size = int(x.max()) + 1
        pairs = x * size
        pairs[:-1] += x[1:]
        codes = np.unique(pairs, return_inverse=True)[1] * size ** (K - 2)
        if K == 3:
            codes[:-2] += x[2:]
        return codes, np.empty_like(codes), size
    codes, spare, span = x.copy(), np.empty_like(x), 1
    while 2 * span <= K:
        np.multiply(codes, size ** span, out=spare)
        spare[:n - span] += codes[span:]
        codes, spare, span = spare, codes, 2 * span
    if span < K:  # the first K - span symbols of the span-window at i + span
        tail = np.floor_divide(codes[span:], size ** (2 * span - K), out=spare[:n - span])
        codes *= size ** (K - span)
        codes[:n - span] += tail
    return codes, spare, size


class WindowClasses:
    """Exact keys of the overlapping windows of one symbol array.

    Level 0 is packed: the exact base-size code of the zero-padded window of
    `span` symbols at every start, span being the longest window whose code
    stays within 2^62 (at most the array length). A k-window with k <= span
    has the key code // size^(span - k), its k-symbol prefix, and no sort is
    needed. Longer windows use prefix doubling (Manber-Myers 1993) from
    there: ranked level j holds the dense ranks of the L_j-windows,
    L_j = span 2^j, level 0 ranking the codes and level j+1 the pairs
    (rank_j[i], rank_j[i + L_j]). A k-window with L_j <= k < 2 L_j has the
    key (rank_j[i], rank_j[i + k - L_j]), packed into one int64. Keys are
    equal exactly when the windows are and follow their lexicographic order.
    Ranked levels span the whole array; they are built lazily, only as deep
    as the longest window asked for, and kept. Arrays up to 2^31 symbols.

    `keys` gives the keys of a range of starts, comparable across calls;
    `keys_at` those of chosen starts, comparable within one call.
    """

    def __init__(self, symbols):
        ids = np.asarray(symbols, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("window classes need a nonempty 1-d symbol array")
        # ranked: negative codes would not sort, and past 2^31 the span drops below 2
        top = int(ids.max())
        if ids.min() < 0 or top >= 2 ** 31:
            values, ids = np.unique(ids, return_inverse=True)
            top = values.size - 1
        self.length = n = int(ids.size)
        self._size = size = top + 1
        span = n if size == 1 else 1
        while span < n and size ** (span + 1) <= 2 ** 62:
            span += 1
        self.span = span
        self._codes = _padded_window_codes(ids, size, span)[0]
        self._codes.flags.writeable = False  # `keys` at the span returns slices of it
        self._ranks: list[np.ndarray] = []
        self._bases: list[int] = []

    def _ranked(self, j: int) -> tuple[np.ndarray, int]:
        while len(self._ranks) <= j:
            if self._ranks:
                ids, base = self._ranks[-1], self._bases[-1]
                half = self.span << (len(self._ranks) - 1)
                pairs = ids[:-half] * base + ids[half:]
            else:  # the real span-windows, none running into the padding
                pairs = self._codes[:self.length - self.span + 1]
            nxt = np.unique(pairs, return_inverse=True)[1]
            self._ranks.append(nxt)
            self._bases.append(int(nxt.max()) + 1)
        return self._ranks[j], self._bases[j]

    def _ranked_keys(self, k: int, starts: np.ndarray) -> np.ndarray:
        """Keys of the k-windows at starts from the ranked level of k > span."""
        j = int(k // self.span).bit_length() - 1
        ids, base = self._ranked(j)
        rest = k - (self.span << j)
        if rest == 0:
            return ids[starts]
        return ids[starts] * base + ids[starts + rest]

    def keys(self, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Keys of the k-windows starting in [start, stop); equal iff the windows are.

        Keys follow the lexicographic order of the windows, and keys from
        different calls compare. `stop` defaults to the last window start,
        length - k + 1.
        """
        if not 1 <= k <= self.length:
            raise ValueError(f"window length k={k} out of range [1, {self.length}]")
        last = self.length - k + 1
        stop = last if stop is None else stop
        if not 0 <= start <= stop <= last:
            raise ValueError(f"window starts [{start}, {stop}) out of range [0, {last})")
        if k == self.span:
            return self._codes[start:stop]
        if k < self.span:
            return self._codes[start:stop] // self._size ** (self.span - k)
        return self._ranked_keys(k, np.arange(start, stop))

    def keys_at(self, k: int, starts: np.ndarray, budget: int) -> np.ndarray:
        """Keys of the k-windows at the given starts, each window inside the array.

        Keys are equal exactly when the windows are and follow their
        lexicographic order, but compare only within one call. Past the span,
        a k-window is its two overlapping halves of h = span 2^j symbols,
        h < k <= 2h, split again down to the span in d steps. While
        len(starts) 2^d, the most windows those steps need, is below
        `budget` (callers pass the windows they would otherwise compare),
        each step ranks its halves among themselves; otherwise the keys come
        from the ranked level of k, built once for the whole array and kept.
        """
        if k <= self.span:
            return self._codes[starts] // self._size ** (self.span - k)
        d = ((k - 1) // self.span).bit_length()
        if starts.size << d >= budget:
            return self._ranked_keys(k, starts)
        half = self.span << d - 1
        at = np.concatenate((starts, starts + k - half))
        # dense ranks below at.size, so the pair packs below at.size^2 < 2^62
        ranks = np.unique(self.keys_at(half, at, budget), return_inverse=True)[1]
        return ranks[:starts.size] * at.size + ranks[starts.size:]


class MaskedWindows:
    """Exact keys of the mask-anchored windows of one symbol array.

    The masked k-window at i holds mask[t] * symbols[i + t] at position t,
    k <= len(mask) <= len(symbols). Two such windows differ only where the
    mask is 1, so symbols past 2^31 may be ranked first. Chunk a of the
    window is the code of the zero-padded span-window at i + a, packed b bits
    a symbol (span <= 62 // b), ANDed with mask[a:a + span] packed alike, its
    1s as b one-bits. `keys` (up to the span) and `keys_at` are as in
    `WindowClasses`."""

    def __init__(self, symbols, mask):
        ids = np.asarray(symbols, dtype=np.int64)
        if ids.max() >= 2 ** 31:
            ids = np.unique(ids, return_inverse=True)[1]
        self._bits = b = int(ids.max()).bit_length()
        on = np.where(np.asarray(mask) != 0, (1 << b) - 1, 0)
        self.span = span = min(on.size, 62 // b) if b else on.size
        self._codes, self._patterns = (_padded_window_codes(v, 1 << b, span)[0] for v in (ids, on))

    def keys(self, k: int, start: int, stop: int) -> np.ndarray:
        return self.keys_at(k, np.arange(start, stop), 0)

    def keys_at(self, k: int, starts: np.ndarray, budget: int) -> np.ndarray:
        """Keys of the masked k-windows at starts; `budget` is unused.

        Chunks a = 0, span, 2 span, ..., cut to the k - a symbols left, each
        ranked in turn with the key before it among the starts (below
        len(starts)^2 < 2^62). A chunk the mask hides is 0 and is skipped."""
        def chunk(a: int) -> np.ndarray:
            cut = self._bits * max(self.span + a - k, 0)
            return (self._codes[starts + a] & self._patterns[a]) >> cut

        keys = chunk(0)
        for a in range(self.span, k, self.span):
            if self._patterns[a]:
                keys = (np.unique(keys, return_inverse=True)[1] * starts.size
                        + np.unique(chunk(a), return_inverse=True)[1])
        return keys


def window_counts(seq: SymbolSeq, k: int) -> np.ndarray:
    """Occurrence counts of the distinct overlapping length-k windows.

    Counts come in the lexicographic order of the windows, counted by their
    `WindowClasses` keys for every k.
    """
    _check_block_len(seq, k)
    return np.unique(WindowClasses(seq.data).keys(k), return_counts=True)[1]


def collision_sum(counts: np.ndarray) -> float:
    """sum_B (N_B/M)^2 over window counts N_B with total M."""
    return float(np.sum((counts / float(counts.sum())) ** 2))


def stationary_distribution(P) -> np.ndarray:
    """Fixed point mu = mu P of a row-stochastic matrix, by power iteration.

    Raises ArithmeticError when the iteration fails to reach _STATIONARY_TOL
    within _STATIONARY_MAX_ITER steps (e.g. periodic or reducible chains).
    """
    P = _check_stochastic(P)
    d = P.shape[0]
    mu = np.full(d, 1.0 / d)
    for _ in range(_STATIONARY_MAX_ITER):
        nxt = mu @ P
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - mu)) < _STATIONARY_TOL:
            return nxt
        mu = nxt
    raise ArithmeticError(
        f"power iteration did not converge within {_STATIONARY_MAX_ITER} iterations")
