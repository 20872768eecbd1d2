"""Finite-alphabet sequences, block counting, and i.i.d./Markov samplers.

This module provides:
- Immutable symbol sequences over a finite alphabet (symbols 0..size-1), and
  the one rule for per-symbol weights: one positive integer per symbol.
- Samplers for i.i.d. and Markov sources, deterministic in (source, n, seed),
  using one inverse-CDF uniform per emitted symbol.
- Overlapping window (block) counts and the collision sum sum_B (N_B / M)^2
  over observed length-k blocks, the plug-in ingredient of the order-2 rate.
- Exact window classes of any length by prefix doubling (`WindowClasses`),
  shared by window counts and the substring matcher.
- Exact mask-anchored window codes for k = 1, 2, ... (`anchored_window_codes`),
  the scan of the masked matcher.
- Stationary distributions of finite chains via power iteration.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12
_SAMPLE_CHUNK = 1 << 12  # uniforms walked per chunk by the Markov sampler


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


def symbol_weights(weights, size: int) -> list[int]:
    """Exactly one positive integer weight per symbol of a size-symbol alphabet.

    `weights` is a sequence indexed by symbol or a dict keyed by symbol.
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
    w = [int(v) for v in weights]
    if any(v < 1 for v in w):
        raise ValueError("weights must be positive integers")
    return w


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

    @classmethod
    def from_symbols(cls, symbols, alphabet_size: int | None = None) -> "SymbolSeq":
        arr = np.asarray(list(symbols), dtype=np.int64)
        size = alphabet_size if alphabet_size is not None else (int(arr.max()) + 1 if arr.size else 1)
        return cls(Alphabet(size), arr)


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
    identically.
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
        init_cum = np.cumsum(source.initial)
        state = int(_inverse_cdf(init_cum, u[:1])[0])
        data = np.empty(n, dtype=np.int64)
        data[0] = state
        # fixed chunks bound the Python floats and ints alive at once
        for lo in range(1, n, _SAMPLE_CHUNK):
            states = []
            for x in u[lo:lo + _SAMPLE_CHUNK].tolist():
                state = bisect.bisect_right(rows[state], x)
                states.append(state)
            data[lo:lo + len(states)] = states
    else:
        raise ValueError(f"unsupported source type: {type(source).__name__}")
    return SymbolSeq(Alphabet(int(source.alphabet.size)), data)


def _check_block_len(seq: SymbolSeq, k: int) -> None:
    if not 1 <= k <= seq.length:
        raise ValueError(f"block length k={k} out of range [1, {seq.length}]")


def block_counts(seq: SymbolSeq, k: int) -> dict[bytes, int]:
    """Occurrence counts of all overlapping length-k blocks.

    Keys are the packed symbol windows as bytes (alphabet size <= 256);
    values sum to length - k + 1. A per-window reference for the counts of
    `window_counts`.
    """
    _check_block_len(seq, k)
    if seq.alphabet.size > 256:
        raise ValueError("block_counts packing supports alphabets up to 256 symbols")
    m = seq.length - k + 1
    packed = seq.data.astype(np.uint8)
    counts: dict[bytes, int] = {}
    buf = packed.tobytes()
    for i in range(m):
        key = buf[i:i + k]
        counts[key] = counts.get(key, 0) + 1
    return counts


class WindowClasses:
    """Exact class ids of the overlapping windows of one symbol array.

    Prefix doubling (Manber-Myers 1993): level 0 holds the symbols, and level
    j+1 holds the dense ranks of the pairs (id_j[i], id_j[i + 2^j]). Two
    2^j-windows share an id exactly when they are equal, and ids follow the
    lexicographic order of the windows. A k-window with 2^j <= k < 2^(j+1)
    then has the exact key (id_j[i], id_j[i + k - 2^j]), packed into one
    int64. Levels are built lazily, only as deep as the longest window asked
    for. Arrays up to 2^31 symbols.
    """

    def __init__(self, symbols):
        ids = np.asarray(symbols, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("window classes need a nonempty 1-d symbol array")
        if ids.min() < 0 or ids.max() >= 2 ** 31:  # keep pair keys in [0, 2^62)
            ids = np.unique(ids, return_inverse=True)[1]
        self.length = int(ids.size)
        self._ids = [ids]
        self._bases = [int(ids.max()) + 1]

    def _level(self, j: int) -> tuple[np.ndarray, int]:
        while len(self._ids) <= j:
            ids, base = self._ids[-1], self._bases[-1]
            half = 1 << (len(self._ids) - 1)
            nxt = np.unique(ids[:-half] * base + ids[half:], return_inverse=True)[1]
            self._ids.append(nxt)
            self._bases.append(int(nxt.max()) + 1)
        return self._ids[j], self._bases[j]

    def keys(self, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Keys of the k-windows starting in [start, stop); equal iff the windows are.

        Keys follow the lexicographic order of the windows. `stop` defaults
        to the last window start, length - k + 1.
        """
        if not 1 <= k <= self.length:
            raise ValueError(f"window length k={k} out of range [1, {self.length}]")
        last = self.length - k + 1
        stop = last if stop is None else stop
        if not 0 <= start <= stop <= last:
            raise ValueError(f"window starts [{start}, {stop}) out of range [0, {last})")
        j = int(k).bit_length() - 1
        ids, base = self._level(j)
        rest = k - (1 << j)
        if rest == 0:
            return ids[start:stop]
        return ids[start:stop] * base + ids[start + rest:stop + rest]


def anchored_window_codes(rows, masks, size: int):
    """Exact codes of the mask-anchored windows of equal-length rows, k = 1, 2, ...

    rows is a 2-d array of symbols in [0, size), masks[r] the 0/1 mask of row
    r. Entry (r, i) of the k-th yield codes the k-window of row r at i, its
    position t holding masks[r][t] * symbol (a spaced seed). Codes are equal
    exactly when the masked windows are, across rows, and follow their
    lexicographic order; one Horner step per k, re-ranked jointly before 2^62.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if size >= 2 ** 31:  # rank the symbols, 0 among them: a masked position is 0
        ranks = np.unique(np.append(0, rows), return_inverse=True)[1]
        rows, size = ranks[1:].reshape(rows.shape), int(ranks.max()) + 1
    codes, bound = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=np.int64), 1
    for k in range(1, rows.shape[1] + 1):
        if bound * size > 2 ** 62:  # every code is below bound
            ranks = np.unique(codes, return_inverse=True)[1]
            codes, bound = ranks.reshape(codes.shape), int(ranks.max()) + 1
        codes = codes[:, :-1] * size
        for r in np.flatnonzero([m[k - 1] for m in masks]):
            codes[r] += rows[r, k - 1:]
        bound *= size
        yield codes


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


def stationary_distribution(P, tol: float = 1e-12, max_iter: int = 10 ** 6) -> np.ndarray:
    """Fixed point mu = mu P of a row-stochastic matrix, by power iteration.

    Raises ArithmeticError when the iteration fails to reach `tol` within
    `max_iter` steps (e.g. periodic or reducible chains).
    """
    P = _check_stochastic(P)
    d = P.shape[0]
    mu = np.full(d, 1.0 / d)
    for _ in range(max_iter):
        nxt = mu @ P
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - mu)) < tol:
            return nxt
        mu = nxt
    raise ArithmeticError(f"power iteration did not converge within {max_iter} iterations")
