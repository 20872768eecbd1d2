"""Finite-alphabet sequences, block counting, and i.i.d./Markov samplers.

This module provides:
- Immutable symbol sequences over a finite alphabet (symbols 0..size-1).
- Samplers for i.i.d. and Markov sources, deterministic in (source, n, seed),
  using one inverse-CDF uniform per emitted symbol.
- Overlapping window (block) counts and the empirical collision probability
  sum_B (N_B / M)^2 over observed length-k blocks, the plug-in ingredient of
  the order-2 entropy rate.
- Stationary distributions of finite chains via power iteration.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


# Symbols above 9 map into letters so dumps stay single-character per symbol.
_DUMP_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


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

    def to_text(self) -> str:
        """Newline-free single-character-per-symbol dump (alphabets up to 36)."""
        if self.alphabet.size > len(_DUMP_CHARS):
            raise ValueError("text dump supports alphabets up to size 36")
        return "".join(_DUMP_CHARS[s] for s in self.data)

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
        P = np.asarray(self.transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
            raise ValueError("transition must be a nonempty square matrix")
        if P.min() < 0:
            raise ValueError("transition has negative entries")
        rowsums = P.sum(axis=1)
        if np.max(np.abs(rowsums - 1.0)) > PROB_ATOL:
            raise ValueError(f"transition rows must sum to 1 within {PROB_ATOL}")
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
        states = [state]
        for x in u[1:].tolist():
            state = bisect.bisect_right(rows[state], x)
            states.append(state)
        data = np.array(states, dtype=np.int64)
    else:
        raise ValueError(f"unsupported source type: {type(source).__name__}")
    return SymbolSeq(Alphabet(int(source.alphabet.size)), data)


def _check_block_len(seq: SymbolSeq, k: int) -> None:
    if not 1 <= k <= seq.length:
        raise ValueError(f"block length k={k} out of range [1, {seq.length}]")


def block_codes(seq: SymbolSeq, k: int) -> np.ndarray:
    """Integer code of every overlapping length-k window (base = alphabet size).

    Requires the codes to fit in int64; guaranteed for k*log2(size) <= 62.
    """
    _check_block_len(seq, k)
    size = seq.alphabet.size
    if k * np.log2(max(size, 2)) > 62:
        raise ValueError("block codes would overflow int64; use block_counts")
    m = seq.length - k + 1
    codes = np.zeros(m, dtype=np.int64)
    for t in range(k):
        codes *= size
        codes += seq.data[t:t + m]
    return codes


def block_counts(seq: SymbolSeq, k: int) -> dict[bytes, int]:
    """Occurrence counts of all overlapping length-k blocks.

    Keys are the packed symbol windows as bytes (alphabet size <= 256);
    values sum to length - k + 1.
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


def window_counts(seq: SymbolSeq, k: int) -> np.ndarray:
    """Occurrence counts of the distinct overlapping length-k windows."""
    _check_block_len(seq, k)
    try:
        return np.unique(block_codes(seq, k), return_counts=True)[1]
    except ValueError:
        return np.asarray(list(block_counts(seq, k).values()), dtype=np.int64)


def collision_sum(counts: np.ndarray) -> float:
    """sum_B (N_B/M)^2 over window counts N_B with total M."""
    return float(np.sum((counts / float(counts.sum())) ** 2))


def collision_probability(seq: SymbolSeq, k: int) -> float:
    """Empirical collision probability sum over observed blocks of (N_B/M)^2."""
    return collision_sum(window_counts(seq, k))


def stationary_distribution(P, tol: float = 1e-12, max_iter: int = 10 ** 6) -> np.ndarray:
    """Fixed point mu = mu P of a row-stochastic matrix, by power iteration.

    Raises ArithmeticError when the iteration fails to reach `tol` within
    `max_iter` steps (e.g. periodic or reducible chains).
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    rowsums = P.sum(axis=1)
    if P.min() < 0 or np.max(np.abs(rowsums - 1.0)) > PROB_ATOL:
        raise ValueError("P must be row-stochastic")
    d = P.shape[0]
    mu = np.full(d, 1.0 / d)
    for _ in range(max_iter):
        nxt = mu @ P
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - mu)) < tol:
            return nxt
        mu = nxt
    raise ArithmeticError(f"power iteration did not converge within {max_iter} iterations")
