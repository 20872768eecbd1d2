"""Order-2 (collision) entropy rates: closed forms and empirical estimates.

Closed forms covered:
- i.i.d. source: -log sum_i p_i^2.
- Markov chain: -log p with p the Perron eigenvalue of the entrywise square
  of the transition matrix; independent of the initial distribution.
- zero-inflated contamination of an i.i.d. source with noise level epsilon:
  (1 - epsilon) times the clean rate.
- weight-stretched Markov chain ("scrabble" scoring): -log p with p computed
  two independent ways, as the Perron eigenvalue of the entrywise square of
  the expanded transition matrix, and as the largest root in (0, 1) of
  det([q_ij^2] - diag(lambda^w(i))) = 0. Both are returned and must agree
  to 1e-9.

Empirical estimates plug observed block frequencies into -log(collision)/k
and select a plateau block length k automatically; the plateau sorts the
codes of its longest windows (`sources._padded_window_codes`) once and
counts every shorter k from their prefixes, told apart by one XOR of
adjacent sorted codes over 2^b symbols, by division at each k otherwise.

All entropies are in nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sources import (SymbolSeq, collision_sum, symbol_weights, window_counts,
                      _check_block_len, _check_probability_vector, _check_stochastic,
                      _padded_window_codes)

EIGEN_ROOT_ATOL = 1e-9
_POWER_TOL, _POWER_MAX_ITER = 1e-13, 200_000  # power iteration of dominant_eigenvalue
_ROOT_LO, _ROOT_HI, _ROOT_GRID = 1e-9, 1.0 - 1e-9, 4096  # scan of _largest_weighted_root


@dataclass(frozen=True)
class EntropyEstimate:
    """An empirical estimate at block length k: value = -log(collision)/k,
    and distinct_blocks counts the observed distinct windows. Closed forms
    return plain floats."""

    value: float
    k: int
    collision: float
    distinct_blocks: int


@dataclass(frozen=True)
class ScrabbleSpectrum:
    """Dominant-decay data of a weight-stretched chain."""

    p_eigen: float
    p_root: float
    expanded_size: int
    entropy: float


def renyi2_iid(probs) -> float:
    """-log of the collision probability of one symbol draw."""
    p = _check_probability_vector(np.asarray(probs, dtype=float), "probs")
    return float(-np.log(np.sum(p * p)))


def _is_irreducible(M: np.ndarray) -> bool:
    """Strong connectivity of the support graph (forward and backward BFS)."""
    n = M.shape[0]
    support = M > 0
    for adj in (support, support.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = adj[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = np.flatnonzero(nxt).tolist()
        if not seen.all():
            return False
    return True


def dominant_eigenvalue(M) -> float:
    """Perron eigenvalue of a nonnegative irreducible matrix.

    Power iteration runs on M + I (same Perron vector, spectrum shifted by 1,
    primitive whenever M is irreducible, so periodicity cannot stall it) with
    a Rayleigh-quotient estimate and residual stopping test.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.min() < 0:
        raise ValueError("matrix must be nonnegative")
    n = M.shape[0]
    shifted = M + np.eye(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        y = shifted @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise ArithmeticError("iterate vanished; matrix is not irreducible")
        x = y / norm
        lam = float(x @ (shifted @ x))
        residual = np.linalg.norm(shifted @ x - lam * x, ord=np.inf)
        if residual <= _POWER_TOL * max(1.0, abs(lam)):
            return lam - 1.0
    raise ArithmeticError(f"power iteration did not converge within {_POWER_MAX_ITER} iterations")


def renyi2_markov(P) -> float:
    """-log of the Perron eigenvalue of the entrywise square of P."""
    P = _check_stochastic(P)
    if not _is_irreducible(P):
        raise ValueError("transition matrix must be irreducible")
    return float(-np.log(dominant_eigenvalue(P * P)))


def renyi2_zero_inflated(probs, epsilon: float) -> float:
    """Clean i.i.d. rate shrunk by the surviving-symbol fraction 1 - epsilon."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    return (1.0 - epsilon) * renyi2_iid(probs)


def build_qstar(P, weights) -> np.ndarray:
    """Transition matrix of the weight-stretched chain.

    Symbol i becomes a deterministic run of states i_1 .. i_w(i); the run
    steps forward with probability 1 and exits its last state into j_1 with
    the original probability P[i, j]. States are ordered
    1_1..1_w(1), 2_1..2_w(2), ....
    """
    P = _check_stochastic(P)
    d = P.shape[0]
    w = symbol_weights(weights, d)
    offsets = np.concatenate([[0], np.cumsum(w)])
    total = int(offsets[-1])
    Q = np.zeros((total, total))
    for i in range(d):
        base = offsets[i]
        for step in range(w[i] - 1):
            Q[base + step, base + step + 1] = 1.0
        for j in range(d):
            Q[base + w[i] - 1, offsets[j]] = P[i, j]
    return Q


def _det_weighted(P_sq: np.ndarray, w: list[int], lam: float) -> float:
    return float(np.linalg.det(P_sq - np.diag([lam ** v for v in w])))


def _largest_weighted_root(P_sq: np.ndarray, w: list[int]) -> float:
    """Largest root in (0, 1] of det(P_sq - diag(lambda^w)) by scan + bisection."""
    # deterministic chains put the root exactly at 1
    if abs(_det_weighted(P_sq, w, 1.0)) < 1e-12:
        return 1.0
    xs = np.linspace(_ROOT_LO, _ROOT_HI, _ROOT_GRID)
    vals = np.array([_det_weighted(P_sq, w, x) for x in xs])
    signs = np.sign(vals)
    nonzero = signs != 0
    flips = np.flatnonzero(np.diff(signs[nonzero]) != 0)
    if flips.size == 0:
        raise ArithmeticError("no sign change of det(P_sq - diag(lambda^w)) in (0, 1)")
    # smaller eigenvalues of the expanded chain may also cross; the largest
    # crossing is the decay rate, and the eigenvalue route cross-checks it
    idx = np.flatnonzero(nonzero)
    a, b = float(xs[idx[flips[-1]]]), float(xs[idx[flips[-1] + 1]])
    fa = _det_weighted(P_sq, w, a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = _det_weighted(P_sq, w, mid)
        if fm == 0.0:
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
        if b - a < 1e-14:
            break
    return 0.5 * (a + b)


def renyi2_scrabble(P, weights) -> ScrabbleSpectrum:
    """Dominant decay rate of a weight-stretched chain, computed two ways.

    p_eigen comes from the Perron eigenvalue of the entrywise square of the
    expanded matrix; p_root from the largest root of
    det([P_ij^2] - diag(lambda^w(i))) in (0, 1). Disagreement beyond 1e-9 is
    an internal-consistency error. A weight gcd above 1 does not guarantee an
    aperiodic stretched chain and only triggers a warning.
    """
    P = _check_stochastic(P)
    if not _is_irreducible(P):
        raise ValueError("transition matrix must be irreducible")
    w = symbol_weights(weights, P.shape[0])
    if (math.gcd(*w) if len(w) > 1 else w[0]) != 1:
        warnings.warn("weight gcd != 1: stretched chain may be periodic",
                      RuntimeWarning, stacklevel=2)
    qstar = build_qstar(P, w)
    p_eigen = dominant_eigenvalue(qstar * qstar)
    p_root = _largest_weighted_root(P * P, w)
    if abs(p_eigen - p_root) >= EIGEN_ROOT_ATOL:
        raise ArithmeticError(
            f"eigenvalue/root disagreement: {p_eigen!r} vs {p_root!r}")
    return ScrabbleSpectrum(p_eigen=p_eigen, p_root=p_root, expanded_size=qstar.shape[0],
                            entropy=float(-np.log(p_eigen)))


def _plug_in(counts: np.ndarray, k: int) -> EntropyEstimate:
    """Estimate from the occurrence counts of the distinct length-k windows."""
    col = collision_sum(counts)
    return EntropyEstimate(value=float(-np.log(col) / k), k=k, collision=col,
                           distinct_blocks=int(counts.size))


def renyi2_empirical(seq: SymbolSeq, k: int) -> EntropyEstimate:
    """Plug-in estimate -log(collision probability at block length k)/k."""
    guideline = 100 * seq.alphabet.size ** k
    if seq.length < guideline:
        warnings.warn(
            f"sequence length {seq.length} below the {guideline} guideline "
            f"for k={k}; estimate may be undersampled", RuntimeWarning,
            stacklevel=2)
    return _plug_in(window_counts(seq, k), k)


def empirical_plateau(seq: SymbolSeq, min_coincidences: float = 100.0
                      ) -> tuple[EntropyEstimate, list[EntropyEstimate]]:
    """Empirical estimate at an automatically selected block length.

    The plug-in value -log(collision)/k carries an O(1/k) bias from the
    collision prefactor, so k is pushed as high as the sample supports:
    blocks lengthen until the observed collision probability drops below
    min_coincidences per window (where the +1/M counting bias and sampling
    noise take over) or k reaches hard_cap, the least of 62 / log2(size), n/4
    and 256 (k = 3 is always tried). The reported k then minimizes the step
    |H(k+1) - H(k)| over that range: the flattest step is the best tradeoff.

    One sort serves every k: the exact codes of the zero-padded K-windows
    (K the largest k tried) are sorted once, and the k-windows are their
    k-prefixes, counted between the places where adjacent prefixes differ,
    less the k - 1 windows that run into the padding. Where the code base is
    2^b, adjacent prefixes differ where the XOR of the adjacent codes reaches
    2^(b (K - k)); otherwise the codes are divided by base^(K - k) at each k.
    Every row equals `renyi2_empirical(seq, k)`.
    """
    _check_block_len(seq, 2)
    n, size = seq.length, seq.alphabet.size
    hard_cap = min(int(62 / math.log2(max(size, 2))), n // 4, 256)
    K = min(max(hard_cap, 3), n)
    codes, spare, base = _padded_window_codes(seq.data, size, K)
    padded = codes[n - K + 1:].copy()  # the windows starting at n-K+1 .. n-1
    codes.sort()
    padded = np.searchsorted(codes, padded)  # their places in sorted order
    new_group = np.ones(n + 1, dtype=bool)  # new_group[n] closes the last group
    packed = (base & (base - 1)) == 0  # base 2^b: u >> s != v >> s exactly when u ^ v >= 2^s
    if packed:
        flips = np.bitwise_xor(codes[1:], codes[:-1], out=spare[:n - 1])
        spare = codes  # the codes are not read again: their buffer holds the counts
    windows = n  # within a factor of the window count for k << n
    table: list[EntropyEstimate] = []
    for k in range(2, K + 1):
        if packed:
            np.greater_equal(flips, base ** (K - k), out=new_group[1:n])
        else:
            prefixes = np.floor_divide(codes, base ** (K - k), out=spare)
            np.not_equal(prefixes[1:], prefixes[:-1], out=new_group[1:n])
        starts = np.flatnonzero(new_group)
        counts = np.subtract(starts[1:], starts[:-1], out=spare[:starts.size - 1])
        at = np.searchsorted(starts, padded[K - k:], side="right") - 1
        np.subtract.at(counts, at, 1)
        del starts  # freed before the copies below: they set the peak memory
        # only the groups of padded windows lose counts, so only they can reach 0
        est = _plug_in(counts if counts[at].all() else counts[counts > 0], k)
        table.append(est)
        if est.collision * windows < min_coincidences:
            break
    steps = [abs(table[i + 1].value - table[i].value) for i in range(len(table) - 1)]
    best = int(np.argmin(steps)) if steps else 0
    return table[best], table
