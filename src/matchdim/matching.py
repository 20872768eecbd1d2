"""Longest common substring and highest-scoring match statistics.

Two routes are provided for the longest common substring of two symbol
sequences: a quadratic dynamic-programming oracle (`lcs_oracle`) and a fast
path (`lcs_fast`) built on exact window classes of the concatenated pair
(`sources.WindowClasses`). A k-window match exists when the sorted,
side-tagged class keys of the two sequences meet; the longest k is found by
an exponential probe then a bisection, a search that masked window matching
shares with its own mask-anchored predicate. The fast path is the production
route; the oracle exists to cross-check it and is kept independent of it.

`highest_score` generalizes match length to weighted match score: every
symbol carries a positive integer weight and a common substring scores the
sum of its symbol weights.

Witnesses are (i, j, k): start positions in each sequence and the match
length. Ties are broken toward the lexicographically smallest (i, j) so
results are reproducible; length/score is the contract, the witness is
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoders import Encoder, encode
from .sources import SymbolSeq, WindowClasses


@dataclass(frozen=True)
class MatchResult:
    """Optimal match statistic plus one witness realizing it.

    `length` is the common-substring length, or the accumulated weight for
    scored matches (the witness component k then holds the match length).
    A zero-length result carries the trivial witness (0, 0, 0).
    """

    length: int
    witness: tuple[int, int, int]


def _check_pair(x: SymbolSeq, y: SymbolSeq) -> None:
    if x.length == 0 or y.length == 0:
        raise ValueError("sequences must be nonempty")
    if x.alphabet.size != y.alphabet.size:
        raise ValueError("sequences must share an alphabet")


def lcs_oracle(x: SymbolSeq, y: SymbolSeq) -> MatchResult:
    """Exact longest common substring by the quadratic match-suffix table.

    T[i, j] = length of the maximal common run starting at (i, j), computed
    row by row from the bottom; the answer is the table maximum.
    """
    _check_pair(x, y)
    xd, yd = x.data, y.data
    prev = np.zeros(yd.size + 1, dtype=np.int64)
    cur = np.zeros(yd.size + 1, dtype=np.int64)
    best, bi, bj = 0, 0, 0
    for i in range(xd.size - 1, -1, -1):
        np.add(prev[1:], 1, out=cur[:-1])
        np.multiply(cur[:-1], yd == xd[i], out=cur[:-1])
        rm = int(cur.max())
        if rm > 0 and rm >= best:
            best = rm
            bi = i
            bj = int(np.argmax(cur == rm))
        prev, cur = cur, prev
    return MatchResult(best, (bi, bj, best) if best else (0, 0, 0))


def _check_schedule(schedule, limit: int) -> list[int]:
    ns = [int(n) for n in schedule]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("schedule must be strictly increasing")
    if ns[0] < 1 or ns[-1] > limit:
        raise ValueError("schedule out of range for the given sequences")
    return ns


def _longest_over_schedule(exists, ns: list[int]) -> list[int]:
    """Largest k with exists(n, k), for each n of a strictly increasing schedule.

    exists(n, k) must be monotone: true for k implies true for k - 1. The
    optimum is nondecreasing in n, so each n starts from the previous answer,
    probes best + 1, best + 2, best + 4, ... and bisects the last gap.
    """
    out = []
    best = 0
    for n in ns:
        step = 1
        while best + step <= n and exists(n, best + step):
            best += step
            step *= 2
        lo, hi = best, min(best + step, n + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if exists(n, mid):
                lo = mid
            else:
                hi = mid
        best = lo
        out.append(best)
    return out


def _classes_meet(classes: WindowClasses, k: int, nx: int, mx: int, my: int) -> bool:
    """Whether a k-window of x[:mx] equals one of y[:my], classes being of x[:nx] ++ y."""
    kx = classes.keys(k, 0, mx - k + 1)
    ky = classes.keys(k, nx, nx + my - k + 1)
    # sorted side-tagged keys: a class on both sides puts 2c (x) next to
    # 2c+1 (y), the only neighbours that differ in the tag bit alone
    tagged = np.concatenate((kx * 2, ky * 2 + 1))
    tagged.sort()
    return bool(np.any((tagged[1:] ^ tagged[:-1]) == 1))


def lcs_fast(x: SymbolSeq, y: SymbolSeq, want_witness: bool = True) -> MatchResult:
    """Longest common substring by exact window classes of x ++ y.

    Matches lcs_oracle in length and witness on every input: the witness is
    the least i among the x-windows of a class that y also holds, then the
    least j among the y-windows of that class. The witness pass is skipped
    when want_witness is False (bulk statistics only need the length).
    """
    _check_pair(x, y)
    nx, ny = x.length, y.length
    classes = WindowClasses(np.concatenate((x.data, y.data)))
    best = _longest_over_schedule(
        lambda n, k: _classes_meet(classes, k, nx, nx, ny), [min(nx, ny)])[0]
    if best == 0 or not want_witness:
        return MatchResult(best, (0, 0, 0))
    kx = classes.keys(best, 0, nx - best + 1)
    ky = classes.keys(best, nx, nx + ny - best + 1)
    i = int(np.argmax(np.isin(kx, ky)))
    j = int(np.argmax(ky == kx[i]))
    return MatchResult(best, (i, j, best))


def lcs_lengths_over_schedule(x: SymbolSeq, y: SymbolSeq, schedule) -> list[int]:
    """Longest-common-substring lengths of matched prefixes for each n in schedule.

    One set of window classes over x[:top] ++ y[:top], top = max(schedule),
    serves every n; its doubling levels are built only as deep as the longest
    match.
    """
    _check_pair(x, y)
    ns = _check_schedule(schedule, min(x.length, y.length))
    top = ns[-1]
    classes = WindowClasses(np.concatenate((x.data[:top], y.data[:top])))
    return _longest_over_schedule(lambda n, k: _classes_meet(classes, k, top, n, n), ns)


def encoded_lcs(x: SymbolSeq, y: SymbolSeq, encoder: Encoder, n: int) -> MatchResult:
    """Longest common substring of the two length-n encoded images."""
    return lcs_fast(encode(encoder, x, n), encode(encoder, y, n))


def _masked_window_match_exists(xd, yd, mask_x, mask_y, n: int, k: int) -> bool:
    if not 1 <= k <= n:
        return k <= 0
    keys = []
    for data, mask in ((xd, mask_x), (yd, mask_y)):
        w = sliding_window_view(data[:n].astype(np.uint8), k) * mask[:k].astype(np.uint8)
        w = np.ascontiguousarray(w)
        keys.append(w.view(np.dtype((np.void, k))).ravel())
    return np.intersect1d(keys[0], keys[1]).size > 0


def masked_window_lcs(x: SymbolSeq, y: SymbolSeq, mask_x, mask_y=None,
                      schedule=None) -> list[int]:
    """Longest matching window pair with the mask re-anchored to window starts.

    A contamination mask is a fixed environment: comparing a window of x
    starting at i with a window of y starting at j applies the same mask
    prefix to both, i.e. position t of the windows matches when
    mask_x[t]*x[i+t] == mask_y[t]*y[j+t]. With a shared mask this keeps the
    masked positions aligned across the pair (they act as wildcards), which
    is the matching event whose rate is set by the contaminated entropy; the
    plain substring match of the two encoded strings compares mask bits from
    unrelated positions instead and decays at a different rate.

    Returns the optimal length for each n in `schedule` (default: the full
    common length). Alphabets up to 256 symbols.
    """
    _check_pair(x, y)
    if x.alphabet.size > 256:
        raise ValueError("masked matching supports alphabets up to 256 symbols")
    mask_x = np.asarray(mask_x, dtype=np.int64)
    mask_y = mask_x if mask_y is None else np.asarray(mask_y, dtype=np.int64)
    limit = min(x.length, y.length)
    ns = _check_schedule([limit] if schedule is None else schedule, limit)
    if mask_x.size < ns[-1] or mask_y.size < ns[-1]:
        raise ValueError("masks must cover the largest scheduled n")
    xd, yd = x.data, y.data
    return _longest_over_schedule(
        lambda n, k: _masked_window_match_exists(xd, yd, mask_x, mask_y, n, k), ns)


def _weight_vector(weights, alphabet_size: int) -> np.ndarray:
    if isinstance(weights, dict):
        try:
            w = [int(weights[s]) for s in range(alphabet_size)]
        except KeyError as e:
            raise ValueError(f"missing weight for symbol {e.args[0]}") from None
    else:
        w = [int(v) for v in weights]
        if len(w) < alphabet_size:
            raise ValueError("missing weight: weight vector shorter than alphabet")
    if any(v < 1 for v in w):
        raise ValueError("weights must be positive integers")
    return np.asarray(w, dtype=np.int64)


def highest_score(x: SymbolSeq, y: SymbolSeq, n: int, weights) -> MatchResult:
    """Maximum summed weight over common substrings of the length-n prefixes.

    Weighted analogue of lcs_oracle: the table carries accumulated weight of
    the maximal run starting at each cell (positive weights make the maximal
    run optimal among runs starting there).
    """
    _check_pair(x, y)
    if not 1 <= n <= min(x.length, y.length):
        raise ValueError(f"n={n} out of range for sequences of lengths "
                         f"{x.length}, {y.length}")
    w = _weight_vector(weights, x.alphabet.size)
    xd, yd = x.data[:n], y.data[:n]
    prev_w = np.zeros(n + 1, dtype=np.int64)
    prev_k = np.zeros(n + 1, dtype=np.int64)
    cur_w = np.zeros(n + 1, dtype=np.int64)
    cur_k = np.zeros(n + 1, dtype=np.int64)
    best, bi, bj, bk = 0, 0, 0, 0
    for i in range(n - 1, -1, -1):
        eq = yd == xd[i]
        np.add(prev_w[1:], w[xd[i]], out=cur_w[:-1])
        np.multiply(cur_w[:-1], eq, out=cur_w[:-1])
        np.add(prev_k[1:], 1, out=cur_k[:-1])
        np.multiply(cur_k[:-1], eq, out=cur_k[:-1])
        rm = int(cur_w.max())
        if rm > 0 and rm >= best:
            best = rm
            bi = i
            bj = int(np.argmax(cur_w == rm))
            bk = int(cur_k[bj])
        prev_w, cur_w = cur_w, prev_w
        prev_k, cur_k = cur_k, prev_k
    return MatchResult(best, (bi, bj, bk) if best else (0, 0, 0))
