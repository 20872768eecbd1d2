"""Longest common substring and highest-scoring match statistics.

Two routes are provided for the longest common substring of two symbol
sequences: a quadratic dynamic-programming oracle (`lcs_oracle`) and a fast
path (`lcs_fast`) built on exact window keys of the concatenated pair
(`sources.WindowClasses`: packed base-size codes for windows up to 62 bits,
prefix-doubling ranks past them). A k-window match exists when the sorted,
side-tagged keys of the two sequences meet (`_keys_meet`); the longest k is
found by an exponential probe then a bisection. Masked matching scans k up
over `sources.anchored_window_codes` with the same test. The fast path is
the production route, cross-checked by the independent oracle.

`highest_score` generalizes match length to weighted match score: every
symbol carries a positive integer weight and a common substring scores the
sum of its symbol weights. One match-table DP (`_best_run`) serves both the
oracle, with unit weights, and the weighted score.

Witnesses are (i, j, k): start positions in each sequence and the match
length. Ties are broken toward the lexicographically smallest (i, j) so
results are reproducible; length/score is the contract, the witness is
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sources import SymbolSeq, WindowClasses, anchored_window_codes, symbol_weights


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


def _best_run(xd: np.ndarray, yd: np.ndarray, wx: list[int]) -> MatchResult:
    """Heaviest common run of xd and yd, wx[i] being the weight of xd[i].

    T[i, j] = weight of the maximal common run starting at (i, j), computed
    row by row from the bottom (positive weights make the maximal run the
    heaviest one starting there). The witness is the least (i, j) among the
    maxima; its length k is found afterwards by comparing forward from (i, j).
    """
    prev = np.zeros(yd.size + 1, dtype=np.int64)
    cur = np.zeros(yd.size + 1, dtype=np.int64)
    best, bi, bj = 0, 0, 0
    for i in range(xd.size - 1, -1, -1):
        np.add(prev[1:], wx[i], out=cur[:-1])
        np.multiply(cur[:-1], yd == xd[i], out=cur[:-1])
        rm = int(cur.max())
        if rm > 0 and rm >= best:
            best = rm
            bi = i
            bj = int(np.argmax(cur == rm))
        prev, cur = cur, prev
    if best == 0:
        return MatchResult(0, (0, 0, 0))
    m = min(xd.size - bi, yd.size - bj)
    same = xd[bi:bi + m] == yd[bj:bj + m]
    k = m if same.all() else int(np.argmin(same))
    return MatchResult(best, (bi, bj, k))


def lcs_oracle(x: SymbolSeq, y: SymbolSeq) -> MatchResult:
    """Exact longest common substring: the match-table DP with unit weights."""
    _check_pair(x, y)
    return _best_run(x.data, y.data, [1] * x.length)


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
    probes best + 1, best + 2, best + 4, ... and bisects the last gap (plain LCS).
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


def _keys_meet(kx: np.ndarray, ky: np.ndarray) -> bool:
    """Whether the key arrays share a value; keys lie in [0, 2^62)."""
    # sorted side-tagged keys: a key on both sides puts 2c (x) next to
    # 2c+1 (y), the only neighbours that differ in the tag bit alone
    tagged = np.concatenate((kx * 2, ky * 2 + 1))
    tagged.sort()
    return bool(np.any((tagged[1:] ^ tagged[:-1]) == 1))


def _classes_meet(classes: WindowClasses, k: int, nx: int, mx: int, my: int) -> bool:
    """Whether a k-window of x[:mx] equals one of y[:my], classes being of x[:nx] ++ y."""
    return _keys_meet(classes.keys(k, 0, mx - k + 1), classes.keys(k, nx, nx + my - k + 1))


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
    serves every n; it sorts only for matches longer than its packed span,
    and its ranked levels are built only as deep as the longest match.
    """
    _check_pair(x, y)
    ns = _check_schedule(schedule, min(x.length, y.length))
    top = ns[-1]
    classes = WindowClasses(np.concatenate((x.data[:top], y.data[:top])))
    return _longest_over_schedule(lambda n, k: _classes_meet(classes, k, top, n, n), ns)


def masked_window_lcs(x: SymbolSeq, y: SymbolSeq, mask, schedule) -> list[int]:
    """Longest matching window pair with the mask re-anchored to window starts.

    A contamination mask is a fixed environment: comparing a window of x
    starting at i with a window of y starting at j applies the same mask
    prefix to both, i.e. position t of the windows matches when
    mask[t]*x[i+t] == mask[t]*y[j+t]. This keeps the masked positions aligned
    across the pair (they act as wildcards), which is the matching event
    whose rate is set by the contaminated entropy; the plain substring match
    of the two encoded strings compares mask bits from unrelated positions
    instead and decays at a different rate.

    Returns the optimal length for each n in `schedule`, any alphabet, mask
    0/1: one scan over the codes of `anchored_window_codes` raises k while
    the length-n prefixes match.
    """
    _check_pair(x, y)
    ns = _check_schedule(schedule, min(x.length, y.length))
    if len(mask) < ns[-1]:
        raise ValueError("mask must cover the largest scheduled n")
    codes = anchored_window_codes((x.data[:ns[-1]], y.data[:ns[-1]]), mask, x.alphabet.size)
    (cx, cy), k, out = next(codes), 1, []
    for n in ns:
        # the length-n prefixes hold n - k + 1 k-windows; k - 1 already matches
        while k <= n and _keys_meet(cx[:n - k + 1], cy[:n - k + 1]):
            k += 1
            cx, cy = next(codes, (cx, cy))  # runs out only once k passes ns[-1]
        out.append(k - 1)
    return out


def highest_score(x: SymbolSeq, y: SymbolSeq, n: int, weights) -> MatchResult:
    """Maximum summed weight over common substrings of the length-n prefixes.

    Runs the match-table DP of lcs_oracle with each symbol weighted.
    """
    _check_pair(x, y)
    if not 1 <= n <= min(x.length, y.length):
        raise ValueError(f"n={n} out of range for sequences of lengths "
                         f"{x.length}, {y.length}")
    xd = x.data[:n]
    wx = np.asarray(symbol_weights(weights, x.alphabet.size))[xd].tolist()
    return _best_run(xd, y.data[:n], wx)
