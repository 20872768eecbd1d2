"""Reference routes for the tests; pytest does not collect this module."""

import math
from dataclasses import dataclass

import numpy as np

from matchdim import Alphabet, NearestPair, Orbit, SymbolSeq, encode, harness, sample
from matchdim.geometry import _BLOCK_ENTRIES, _block_dist, _check_pair_inputs
from matchdim.matching import _check_pair, lcs_lengths_over_schedule
from matchdim.seeding import spawn_seed
from matchdim.sources import symbol_weights


@dataclass(frozen=True)
class MatchResult:
    """Optimal match statistic plus one witness realizing it.

    `length` is the common-substring length, or the accumulated weight for
    scored matches (the witness component k then holds the match length).
    A zero-length result carries the trivial witness (0, 0, 0).
    """

    length: int
    witness: tuple[int, int, int]


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


def lcs_length(x: SymbolSeq, y: SymbolSeq) -> int:
    """Longest common substring of x and y, of any two lengths, by the
    production kernel: the shorter side is padded to the longer one's length
    with the symbol `size`, over an alphabet of size + 1. The pad never
    equals a symbol of the other side, so no match runs into it."""
    top = max(x.length, y.length)

    def padded(s: SymbolSeq) -> SymbolSeq:
        size = s.alphabet.size
        return SymbolSeq(Alphabet(size + 1),
                         np.concatenate((s.data, np.full(top - s.length, size))))

    return lcs_lengths_over_schedule(padded(x), padded(y), [top])[0]


def shortest_distance(orbit_a: Orbit, orbit_b: Orbit, n: int) -> NearestPair:
    """Exact minimum over the n x n point pairs; quadratic reference route.

    The distance matrix is evaluated in blocks of whole rows of a, about
    2^14 entries each: small enough that the block's arrays stay cheap to
    allocate and cache-resident, large enough that each NumPy call does
    real work. The witness is the first (i, j) in row-major order among the
    minima: argmin takes the first minimum of a block, and a later block
    replaces it only when strictly closer. Distances fold through
    `geometry._block_dist`, as every fast route does, so the two agree bitwise.
    """
    pa, pb, space = _check_pair_inputs(orbit_a, orbit_b, n)
    rows = max(1, _BLOCK_ENTRIES // n)
    best = math.inf
    bi = bj = 0
    for i0 in range(0, n, rows):
        d = _block_dist(pa[i0:i0 + rows], pb, space)
        k = int(np.argmin(d))
        if d.flat[k] < best:
            best = float(d.flat[k])
            bi, bj = divmod(k, n)
            bi += i0
    return NearestPair(best, (bi, bj))


def block_counts(seq: SymbolSeq, k: int) -> dict[bytes, int]:
    """Occurrence counts of all overlapping length-k blocks, one window at a time.

    Keys are the packed symbol windows as bytes (alphabet size <= 256), so
    sorted keys follow the lexicographic order of the windows; values sum to
    length - k + 1. The reference for `sources.window_counts`.
    """
    if not 1 <= k <= seq.length:
        raise ValueError(f"block length k={k} out of range [1, {seq.length}]")
    if seq.alphabet.size > 256:
        raise ValueError("block_counts packing supports alphabets up to 256 symbols")
    buf = seq.data.astype("uint8").tobytes()
    counts: dict[bytes, int] = {}
    for i in range(seq.length - k + 1):
        key = buf[i:i + k]
        counts[key] = counts.get(key, 0) + 1
    return counts


def ordered_counts(counts: dict[bytes, int]) -> list[int]:
    """The counts in the lexicographic order of their windows, as window_counts gives them."""
    return [counts[key] for key in sorted(counts)]


def masked_match_lengths(x: SymbolSeq, y: SymbolSeq, mask, schedule,
                         rows: int = 64) -> list[int]:
    """Longest mask-anchored window match of the length-n prefixes, each n in schedule.

    Every start pair (i, j) is extended one position t at a time while
    mask[t] x[i + t] == mask[t] y[j + t] and the window fits, a block of
    `rows` values of i at a time. The run of a pair whose later start is e
    counts min(run, n - e) at n. The reference for `masked_window_lcs`.
    """
    top = max(schedule)
    xd, yd, on = x.data[:top], y.data[:top], np.asarray(mask[:top]) != 0
    longest = np.zeros(top, dtype=np.int64)  # longest run by later start
    for i0 in range(0, top, rows):
        i, j = (a.ravel() for a in np.meshgrid(np.arange(i0, min(i0 + rows, top)),
                                               np.arange(top), indexing="ij"))
        later, run = np.maximum(i, j), np.zeros(i.size, dtype=np.int64)
        live, t = np.arange(i.size), 0
        while live.size and t < top:
            live = live[later[live] + t < top]
            live = live[~on[t] | (xd[i[live] + t] == yd[j[live] + t])]
            run[live] += 1
            t += 1
        np.maximum.at(longest, later, run)
    return [int(np.max(np.minimum(longest[:n], n - np.arange(n)))) for n in schedule]


def scrabble_crosscheck(plan: harness.ExperimentPlan, n_raw: int = 4096) -> list[int]:
    """Encoded-match length minus weighted score at matched windows, per trial.

    The encoded windows are the exact stretched images of the raw length-n_raw
    prefixes, so the two statistics may differ only by run-boundary effects.
    """
    enc = harness._encoder_for_trial(plan, 0)
    src = harness._build_source(plan.source)
    diffs = []
    for trial in range(plan.trials):
        x, y = (sample(src, n_raw, spawn_seed(plan.master_seed, trial, role))
                for role in (harness._ROLE_X, harness._ROLE_Y))
        ex, ey = (encode(enc, s, sum(enc.weights[a] for a in s.data)) for s in (x, y))
        encoded_len = lcs_length(ex, ey)
        diffs.append(encoded_len - highest_score(x, y, n_raw, enc.weights).length)
    return diffs
