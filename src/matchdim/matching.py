"""Longest common substring and highest-scoring match statistics.

Two routes are provided for the longest common substring of two symbol
sequences: a quadratic dynamic-programming oracle (`lcs_oracle`) and a fast
path built on exact window keys of the concatenated pair
(`sources.WindowClasses`: packed base-size codes for windows up to 62 bits,
prefix-doubling ranks past them). A k-window match exists when the sorted,
side-tagged keys of the two sequences meet (`_keys_meet`), which also gives
the positions of the keys that met. One kernel (`_longest_common`) serves
`lcs_fast`, on sequences of any two lengths, `lcs_lengths_over_schedule`, on
matched prefixes, and `masked_window_lcs`, on the mask-anchored keys of
`sources.MaskedWindows`: for each length one full probe (`_full_probe`)
keys every window of both prefixes, drops the keys whose hash slot the other
side leaves empty, and meets the rest; the windows that meet are the
survivors, and the longest k is found by an exponential probe then a
bisection over the survivors alone, since a longer match starts where a
shorter one does. Once the answer reaches the packed span, one span probe
over the largest prefixes serves every later length. The hash only picks
candidates; the sort decides every meet. The fast path is the production
route, cross-checked by the independent oracle.

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

from .sources import MaskedWindows, SymbolSeq, WindowClasses, symbol_weights

_HASH = 0x9E3779B97F4A7C15  # odd, near 2^64 / golden ratio: `_full_probe`'s slot hash


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


def _check_schedule(x: SymbolSeq, y: SymbolSeq, schedule) -> list[int]:
    _check_pair(x, y)
    ns = [int(n) for n in schedule]
    if not ns:
        raise ValueError("schedule must not be empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("schedule must be strictly increasing")
    if ns[0] < 1 or ns[-1] > min(x.length, y.length):
        raise ValueError("schedule out of range for the given sequences")
    return ns


def _keys_meet(kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending positions in kx and in ky of the keys both arrays hold;
    keys lie in [0, 2^62)."""
    # sorted side-tagged keys: a key on both sides puts 2c (x) next to
    # 2c+1 (y), the only neighbours that differ in the tag bit alone
    tagged = np.concatenate((kx * 2, ky * 2 + 1))
    tagged.sort()
    common = tagged[1:][(tagged[1:] ^ tagged[:-1]) == 1] >> 1
    if common.size == 0:
        return common, common

    def held(keys: np.ndarray) -> np.ndarray:
        return np.flatnonzero(common[np.minimum(np.searchsorted(common, keys), common.size - 1)]
                              == keys)

    return held(kx), held(ky)


def _full_probe(classes: WindowClasses | MaskedWindows, nx: int, k: int, mx: int, my: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Starts, in x ++ y, of the k-windows of x[:mx] whose class y[:my] holds, and
    of those of y[:my] whose class x[:mx] holds.

    Every window's key is hashed to one of 2^b slots, 8 to 16 per key of the
    longer side (the top b bits of key * _HASH mod 2^64). A key can meet the
    other side only if its slot is one the other side fills, so one bool
    table, filled by one side and read by the other, drops most keys, and
    only the keys left go to the exact sort of `_keys_meet`.
    """
    kx, ky = classes.keys(k, 0, mx - k + 1), classes.keys(k, nx, nx + my - k + 1)
    b = max(kx.size, ky.size).bit_length() + 3
    # a numpy shift count: with a Python int this line runs about 8 times slower
    hx, hy = ((keys.view(np.uint64) * _HASH >> np.uint64(64 - b)).view(np.int64)
              for keys in (kx, ky))
    table = np.zeros(1 << b, dtype=bool)
    table[hy] = True
    cx = np.flatnonzero(table[hx])
    table[hy] = False
    table[hx] = True
    cy = np.flatnonzero(table[hy])
    ix, iy = _keys_meet(kx[cx], ky[cy])
    return cx[ix], cy[iy] + nx


def _longest_common(classes: WindowClasses | MaskedWindows, nx: int, sizes
                    ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Longest common substring of x[:mx] and y[:my] for each (mx, my) in sizes.

    classes holds x ++ y, x being nx long, and sizes grow in both entries,
    so each answer starts from the one before. A full probe (`_full_probe`)
    meets the keys of every window of both prefixes at k0 = min(best + 1,
    span) on the packed codes, and yields the survivors: the starts of every
    window whose class the other prefix holds. While k0 < span, each
    size makes its own full probe of best + 1. Once k0 reaches the span it
    stays there, as best only grows, so one span probe over the windows of
    the largest sizes serves every later size: a match inside smaller
    prefixes is a match inside the largest ones, so its starts are among
    those survivors. A k-match starts at a k0-match, so every further probe
    (best + 1, best + 2, best + 4, ... then a bisection of the last gap)
    tests only the survivors whose k-window fits the prefixes, and one that
    meets narrows them to the windows that met, the positions `_keys_meet`
    returns.

    Returns the lengths, and the survivors of x and of y after the last
    probe that met, as starts in x ++ y: with one size, every window of the
    answer that the other side holds starts among them.
    """
    span, out, best = classes.span, [], 0
    sx = sy = np.zeros(0, dtype=np.int64)
    top = None
    for mx, my in sizes:
        limit, k = min(mx, my), min(best + 1, span)
        if best >= limit:
            out.append(best)
            continue
        if k < span:  # a full probe of best + 1
            sx, sy = _full_probe(classes, nx, k, mx, my)
            if sx.size == 0:
                out.append(best)
                continue
            best, step = k, 2
        else:  # one span probe over the largest prefixes serves every size from here
            if top is None:
                top = _full_probe(classes, nx, span, *sizes[-1])
            (sx, sy), step = top, 1

        def probe(k: int) -> bool:
            nonlocal sx, sy
            fx, fy = sx[sx <= mx - k], sy[sy <= nx + my - k]
            if fx.size == 0 or fy.size == 0:
                return False
            keys = classes.keys_at(k, np.concatenate((fx, fy)), mx + my)
            ix, iy = _keys_meet(keys[:fx.size], keys[fx.size:])
            if ix.size:
                sx, sy = fx[ix], fy[iy]
            return ix.size > 0

        while best + step <= limit and probe(best + step):
            best += step
            step *= 2
        lo, hi = best, min(best + step, limit + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid):
                lo = mid
            else:
                hi = mid
        best = lo
        out.append(best)
    return out, sx, sy


def lcs_fast(x: SymbolSeq, y: SymbolSeq) -> MatchResult:
    """Longest common substring by exact window classes of x ++ y.

    Matches lcs_oracle in length and witness on every input: the witness is
    the least i among the x-windows of a class that y also holds, then the
    least j among the y-windows of that class.
    """
    _check_pair(x, y)
    nx, ny = x.length, y.length
    classes = WindowClasses(np.concatenate((x.data, y.data)))
    (best,), sx, sy = _longest_common(classes, nx, [(nx, ny)])
    if best == 0:
        return MatchResult(best, (0, 0, 0))
    fx, fy = sx[sx <= nx - best], sy[sy <= nx + ny - best]
    keys = classes.keys_at(best, np.concatenate((fx, fy)), nx + ny)
    kx, ky = keys[:fx.size], keys[fx.size:]
    held_x, _ = _keys_meet(kx, ky)
    i = int(held_x[0])
    j = int(np.argmax(ky == kx[i]))
    return MatchResult(best, (int(fx[i]), int(fy[j]) - nx, best))


def lcs_lengths_over_schedule(x: SymbolSeq, y: SymbolSeq, schedule) -> list[int]:
    """Longest-common-substring lengths of matched prefixes for each n in schedule.

    One set of window classes over x[:top] ++ y[:top], top = max(schedule),
    serves every n; each n makes one full probe of the packed keys of its
    prefixes until the answer reaches the packed span, one full probe at
    the span then serves every later n, and later probes test only the
    windows that can still match.
    """
    ns = _check_schedule(x, y, schedule)
    classes = WindowClasses(np.concatenate((x.data[:ns[-1]], y.data[:ns[-1]])))
    return _longest_common(classes, ns[-1], [(n, n) for n in ns])[0]


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
    0/1, by the kernel of `lcs_lengths_over_schedule` on `sources.MaskedWindows`:
    the mask is indexed by window offset, so a (k+1)-match starts at a k-match.
    """
    ns = _check_schedule(x, y, schedule)
    if len(mask) < ns[-1]:
        raise ValueError("mask must cover the largest scheduled n")
    windows = MaskedWindows(np.concatenate((x.data[:ns[-1]], y.data[:ns[-1]])), mask[:ns[-1]])
    return _longest_common(windows, ns[-1], [(n, n) for n in ns])[0]


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
