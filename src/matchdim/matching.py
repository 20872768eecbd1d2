"""Longest common substring of matched prefixes, plain or mask-anchored.

The statistic is the length of the longest common substring of the length-n
prefixes of two symbol sequences, for each n of an increasing schedule. It
is read off exact window keys of the concatenated pair
(`sources.WindowClasses`: packed base-size codes for windows up to 62 bits,
prefix-doubling ranks past them). A k-window match exists when the sorted,
side-tagged keys of the two prefixes meet (`_keys_meet`), which also gives
the positions of the keys that met. One kernel (`_longest_common`) serves
`lcs_lengths_over_schedule` and `masked_window_lcs`, on the mask-anchored
keys of `sources.MaskedWindows`: for each n one full probe (`_full_probe`)
keys every window of both prefixes, drops the keys whose hash slot the other
side leaves empty, and meets the rest; the windows that meet are the
survivors, and the longest k is found by an exponential probe then a
bisection over the survivors alone, since a longer match starts where a
shorter one does. Once the answer reaches the packed span, one span probe
over the largest prefixes serves every later n. The hash only picks
candidates; the sort decides every meet. The quadratic references the
kernel is checked against live with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

import numpy as np

from .sources import MaskedWindows, SymbolSeq, WindowClasses

_HASH = 0x9E3779B97F4A7C15  # odd, near 2^64 / golden ratio: `_full_probe`'s slot hash


def _check_pair(x: SymbolSeq, y: SymbolSeq) -> None:
    if x.length == 0 or y.length == 0:
        raise ValueError("sequences must be nonempty")
    if x.alphabet.size != y.alphabet.size:
        raise ValueError("sequences must share an alphabet")


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


def _full_probe(classes: WindowClasses | MaskedWindows, top: int, k: int, n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Starts, in x ++ y (each top long), of the k-windows of x[:n] whose class
    y[:n] holds, and of those of y[:n] whose class x[:n] holds.

    Every window's key is hashed to one of 2^b slots, 8 to 16 per key of one
    side (the top b bits of key * _HASH mod 2^64). A key can meet the other
    side only if its slot is one the other side fills, so one bool table,
    filled by one side and read by the other, drops most keys, and only the
    keys left go to the exact sort of `_keys_meet`.
    """
    kx, ky = classes.keys(k, 0, n - k + 1), classes.keys(k, top, top + n - k + 1)
    b = kx.size.bit_length() + 3
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
    return cx[ix], cy[iy] + top


def _longest_common(classes: WindowClasses | MaskedWindows, ns: list[int]) -> list[int]:
    """Longest common substring of x[:n] and y[:n] for each n in ns.

    classes holds x ++ y, each ns[-1] long, and ns increases, so each answer
    starts from the one before. A full probe (`_full_probe`) meets the keys
    of every window of both prefixes at k0 = min(best + 1, span) on the
    packed codes, and yields the survivors: the starts of every window whose
    class the other prefix holds. While k0 < span, each n makes its own full
    probe of best + 1. Once k0 reaches the span it stays there, as best only
    grows, so one span probe over the windows of the largest prefixes serves
    every later n: a match inside smaller prefixes is a match inside the
    largest ones, so its starts are among those survivors. A k-match starts
    at a k0-match, so every further probe (best + 1, best + 2, best + 4, ...
    then a bisection of the last gap) tests only the survivors whose k-window
    fits the prefixes, and one that meets narrows them to the windows that
    met, the positions `_keys_meet` returns.
    """
    span, top, out, best = classes.span, ns[-1], [], 0
    spanned = None
    for n in ns:
        k = min(best + 1, span)
        if best >= n:
            out.append(best)
            continue
        if k < span:  # a full probe of best + 1
            sx, sy = _full_probe(classes, top, k, n)
            if sx.size == 0:
                out.append(best)
                continue
            best, step = k, 2
        else:  # one span probe over the largest prefixes serves every n from here
            if spanned is None:
                spanned = _full_probe(classes, top, span, top)
            (sx, sy), step = spanned, 1

        def probe(k: int) -> bool:
            nonlocal sx, sy
            fx, fy = sx[sx <= n - k], sy[sy <= top + n - k]
            if fx.size == 0 or fy.size == 0:
                return False
            keys = classes.keys_at(k, np.concatenate((fx, fy)), 2 * n)
            ix, iy = _keys_meet(keys[:fx.size], keys[fx.size:])
            if ix.size:
                sx, sy = fx[ix], fy[iy]
            return ix.size > 0

        while best + step <= n and probe(best + step):
            best += step
            step *= 2
        lo, hi = best, min(best + step, n + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid):
                lo = mid
            else:
                hi = mid
        best = lo
        out.append(best)
    return out


def lcs_lengths_over_schedule(x: SymbolSeq, y: SymbolSeq, schedule) -> list[int]:
    """Longest-common-substring lengths of matched prefixes for each n in schedule.

    One set of window classes over x[:top] ++ y[:top], top = max(schedule),
    serves every n; each n makes one full probe of the packed keys of its
    prefixes until the answer reaches the packed span, one full probe at
    the span then serves every later n, and later probes test only the
    windows that can still match.
    """
    ns = _check_schedule(x, y, schedule)
    return _longest_common(WindowClasses(np.concatenate((x.data[:ns[-1]], y.data[:ns[-1]]))), ns)


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
    return _longest_common(windows, ns)
