"""Reference routes for the tests; pytest does not collect this module."""

import numpy as np

from matchdim import SymbolSeq, encode, harness, highest_score, lcs_fast, sample
from matchdim.seeding import spawn_seed


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
        encoded_len = lcs_fast(ex, ey).length
        diffs.append(encoded_len - highest_score(x, y, n_raw, enc.weights).length)
    return diffs
