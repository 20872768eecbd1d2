"""Per-window reference routes for the tests; pytest does not collect this module."""

from matchdim import SymbolSeq


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
