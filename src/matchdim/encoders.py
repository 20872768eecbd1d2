"""Symbolic encoders: identity, zero-inflating contamination, and weight stretch.

An encoder maps a raw symbol sequence to an encoded one.

- identity: passes symbols through unchanged.
- zero inflation: multiplies symbol i by an i.i.d. 0/1 mask bit with
  P(mask=1) = 1 - epsilon, derived deterministically from mask_seed. Symbol 0
  is the contamination target, so alphabets must contain 0. A trial builds
  one encoder, so both sequences of a matched pair see one mask stream.
- stretch: symbol a is repeated weight(a) times, so matches of the encoded
  pair accumulate weight like scored matches of the raw pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .sources import SymbolSeq, symbol_weights


class InputExhausted(ValueError):
    """Raw input too short to produce the requested encoded length."""


@dataclass(frozen=True)
class IdentityEncoder:
    def encode(self, seq: SymbolSeq, n_out: int) -> SymbolSeq:
        if seq.length < n_out:
            raise InputExhausted(
                f"input exhausted: need {n_out} symbols, input has {seq.length}")
        return seq.prefix(n_out)


@dataclass(frozen=True)
class ZeroInflation:
    """Per-position contamination z_i -> mask_i * z_i with P(mask=1)=1-epsilon."""

    epsilon: float
    mask_seed: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")

    def mask(self, n: int) -> np.ndarray:
        """First n mask bits (0/1), deterministic in mask_seed."""
        rng = np.random.default_rng(self.mask_seed)
        return (rng.random(n) < 1.0 - self.epsilon).astype(np.int64)

    def encode(self, seq: SymbolSeq, n_out: int) -> SymbolSeq:
        if seq.length < n_out:
            raise InputExhausted(
                f"input exhausted: need {n_out} symbols, input has {seq.length}")
        return SymbolSeq(seq.alphabet, seq.data[:n_out] * self.mask(n_out))


@dataclass(frozen=True)
class StretchEncoder:
    """Repeat symbol a weight(a) times; one positive integer weight per symbol."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("weights must cover at least one symbol")
        object.__setattr__(self, "weights", tuple(symbol_weights(self.weights, len(self.weights))))

    def _weight_array(self, seq: SymbolSeq) -> np.ndarray:
        if int(seq.data.max(initial=0)) >= len(self.weights):
            raise ValueError("weights do not cover the input alphabet")
        return np.asarray(self.weights, dtype=np.int64)[seq.data]

    def encode(self, seq: SymbolSeq, n_out: int) -> SymbolSeq:
        w = self._weight_array(seq)
        cum = np.cumsum(w)
        total = int(cum[-1]) if cum.size else 0
        if total < n_out:
            raise InputExhausted(
                f"input exhausted: need an encoded image of length {n_out}, "
                f"input of length {seq.length} stretches to only {total}")
        m = int(np.searchsorted(cum, n_out, side="left")) + 1
        out = np.repeat(seq.data[:m], w[:m])[:n_out]
        return SymbolSeq(seq.alphabet, out)


Encoder = Union[IdentityEncoder, ZeroInflation, StretchEncoder]


def encode(encoder: Encoder, seq: SymbolSeq, n_out: int) -> SymbolSeq:
    """First n_out symbols of the encoded image of seq."""
    return encoder.encode(seq, n_out)
