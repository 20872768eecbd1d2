"""Symbolic encoders: identity, zero-inflating contamination, and weight stretch.

An encoder maps a raw symbol sequence to an encoded one.

- identity: passes symbols through unchanged.
- zero inflation: multiplies symbol i by an i.i.d. 0/1 mask bit with
  P(mask=1) = 1 - epsilon, derived deterministically from mask_seed. Symbol 0
  is the contamination target, so alphabets must contain 0. One encoder
  instance (one mask stream) is shared by both sequences of a matched pair;
  use distinct mask seeds for independent-mask experiments.
- stretch: symbol a is repeated weight(a) times, so matches of the encoded
  pair accumulate weight like scored matches of the raw pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .sources import SymbolSeq


class InputExhausted(ValueError):
    """Raw input too short to produce the requested encoded length."""


@dataclass(frozen=True)
class IdentityEncoder:
    kind = "identity"

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

    kind = "zero_inflation"

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
    """Repeat symbol a weight(a) times; weights are positive integers per symbol."""

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(v) for v in self.weights)
        if len(w) == 0 or any(v < 1 for v in w):
            raise ValueError("weights must be positive integers for every symbol")
        object.__setattr__(self, "weights", w)

    kind = "stretch"

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

    def image_length(self, seq: SymbolSeq, n_raw: int) -> int:
        """Exact encoded length of the first n_raw input symbols."""
        if n_raw > seq.length:
            raise ValueError(f"n_raw={n_raw} exceeds input length {seq.length}")
        return int(self._weight_array(seq.prefix(n_raw)).sum())


Encoder = Union[IdentityEncoder, ZeroInflation, StretchEncoder]


def encode(encoder: Encoder, seq: SymbolSeq, n_out: int) -> SymbolSeq:
    """First n_out symbols of the encoded image of seq."""
    return encoder.encode(seq, n_out)
