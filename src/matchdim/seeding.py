"""Deterministic seed derivation for parallel trials.

Every stochastic entry point in this package takes a plain integer seed.
Trial workers derive their streams from (master seed, trial index, role)
through numpy's SeedSequence spawn keys, so results are reproducible and
independent of execution order or thread count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def spawn_seed(master: int, *key: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index path."""
    ss = np.random.SeedSequence(entropy=int(master) & _MASK64,
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

