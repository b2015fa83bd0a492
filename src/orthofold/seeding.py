"""Deterministic derivation of random generators from a master seed."""

from __future__ import annotations

from zlib import crc32

import numpy as np

from .errors import InputError


def rng_for(seed: int, *tags: str) -> np.random.Generator:
    """Generator keyed by the master seed plus a stable purpose tag chain.

    The seed enters the entropy as it is, so distinct nonnegative seeds
    give distinct streams; a negative seed is refused.
    """
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    entropy = [seed] + [crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))
