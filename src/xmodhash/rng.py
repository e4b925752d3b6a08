"""Deterministic derivation of per-component RNG streams from one user seed.

Every random choice in the toolkit (anchor sampling, model init, synthetic
data) pulls its own generator from ``component_rng`` so that a single seed
flag reproduces a whole run while components stay statistically
independent of each other.
"""

import zlib

import numpy as np


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Return a Generator keyed by (seed, component tag)."""
    tag = zlib.crc32(component.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, tag]))
