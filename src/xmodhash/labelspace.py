"""Label matrix normalization: the distinct label columns and the label Grams.

The trainer only ever touches small Gram contractions of the normalized
label matrix; it never builds explicit pairwise affinity entries.
``normalize_labels`` finds the distinct label columns once, and every label
quantity the trainer reads comes from them and their counts.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import RawLabelMatrix


@dataclass
class LabelSet:
    """The training labels L (c x n, entries 0/1) as their u distinct
    columns, the same columns of G = L / ||L|| (per column), and the c x c
    Grams of L and G summed over those columns, weighted by their counts.
    Only ``index`` has an entry per instance: L = patterns[:, index]."""

    patterns: np.ndarray    # c x u, the distinct columns of L
    normalized: np.ndarray  # c x u, the same columns of G, each of Euclidean norm 1
    counts: np.ndarray      # u, instances holding each column (float64)
    index: np.ndarray       # n, each instance's column
    llt: np.ndarray         # L L^T
    lgt: np.ndarray         # L G^T
    ggt: np.ndarray         # G G^T

    @property
    def c(self) -> int:
        return self.patterns.shape[0]

    @property
    def n(self) -> int:
        return self.index.shape[0]


def normalize_labels(raw: RawLabelMatrix) -> LabelSet:
    """Find the distinct label columns, then G's columns and every Gram from them."""
    l = np.ascontiguousarray(raw.values)     # float64 already; no copy of a read file's
    # one packed byte string per instance sorts far faster than float columns
    bits = np.ascontiguousarray(np.packbits(l.astype(bool), axis=0).T)
    keys = bits.view(f"V{bits.shape[1]}").ravel()
    _, first, index, counts = np.unique(keys, return_index=True, return_inverse=True,
                                        return_counts=True)
    p, counts = l[:, first], counts.astype(np.float64)
    g = p / np.sqrt(p.sum(axis=0, keepdims=True))     # 0/1 entries: ||p||^2 = sum(p)
    return LabelSet(patterns=p, normalized=g, counts=counts, index=index.reshape(-1),
                    llt=(p * counts) @ p.T, lgt=(p * counts) @ g.T, ggt=(g * counts) @ g.T)
