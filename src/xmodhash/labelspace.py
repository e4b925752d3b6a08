"""Label matrix normalization: the distinct label columns and the label Grams.

The trainer only ever touches small Gram contractions of the normalized
label matrix; it never builds explicit pairwise affinity entries.  Its
sweeps run on the distinct label columns and their counts, which
``normalize_labels`` finds once.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import RawLabelMatrix


@dataclass
class LabelSet:
    """The training labels L (c x n, entries 0/1) as their u distinct
    columns, with the same columns of the column-normalized G = L / ||L||
    and the c x c Grams of L and G over all n instances.  Only ``index``
    has an entry per instance: L = patterns[:, index]."""

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
    """Divide every label column by its Euclidean norm, take the Grams, and
    keep the distinct columns."""
    l = np.ascontiguousarray(raw.values)     # float64 already; no copy of a read file's
    g = l / np.sqrt(l.sum(axis=0, keepdims=True))     # 0/1 entries: ||l||^2 = sum(l)
    # one packed byte string per instance sorts far faster than float columns
    bits = np.ascontiguousarray(np.packbits(l.astype(bool), axis=0).T)
    keys = bits.view(f"V{bits.shape[1]}").ravel()
    _, first, index, counts = np.unique(keys, return_index=True, return_inverse=True,
                                        return_counts=True)
    return LabelSet(patterns=l[:, first], normalized=g[:, first],
                    counts=counts.astype(np.float64), index=index.reshape(-1),
                    llt=l @ l.T, lgt=l @ g.T, ggt=g @ g.T)
