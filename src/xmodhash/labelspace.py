"""Label matrix normalization, the label Grams, and distinct label patterns.

The trainer only ever touches small Gram contractions of the normalized
label matrix; it never builds explicit pairwise affinity entries.  Its
sweeps run on the distinct label columns and their counts.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataio import RawLabelMatrix


@dataclass
class LabelSet:
    """Binary labels plus their column-normalized companion (unit columns),
    and the c x c Grams of the two, taken once when the set is built."""

    labels: np.ndarray      # L, c x n, entries 0/1
    normalized: np.ndarray  # G, c x n, each column has Euclidean norm 1
    llt: np.ndarray = field(init=False, repr=False)   # L L^T
    lgt: np.ndarray = field(init=False, repr=False)   # L G^T
    ggt: np.ndarray = field(init=False, repr=False)   # G G^T

    def __post_init__(self):
        self.llt = self.labels @ self.labels.T
        self.lgt = self.labels @ self.normalized.T
        self.ggt = self.normalized @ self.normalized.T

    @property
    def c(self) -> int:
        return self.labels.shape[0]

    @property
    def n(self) -> int:
        return self.labels.shape[1]


def normalize_labels(raw: RawLabelMatrix) -> LabelSet:
    """Divide every label column by its Euclidean norm."""
    l = raw.values.astype(np.float64, copy=True)
    norms = np.linalg.norm(l, axis=0, keepdims=True)
    return LabelSet(labels=l, normalized=l / norms)


def label_patterns(labels: LabelSet) -> tuple[LabelSet, np.ndarray, np.ndarray]:
    """The distinct label columns (as a c x u LabelSet), how many instances
    hold each one, and the index of every instance's pattern."""
    # one packed byte string per instance sorts far faster than float columns
    bits = np.ascontiguousarray(np.packbits(labels.labels.astype(bool), axis=0).T)
    keys = bits.view(f"V{bits.shape[1]}").ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    patterns = LabelSet(labels=labels.labels[:, first], normalized=labels.normalized[:, first])
    return patterns, counts.astype(np.float64), inverse.reshape(-1)
