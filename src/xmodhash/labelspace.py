"""Label matrix normalization.

The trainer only ever touches small Gram contractions of the normalized
label matrix; it never builds explicit pairwise affinity entries.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import RawLabelMatrix


@dataclass
class LabelSet:
    """Binary labels plus their column-normalized companion (unit columns)."""

    labels: np.ndarray      # c x n, entries 0/1
    normalized: np.ndarray  # c x n, each column has Euclidean norm 1

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

