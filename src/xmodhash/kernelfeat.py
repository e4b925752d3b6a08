"""Anchor-based RBF feature maps with frozen training-set centering.

Raw features are mapped to k similarities exp(-||x - a_j||^2 / (2 sigma^2))
against anchor rows sampled from the training set, then zero-centered with
the training-set column mean.  The mean is stored on the map so queries are
centered with the same offset they would have seen at training time.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureMatrix
from .errors import DegenerateDataError, ValidationError
from .rng import component_rng


@dataclass
class KernelMap:
    """Anchors, kernel width, and the frozen centering vector for one modality."""

    anchors: np.ndarray
    sigma: float
    center: np.ndarray | None = None

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        if self.anchors.ndim != 2 or self.anchors.shape[0] < 1:
            raise ValidationError("anchors must be a non-empty k x d matrix")
        if not np.all(np.isfinite(self.anchors)):
            raise ValidationError("anchors contain NaN or Inf entries")
        if not 0 < self.sigma < np.inf:
            raise ValidationError(f"kernel width must be finite and positive, got {self.sigma}")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=np.float64)
            if self.center.shape != (self.k,):
                raise ValidationError(
                    f"kernel center has shape {self.center.shape}, expected ({self.k},)")
            if not np.all(np.isfinite(self.center)):
                raise ValidationError("kernel center contains NaN or Inf entries")

    @property
    def k(self) -> int:
        return self.anchors.shape[0]


def select_anchors(x: FeatureMatrix, k: int, seed: int) -> np.ndarray:
    """Sample k training rows uniformly without replacement.

    The sampled indices are distinct, but the rows need not be: data with
    duplicate rows can yield duplicate anchors and hence identical kernel
    columns.  The downstream ridge systems stay solvable because their
    ridge weight is positive.
    """
    n = x.n
    if k < 1:
        raise ValidationError(f"need at least one anchor, got k={k}")
    if k > n:
        raise ValidationError(f"cannot sample {k} anchors from {n} training rows")
    rng = component_rng(seed, f"anchors-{x.modality_id}")
    idx = rng.choice(n, size=k, replace=False)
    return x.values[idx].astype(np.float64).copy()


def _distances(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, points x anchors."""
    sq = (np.sum(points * points, axis=1)[:, None]
          + np.sum(anchors * anchors, axis=1)[None, :]
          - 2.0 * points @ anchors.T)
    return np.sqrt(np.maximum(sq, 0.0))


def estimate_width(x: FeatureMatrix, anchors: np.ndarray, sample_cap: int = 2000,
                   seed: int = 0) -> float:
    """Kernel width heuristic: mean point-to-anchor distance over a capped sample."""
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise ValidationError("anchors must be a non-empty k x d matrix")
    if sample_cap < 1:
        raise ValidationError(f"sample cap must be >= 1, got {sample_cap}")
    points = x.values.astype(np.float64, copy=False)
    if x.n > sample_cap:
        rng = component_rng(seed, f"width-sample-{x.modality_id}")
        points = points[rng.choice(x.n, size=sample_cap, replace=False)]
    sigma = float(_distances(points, anchors).mean())
    if sigma == 0.0:
        raise DegenerateDataError("all sampled points coincide with all anchors (width 0)")
    return sigma


def kernelize(x: FeatureMatrix, km: KernelMap) -> FeatureMatrix:
    """Map raw rows to centered RBF similarities against the anchors.

    On the first (training) pass km.center is unset: the column mean of the
    raw kernel matrix is computed, stored on the map, and subtracted.  Later
    passes reuse the stored mean unchanged.  Row blocks are independent, so
    evaluation order never affects the output.
    """
    if x.dim != km.anchors.shape[1]:
        raise ValidationError(
            f"feature dimension {x.dim} does not match anchor dimension {km.anchors.shape[1]}")
    d = _distances(x.values.astype(np.float64, copy=False), km.anchors)
    phi = np.exp(-(d * d) / (2.0 * km.sigma * km.sigma))
    if km.center is None:
        km.center = phi.mean(axis=0)
    return FeatureMatrix(phi - km.center, modality_id=x.modality_id)


def fit_kernel(x: FeatureMatrix, k: int, seed: int,
               sample_cap: int = 2000) -> tuple[KernelMap, np.ndarray]:
    """Anchors, width and the centering pass: the map and its n x k training features."""
    anchors = select_anchors(x, k, seed)
    km = KernelMap(anchors, estimate_width(x, anchors, sample_cap=sample_cap, seed=seed))
    return km, kernelize(x, km).values
