"""The n x k training fit: the reference the streamed ``kernelfeat.fit_kernel`` must match.

``fit_kernel_dense`` builds every training row's kernel features at once,
takes the column mean, centers the matrix in place, and ``fit_ridge_dense``
forms the ridge products from it.  The streamed fit never holds that n x k
matrix: it adds uncentered block products and centers them afterwards, so
its center, Gram and right-hand side agree with these only to rounding.
"""

import numpy as np

from xmodhash.dataio import FeatureMatrix
from xmodhash.encoder import fit_ridge_encoder
from xmodhash.kernelfeat import (KernelMap, _kernel_blocks, _width_sample, estimate_width,
                                  select_anchors)


def kernelize(x: FeatureMatrix, km: KernelMap) -> np.ndarray:
    """The n x k centered map of every row, assembled from ``encode``'s blocks."""
    out = np.empty((x.n, km.k))
    for rows, phi in _kernel_blocks(x, km):
        out[rows] = phi
    return out


def fit_kernel_dense(x: FeatureMatrix, k: int, seed: int) -> tuple[KernelMap, np.ndarray]:
    """The map and its centered n x k training features, from the same
    anchor and width-sample indices as ``fit_kernel``."""
    anchors = x.values[select_anchors(x.n, k, seed)]
    points = x.values[_width_sample(x.n, seed, 0)]
    km = KernelMap(anchors, estimate_width(points, anchors), center=np.zeros(k))
    phi = kernelize(x, km)
    km = KernelMap(anchors, km.sigma, center=phi.mean(axis=0))
    phi -= km.center
    return km, phi


def fit_ridge_dense(phix: np.ndarray, codes: np.ndarray, ridge: float) -> np.ndarray:
    """The hash projection of n x k features ``phix`` onto n x r ``codes``."""
    return fit_ridge_encoder(phix.T @ phix, phix.T @ codes, ridge)
