"""Anchor-based RBF feature maps with frozen training-set centering.

Raw features are mapped to k similarities exp(-||x - a_j||^2 / (2 sigma^2))
against anchor rows sampled from the training set, then zero-centered with
the training-set column mean.  The mean is stored on the map so queries are
centered with the same offset they would have seen at training time.

The map runs in steps of at most _BLOCK_CELLS point-anchor cells, each
computed in place: the squared distance (-2 x.a + ||x||^2) + ||a||^2 (anchor
norms cached on the map), clipped at 0, scaled, exponentiated and centered.
The width sigma averages the same distances, square-rooted, over at most
_WIDTH_SAMPLE_CAP sampled rows (the RBF width of SDH, Shen et al. 2015).
Float32 rows are cast to float64 one step at a time, so working memory
beyond the output is one step whatever the row count.  The rows come from
the input's ``blocks`` method one step at a time: views of an in-memory
``FeatureMatrix``, or rows read from an AMX1 file as they are needed
(``dataio.MatrixRows``).  Squared distances go straight into the exponent
with no square root, so phi can differ from exp(-sqrt(d2)^2 / (2 sigma^2))
in the last ulp.

A fit reads its rows twice: one ``gather`` of the anchors and the width
sample by row index, then the training pass, which never holds the n x d
training rows or the n x k training features Phi.  It runs the rows in
blocks of _FIT_BLOCK_CELLS cells and adds each uncentered block's column
sums, Gram and product with the codes into k, k x k and k x r accumulators.
Centering follows from Phi_c^T Phi_c = Phi^T Phi - n mu mu^T and
Phi_c^T B = Phi^T B - mu (1^T B), with mu the column mean.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import FeatureMatrix, MatrixRows
from .errors import DegenerateDataError, ValidationError
from .rng import component_rng

# Point-anchor cells per row block: 512 KB of float64 stays in cache while
# one block goes through every in-place step.
_BLOCK_CELLS = 2 ** 16

# Cells per row block of the training pass: at k = 1000 a block is 1 040 rows,
# tall enough that the per-block k x k Gram costs little more than one Gram
# over every row.
_FIT_BLOCK_CELLS = 2 ** 20

# Rows sampled (seeded) for the kernel width estimate when a modality has more.
_WIDTH_SAMPLE_CAP = 2000


@dataclass
class KernelMap:
    """Anchors, kernel width, and the frozen centering vector for one modality."""

    anchors: np.ndarray
    sigma: float
    center: np.ndarray
    anchor_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        if self.anchors.ndim != 2 or self.anchors.shape[0] < 1:
            raise ValidationError("anchors must be a non-empty k x d matrix")
        if not np.all(np.isfinite(self.anchors)):
            raise ValidationError("anchors contain NaN or Inf entries")
        if not 0 < self.sigma < np.inf:
            raise ValidationError(f"kernel width must be finite and positive, got {self.sigma}")
        if self.center is None:
            raise ValidationError("kernel map needs the training-set center")
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.center.shape != (self.k,):
            raise ValidationError(
                f"kernel center has shape {self.center.shape}, expected ({self.k},)")
        if not np.all(np.isfinite(self.center)):
            raise ValidationError("kernel center contains NaN or Inf entries")
        self.anchor_sq = np.sum(self.anchors * self.anchors, axis=1)

    @property
    def k(self) -> int:
        return self.anchors.shape[0]


def select_anchors(n: int, k: int, seed: int, modality: int = 0) -> np.ndarray:
    """Indices of k of n training rows, sampled uniformly without replacement
    from the random stream of ``seed`` tagged with ``modality``.

    The indices are distinct, but the rows need not be: data with
    duplicate rows can yield duplicate anchors and hence identical kernel
    columns.  The downstream ridge systems stay solvable because their
    ridge weight is positive.
    """
    if k < 1:
        raise ValidationError(f"need at least one anchor, got k={k}")
    if k > n:
        raise ValidationError(f"cannot sample {k} anchors from {n} training rows")
    return component_rng(seed, f"anchors-{modality}").choice(n, size=k, replace=False)


def _width_sample(n: int, seed: int, modality: int) -> np.ndarray:
    """Indices of the width sample: every row, or _WIDTH_SAMPLE_CAP rows from
    the random stream of ``seed`` tagged with ``modality`` when n is larger."""
    if n <= _WIDTH_SAMPLE_CAP:
        return np.arange(n)
    rng = component_rng(seed, f"width-sample-{modality}")
    return rng.choice(n, size=_WIDTH_SAMPLE_CAP, replace=False)


def _sq_distances(rows: np.ndarray, anchors: np.ndarray, anchor_sq: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Squared distances of the float64 ``rows`` to the anchors,
    (-2 x.a + ||x||^2) + ||a||^2 clipped at 0, written into ``out`` in place."""
    np.matmul(rows, anchors.T, out=out)
    out *= -2.0
    out += np.sum(rows * rows, axis=1)[:, None]
    out += anchor_sq
    np.maximum(out, 0.0, out=out)
    return out


def estimate_width(points: np.ndarray, anchors: np.ndarray) -> float:
    """Kernel width heuristic: the mean distance of the float64 rows ``points`` to the anchors."""
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise ValidationError("anchors must be a non-empty k x d matrix")
    sq = _sq_distances(points, anchors, np.sum(anchors * anchors, axis=1),
                       np.empty((points.shape[0], anchors.shape[0])))
    sigma = float(np.sqrt(sq, out=sq).mean())
    if sigma == 0.0:
        raise DegenerateDataError("all sampled points coincide with all anchors (width 0)")
    return sigma


def _kernel_block(rows: np.ndarray, km: KernelMap, out: np.ndarray) -> np.ndarray:
    """Write the centered map of ``rows`` (one block) into ``out`` in place."""
    _sq_distances(rows.astype(np.float64, copy=False), km.anchors, km.anchor_sq, out)
    out *= -1.0 / (2.0 * km.sigma * km.sigma)
    np.exp(out, out=out)
    out -= km.center
    return out


def _kernel_blocks(x: FeatureMatrix | MatrixRows, km: KernelMap, cells: int | None = None):
    """Yield (row slice, centered map of those rows), blocks of at most
    ``cells`` point-anchor cells (``_BLOCK_CELLS`` when None).

    ``x`` is a ``FeatureMatrix`` or an AMX1 file's ``dataio.MatrixRows``.
    The map runs in steps of at most _BLOCK_CELLS cells (one row minimum),
    and its ``blocks`` method gives the rows one step at a time, as views of
    the values or read from the file as they are needed, so a file is read
    into a buffer of one step's rows.  Each step is mapped straight into one
    reused block buffer, so a caller keeps only what it derives from a block
    before asking for the next.  A block is a whole number of steps counted
    from row 0, so every row is mapped in the same step, and to the same
    bits, whatever the block size or source; the steps' row-sized
    temporaries stay small.  The caller checks the feature dimension.
    """
    step = max(1, _BLOCK_CELLS // km.k)
    height = step * max(1, (cells or _BLOCK_CELLS) // (step * km.k))
    buf = np.empty((min(x.n, height), km.k))
    for rows, values in x.blocks(step):
        at = rows.start % height
        end = at + len(values)
        _kernel_block(values, km, buf[at:end])
        if end == height or rows.stop == x.n:
            yield slice(rows.stop - end, rows.stop), buf[:end]


def fit_kernel(x: FeatureMatrix | MatrixRows, k: int, seed: int, codes: np.ndarray,
               index: np.ndarray, modality: int = 0) -> tuple[KernelMap, np.ndarray, np.ndarray]:
    """One gather of the anchors and the width sample, then one pass over the
    training rows: the map (centered on the training column mean mu) and the
    ridge products of its centered training features Phi_c with the codes B,
    Phi_c^T Phi_c (k x k) and Phi_c^T B (k x r).  Row i's code is
    ``codes[index[i]]``, one of the u distinct code rows (u x r).  The
    anchors and the width sample come from the random streams of ``seed``
    tagged with ``modality``; the map keeps a copy of the anchors alone.

    The rows go through the map uncentered, one block at a time; the sums
    of each block are added into accumulators that every block reuses, so
    the pass holds one block and nothing n x d, n x k or n x r.
    """
    sample = _width_sample(x.n, seed, modality)
    idx = np.concatenate([sample, select_anchors(x.n, k, seed, modality)])
    points, anchors = np.split(x.gather(idx).astype(np.float64, copy=False), [len(sample)])
    sigma = estimate_width(points, anchors)     # its distances are freed before the copy
    km = KernelMap(anchors.copy(), sigma, center=np.zeros(k))
    del sample, idx, points, anchors    # so the training pass holds no sampled row
    col_sum = np.zeros(k)
    gram, gram_blk = np.zeros((k, k)), np.empty((k, k))
    rhs, rhs_blk = np.zeros((k, codes.shape[1])), np.empty((k, codes.shape[1]))
    for rows, phi in _kernel_blocks(x, km, _FIT_BLOCK_CELLS):
        col_sum += phi.sum(axis=0)
        gram += np.matmul(phi.T, phi, out=gram_blk)      # symmetric: numpy's syrk path
        rhs += np.matmul(phi.T, codes[index[rows]], out=rhs_blk)
    center = col_sum / x.n
    gram -= np.multiply.outer(col_sum, center, out=gram_blk)     # n mu mu^T
    code_sum = np.bincount(index, minlength=codes.shape[0]) @ codes    # 1^T B, exact
    rhs -= np.multiply.outer(center, code_sum, out=rhs_blk)
    return replace(km, center=center), gram, rhs
