"""Anchor-based RBF feature maps with frozen training-set centering.

Raw features are mapped to k similarities exp(-||x - a_j||^2 / (2 sigma^2))
against anchor rows sampled from the training set, then zero-centered with
the training-set column mean.  The mean is stored on the map so queries are
centered with the same offset they would have seen at training time.

The map runs in steps of at most _BLOCK_CELLS point-anchor cells, each
computed in place: the squared distance ||x||^2 + ||a||^2 - 2 x.a (anchor
norms cached on the map), clipped at 0, scaled, exponentiated and centered.
Float32 rows are cast to float64 one step at a time, so working memory
beyond the output is one step whatever the row count.  The rows come from
the input's ``blocks`` method one step at a time: views of an in-memory
``FeatureMatrix``, or rows read from an AMX1 file as they are needed
(``dataio.MatrixRows``).  The anchors and the width sample come from its
``gather`` method, by row index.  Squared distances go straight into the
exponent with no square root, so phi can differ from
exp(-sqrt(d2)^2 / (2 sigma^2)) in the last ulp.

The training pass never holds the n x d training rows or the n x k training
features Phi.  It runs the rows once in blocks of _FIT_BLOCK_CELLS cells and
adds each uncentered block's column sums, Gram and product with the codes
into k, k x k and k x r accumulators.  Centering follows from
Phi_c^T Phi_c = Phi^T Phi - n mu mu^T and Phi_c^T B = Phi^T B - mu (1^T B),
with mu the column mean.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import FeatureMatrix, MatrixRows, _row_blocks
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


def select_anchors(x: FeatureMatrix | MatrixRows, k: int, seed: int,
                   modality: int = 0) -> np.ndarray:
    """Sample k training rows uniformly without replacement, from the random
    stream of ``seed`` tagged with ``modality``.

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
    rng = component_rng(seed, f"anchors-{modality}")
    idx = rng.choice(n, size=k, replace=False)
    return x.gather(idx).astype(np.float64, copy=False)


def _distances(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, points x anchors (the width heuristic's).

    One output buffer: -(2p).a, plus ||p||^2 + ||a||^2 added a row block at
    a time, clipped at 0 and square-rooted in place.  Doubling and negation
    are exact, so the values equal sqrt(max(||p||^2 + ||a||^2 - 2p.a, 0)).
    """
    out = np.matmul(2.0 * points, anchors.T)
    np.negative(out, out=out)
    point_sq = np.sum(points * points, axis=1)
    anchor_sq = np.sum(anchors * anchors, axis=1)
    for rows in _row_blocks(points.shape[0], max(1, _BLOCK_CELLS // anchors.shape[0])):
        out[rows] += point_sq[rows, None] + anchor_sq
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def estimate_width(x: FeatureMatrix | MatrixRows, anchors: np.ndarray, seed: int = 0,
                   modality: int = 0) -> float:
    """Kernel width heuristic: mean point-to-anchor distance over at most
    _WIDTH_SAMPLE_CAP rows, sampled from the random stream of ``seed``
    tagged with ``modality`` when there are more."""
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise ValidationError("anchors must be a non-empty k x d matrix")
    idx = np.arange(x.n)
    if x.n > _WIDTH_SAMPLE_CAP:
        rng = component_rng(seed, f"width-sample-{modality}")
        idx = rng.choice(x.n, size=_WIDTH_SAMPLE_CAP, replace=False)
    points = x.gather(idx).astype(np.float64, copy=False)     # only the sampled rows
    sigma = float(_distances(points, anchors).mean())
    if sigma == 0.0:
        raise DegenerateDataError("all sampled points coincide with all anchors (width 0)")
    return sigma


def _kernel_block(rows: np.ndarray, km: KernelMap, out: np.ndarray) -> np.ndarray:
    """Write the centered map of ``rows`` (one block) into ``out`` in place."""
    rows = rows.astype(np.float64, copy=False)
    np.matmul(rows, km.anchors.T, out=out)
    out *= -2.0
    out += np.sum(rows * rows, axis=1)[:, None]
    out += km.anchor_sq
    np.maximum(out, 0.0, out=out)
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
    """Anchors, width and one pass over the training rows: the map (centered
    on the training column mean mu) and the ridge products of its centered
    training features Phi_c with the codes B, Phi_c^T Phi_c (k x k) and
    Phi_c^T B (k x r).  Row i's code is ``codes[index[i]]``, one of the u
    distinct code rows (u x r).  The anchors and the width sample come from
    the random streams of ``seed`` tagged with ``modality``.

    The rows go through the map uncentered, one block at a time; the sums
    of each block are added into accumulators that every block reuses, so
    the pass holds one block and nothing n x d, n x k or n x r.
    """
    anchors = select_anchors(x, k, seed, modality)
    km = KernelMap(anchors, estimate_width(x, anchors, seed, modality), center=np.zeros(k))
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
