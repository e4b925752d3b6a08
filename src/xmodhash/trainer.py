"""Alternating optimization of binary codes from the training labels.

The model couples a shared latent matrix V (r x n, decorrelated and
balanced: V V^T = n I, V 1 = 0), a square rotation R, a label projection M
and discrete codes B.  One training sweep updates M, R, V and B in turn,
each to the exact minimizer of its subproblem, so the objective

    ||(R V)^T (M L) - r G^T G||_F^2 + omega ||B - M L||_F^2

never increases.

Training reads the labels only.  The codes are B = sign(M L), shared by
every instance with the same label vector, and V reaches the M and R steps
only through V G^T (r x c).  So training never forms V, and B only once,
after the last sweep: one QR of the centered, count-weighted distinct label
patterns, taken once, reduces the latent step to an r x rho SVD, and
||(R V)^T M L||^2 = n ||M L||^2 because V V^T = n I.  The start draws only
R and M; the latent and code steps at that R and M give the starting V G^T
and B L^T.  Every term is a c x c or r x r contraction; only the final B is
r x n, and nothing is n x n, which keeps training linear in the number of
instances.  The final V is never built: nothing after training reads it.

This is the paper's collective factorization with the feature
reconstruction weights fixed at 0.  The tests keep the full factorization,
which forms V and each phi_t V^T every sweep, as the reference this trainer
must match: from the same seed it reaches the same M, codes and objective
history, to rounding.  R can differ where the Procrustes target has rank
below r: any rotation of that null space is optimal, and no later step
reads it.  The tests also rebuild the final V from the trained R and M to
check it against the constraints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, NumericalError, ValidationError
from .labelspace import LabelSet, label_patterns
from .rng import component_rng


@dataclass
class TrainConfig:
    r: int
    omega: float = 0.5
    max_iters: int = 30
    rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError(f"code length must be >= 1, got {self.r}")
        if not 0 <= self.omega < np.inf:    # NaN fails every comparison
            raise ValidationError(f"omega must be >= 0 and finite, got {self.omega}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ValidationError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass
class ModelState:
    """The trained factors that the hash-function step reads; the latent V
    is not among them (see the module docstring)."""

    rotation: np.ndarray         # R, r x r orthogonal
    label_proj: np.ndarray       # M, r x c
    codes: np.ndarray            # B, r x n, entries exactly +-1

    @property
    def r(self) -> int:
        return self.codes.shape[0]

    @property
    def n(self) -> int:
        return self.codes.shape[1]


@dataclass
class TrainReport:
    objective_history: list[float]   # the start's objective, then one per sweep
    converged: bool

    @property
    def iterations_run(self) -> int:
        return len(self.objective_history) - 1


def _haar_orthogonal(rng: np.random.Generator, r: int) -> np.ndarray:
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


def check_code_length(r: int, n: int) -> None:
    """Reject r >= n: the balanced latent constraints need r+1 instances."""
    if r > n - 1:
        raise ValidationError(
            f"code length r={r} needs at least r+1={r + 1} instances "
            f"(the balanced latent constraints are infeasible otherwise), got n={n}")


def init_state(labels: LabelSet, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The seeded start: a Haar rotation R_0 (r x r), then a Gaussian label
    projection M_0 (r x c), drawn in that order from one stream.  ``train``
    takes the starting V and B from the latent and code steps at them."""
    check_code_length(cfg.r, labels.n)
    rng = component_rng(cfg.seed, "init")
    return _haar_orthogonal(rng, cfg.r), rng.standard_normal((cfg.r, labels.c))


def update_label_projection(v_gt: np.ndarray, rot: np.ndarray, b_lt: np.ndarray,
                            labels: LabelSet, cfg: TrainConfig) -> np.ndarray:
    """Closed-form minimizer of the affinity and quantization terms in M.

    V and B enter only through V G^T and B L^T (r x c each), and the normal
    equations contract through c x c products only; a small ridge keeps the
    label Gram solvable when some class is empty.
    """
    r = v_gt.shape[0]
    rhs = r * ((rot @ v_gt) @ labels.lgt.T) + cfg.omega * b_lt
    gram = (labels.n + cfg.omega) * labels.llt
    gram[np.diag_indices_from(gram)] += 1e-6 * np.trace(labels.llt) / labels.c
    try:
        m = np.linalg.solve(gram, rhs.T).T
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"label-projection solve failed (condition ~{np.linalg.cond(gram):.3e}): {e}"
        ) from e
    if not np.all(np.isfinite(m)):
        raise NumericalError(
            f"label-projection solve produced non-finite values "
            f"(condition ~{np.linalg.cond(gram):.3e})")
    return m


def update_rotation(m: np.ndarray, labels: LabelSet, v_gt: np.ndarray) -> np.ndarray:
    """Orthogonal Procrustes step: maximize trace(R^T C) over rotations; V
    enters only through V G^T."""
    r = v_gt.shape[0]
    c_mat = r * (m @ labels.lgt) @ v_gt.T          # r x r, no n x n factor
    try:
        left, _, right_t = np.linalg.svd(c_mat)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"rotation SVD did not converge: {e}") from e
    return left @ right_t


def _split_directions(left: np.ndarray, singvals: np.ndarray, wt: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept left and right singular vectors of Y's SVD, and the deficient
    left ones: those at or below numpy ``matrix_rank``'s default tolerance,
    plus any of the r that have no singular value."""
    r = left.shape[0]
    top = float(singvals[0]) if singvals.size else 0.0
    if top <= 0.0:
        raise DegenerateDataError("latent update has no signal (all singular values zero)")
    keep = singvals > max(r, n) * np.finfo(np.float64).eps * top
    kept = np.zeros(r, dtype=bool)
    kept[:keep.size] = keep
    return left[:, kept], wt[:keep.size][keep], left[:, ~kept]


def update_codes(m: np.ndarray, labels: LabelSet) -> np.ndarray:
    """Elementwise optimal quantization of the label embedding; sign(0) = +1."""
    return np.where(m @ labels.labels >= 0, 1.0, -1.0)


def objective_value(rot: np.ndarray, m: np.ndarray, v_gt: np.ndarray, b_lt: np.ndarray,
                    labels: LabelSet, cfg: TrainConfig) -> float:
    """The training objective from R, M, V G^T and B L^T, without forming any
    n-sized matrix: V V^T = n I gives ||(R V)^T M L||^2 = n ||M L||^2, +-1
    codes give ||B||^2 = r n, and the cross terms are r x c contractions."""
    n, r = labels.n, cfg.r
    ml_sq = float(np.sum((m @ labels.llt) * m))    # ||M L||^2
    affinity = (n * ml_sq
                - 2.0 * r * float(np.sum(rot * ((m @ labels.lgt) @ v_gt.T)))
                + r * r * float(np.sum(labels.ggt * labels.ggt)))
    quantization = cfg.omega * (r * n - 2.0 * float(np.sum(m * b_lt)) + ml_sq)
    return affinity + quantization


def _stalled(history: list[float], cfg: TrainConfig) -> bool:
    prev, cur = history[-2], history[-1]
    return prev - cur <= cfg.rel_tol * abs(prev)


def _pattern_basis(patterns: LabelSet, counts: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """The latent step's basis from the distinct label patterns, taken once.

    Let E be the n x u indicator of each instance's distinct label pattern
    and K = diag(sqrt(counts)).  E K^-1 has orthonormal columns, and
    [1_n / sqrt(n), G^T] = E K^-1 [sqrt(counts) / sqrt(n), K Ghat^T], so a
    QR of the u-row right-hand matrix gives the QR of the n-row left-hand
    one.  Returns the u distinct rows of the n x rho basis Q', which is
    orthogonal to 1_n, and the coordinates Gamma of the centered G^T = Q' Gamma.
    Pinning 1_n / sqrt(n) as the first column keeps every direction balanced
    however small its singular value.
    """
    root = np.sqrt(counts)[:, None]
    try:
        q, tri = np.linalg.qr(np.hstack([root / np.sqrt(n), root * patterns.normalized.T]))
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"label-pattern factorization failed: {e}") from e
    return q[:, 1:] / root, tri[1:, 1:]


def _latent_directions(rot: np.ndarray, m: np.ndarray, labels: LabelSet,
                       gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The latent step: maximize the linear score <V, Z> over balanced
    decorrelated V, for Z = A G with A = r R^T M L G^T.

    Y, Z with its rows centered, is (A Gamma^T) Q'^T (see ``_pattern_basis``),
    so the r x rho SVD A Gamma^T = U S W^T gives the maximizer
    sqrt(n) U (Q' W)^T, and V G^T = sqrt(n) U W^T Gamma.  Returns the kept
    and the deficient singular directions (``_split_directions``); V would
    pair each deficient one with a random balanced direction orthogonal to
    the kept ones, which adds nothing to V G^T.  With one distinct label
    pattern Gamma has no rows: Y = 0, every V is optimal, and all r
    directions are deficient.
    """
    r = rot.shape[0]
    if gamma.shape[0] == 0:
        return np.empty((r, 0)), np.empty((0, 0)), np.eye(r)
    a = r * (rot.T @ (m @ labels.lgt))
    try:
        left, singvals, wt = np.linalg.svd(a @ gamma.T)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"latent factorization failed: {e}") from e
    return _split_directions(left, singvals, wt, labels.n)


def train(labels: LabelSet, cfg: TrainConfig) -> tuple[ModelState, TrainReport]:
    """Run full sweeps of the updates until the objective stalls.

    The sweeps track V G^T and B L^T, summed over the distinct label
    patterns (see the module docstring).  Sweep 0 is the start: R and M
    come from ``init_state``, and only the latent and code steps run, so V
    and B start at their joint minimizer for that R and M.  Every later
    sweep updates M, R, V and B in turn.  Completion directions are
    orthogonal to the kept ones and to 1_n; once the kept ones span the
    centered labels, as they do unless A Gamma^T loses rank, they add
    nothing to V G^T.  B is built once, after the last sweep.  The history
    records the objective after every sweep, the start included; a sweep
    whose relative decrease falls below ``cfg.rel_tol`` stops the loop.
    Identical inputs and seed reproduce the final state bitwise on a given
    platform.
    """
    n = labels.n
    rot, m = init_state(labels, cfg)
    patterns, counts, _ = label_patterns(labels)
    gamma = _pattern_basis(patterns, counts, n)[1]
    history = []
    converged = False
    for sweep in range(cfg.max_iters + 1):
        try:
            if sweep:
                m = update_label_projection(v_gt, rot, b_lt, labels, cfg)
                rot = update_rotation(m, labels, v_gt)
            directions = _latent_directions(rot, m, labels, gamma)
            v_gt = np.sqrt(n) * (directions[0] @ directions[1]) @ gamma
            b_lt = (update_codes(m, patterns) * counts) @ patterns.labels.T
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        history.append(objective_value(rot, m, v_gt, b_lt, labels, cfg))
        if sweep and _stalled(history, cfg):
            converged = True
            break
    state = ModelState(rotation=rot, label_proj=m, codes=update_codes(m, labels))
    return state, TrainReport(objective_history=history, converged=converged)
