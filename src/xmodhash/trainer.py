"""Alternating optimization of binary codes from the training labels.

The model couples a shared latent matrix V (r x n, decorrelated and
balanced: V V^T = n I, V 1 = 0), a label projection M and discrete codes
B.  One training sweep updates M, V and B in turn, each to the exact
minimizer of its subproblem, so the objective

    ||V^T (M L) - r G^T G||_F^2 + omega ||B - M L||_F^2

never increases.

The paper's factorization also carries a square rotation R, with V^T
replaced by (R V)^T.  It is left out because it changes nothing: R enters
only through R V, and R V is balanced and decorrelated whenever V is, so
the latent step's optimal R V is the same for every R and M, B and every
objective value follow the same path without it.  (A rotation matters when
the codes are sign(R V), as in ITQ; here they are sign(M L).)  V here is
the paper's R V.

Training reads the labels only, as a ``LabelSet``: the u distinct label
columns, their counts and the c x c label Grams.  The codes are
B = sign(M L), shared by every instance with the same label vector, and V
reaches the M step only through V G^T (r x c).  So training forms neither
V nor B: one QR of the centered, count-weighted distinct columns, taken
once, reduces the latent step to an r x rho SVD, and
||V^T M L||^2 = n ||M L||^2 because V V^T = n I.  The start draws only M;
the latent and code steps at that M give the starting V G^T and B L^T.
Every term is a c x c or r x r contraction and nothing is r x n or n x n,
which keeps training linear in the number of instances.  Training returns
M only: nothing after it reads V, and the ridge fit reads each row's code
sign(M l) from the row's distinct label column l.

This is the paper's collective factorization with the feature
reconstruction weights fixed at 0.  The tests keep the full factorization,
R included, which forms V and each phi_t V^T every sweep, as the reference
this trainer must match: from the same seed it reaches the same M, codes,
R V G^T and objective history, to rounding.  The tests also rebuild the
final V from the trained M to check it against the constraints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, NumericalError, ValidationError
from .labelspace import LabelSet
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
class TrainReport:
    objective_history: list[float]   # the start's objective, then one per sweep
    converged: bool

    @property
    def iterations_run(self) -> int:
        return len(self.objective_history) - 1


def check_code_length(r: int, n: int) -> None:
    """Reject r >= n: the balanced latent constraints need r+1 instances."""
    if r > n - 1:
        raise ValidationError(
            f"code length r={r} needs at least r+1={r + 1} instances "
            f"(the balanced latent constraints are infeasible otherwise), got n={n}")


def init_state(labels: LabelSet, cfg: TrainConfig) -> np.ndarray:
    """The seeded start: a Gaussian label projection M_0 (r x c), the first
    draw of the seed's ``init`` stream.  ``train`` takes the starting V and
    B from the latent and code steps at it."""
    check_code_length(cfg.r, labels.n)
    return component_rng(cfg.seed, "init").standard_normal((cfg.r, labels.c))


def _solve(gram: np.ndarray, rhs: np.ndarray, shift: float, what: str) -> np.ndarray:
    """Solve (gram + shift I) X = rhs, shifting ``gram``'s diagonal in place.
    A failed or non-finite solve is a ``NumericalError`` that names ``what``
    and the condition estimate."""
    gram[np.diag_indices_from(gram)] += shift
    try:
        x = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"{what} solve failed (condition ~{np.linalg.cond(gram):.3e}): {e}") from e
    if not np.all(np.isfinite(x)):
        raise NumericalError(
            f"{what} solve produced non-finite values (condition ~{np.linalg.cond(gram):.3e})")
    return x


def update_label_projection(v_gt: np.ndarray, b_lt: np.ndarray, labels: LabelSet,
                            cfg: TrainConfig) -> np.ndarray:
    """Closed-form minimizer of the affinity and quantization terms in M.

    V and B enter only through V G^T and B L^T (r x c each), and the normal
    equations contract through c x c products only; a small ridge keeps the
    label Gram solvable when some class is empty.
    """
    r = v_gt.shape[0]
    rhs = r * (v_gt @ labels.lgt.T) + cfg.omega * b_lt
    gram = (labels.n + cfg.omega) * labels.llt
    return _solve(gram, rhs.T, 1e-6 * np.trace(labels.llt) / labels.c, "label-projection").T


def update_codes(m: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Elementwise optimal quantization of the label embedding of the 0/1
    label columns ``l``; sign(0) = +1."""
    return np.where(m @ l >= 0, 1.0, -1.0)


def objective_value(m: np.ndarray, v_gt: np.ndarray, b_lt: np.ndarray, labels: LabelSet,
                    cfg: TrainConfig) -> float:
    """The training objective from M, V G^T and B L^T, without forming any
    n-sized matrix: V V^T = n I gives ||V^T M L||^2 = n ||M L||^2, +-1
    codes give ||B||^2 = r n, and the cross terms are r x c contractions."""
    n, r = labels.n, cfg.r
    ml_sq = float(np.sum((m @ labels.llt) * m))    # ||M L||^2
    affinity = (n * ml_sq
                - 2.0 * r * float(np.sum((m @ labels.lgt) * v_gt))
                + r * r * float(np.sum(labels.ggt * labels.ggt)))
    quantization = cfg.omega * (r * n - 2.0 * float(np.sum(m * b_lt)) + ml_sq)
    return affinity + quantization


def _stalled(history: list[float], cfg: TrainConfig) -> bool:
    prev, cur = history[-2], history[-1]
    return prev - cur <= cfg.rel_tol * abs(prev)


def _pattern_basis(labels: LabelSet) -> np.ndarray:
    """The latent step's coordinates Gamma, from the distinct label columns.

    Let E be the n x u indicator of each instance's distinct label column
    and K = diag(sqrt(counts)).  E K^-1 has orthonormal columns, and
    [1_n / sqrt(n), G^T] = E K^-1 [sqrt(counts) / sqrt(n), K Ghat^T], so a
    QR of the u-row right-hand matrix gives the QR of the n-row left-hand
    one: the centered G^T = Q' Gamma, for an n x rho basis Q' orthogonal to
    1_n.  Only Gamma is kept; Q' enters no later step.  Pinning
    1_n / sqrt(n) as the first column keeps every direction balanced however
    small its singular value.
    """
    root = np.sqrt(labels.counts)[:, None]
    try:
        tri = np.linalg.qr(np.hstack([root / np.sqrt(labels.n), root * labels.normalized.T]),
                           mode="r")
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"label-pattern factorization failed: {e}") from e
    return tri[1:, 1:]


def _latent_step(m: np.ndarray, labels: LabelSet, gamma: np.ndarray) -> np.ndarray:
    """The latent step: maximize the linear score <V, Z> over balanced
    decorrelated V, for Z = A G with A = r M L G^T; returns V G^T.

    Y, Z with its rows centered, is (A Gamma^T) Q'^T (see ``_pattern_basis``),
    so the r x rho SVD A Gamma^T = U S W^T gives the maximizer
    sqrt(n) U (Q' W)^T, and V G^T = sqrt(n) U W^T Gamma over the kept
    directions: those above numpy ``matrix_rank``'s default tolerance.  V
    would pair each other direction with a random balanced direction
    orthogonal to the kept ones, which adds nothing to V G^T.  With one
    distinct label column Gamma has no rows: Y = 0, every V is optimal,
    and V G^T = 0.
    """
    r, n = m.shape[0], labels.n
    if gamma.shape[0] == 0:
        return np.zeros((r, labels.c))
    a = r * (m @ labels.lgt)
    try:
        left, singvals, wt = np.linalg.svd(a @ gamma.T)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"latent factorization failed: {e}") from e
    if singvals[0] <= 0.0:
        raise DegenerateDataError("latent update has no signal (all singular values zero)")
    keep = singvals > max(r, n) * np.finfo(np.float64).eps * singvals[0]
    return np.sqrt(n) * (left[:, :keep.size][:, keep] @ wt[:keep.size][keep]) @ gamma


def train(labels: LabelSet, cfg: TrainConfig) -> tuple[np.ndarray, TrainReport]:
    """Run full sweeps of the updates until the objective stalls; returns M
    (r x c) and the report.

    The sweeps track V G^T and B L^T, summed over the distinct label
    columns (see the module docstring).  Sweep 0 is the start: M comes
    from ``init_state``, and only the latent and code steps run, so V and
    B start at their joint minimizer for that M.  Every later sweep
    updates M, V and B in turn.  Completion directions are
    orthogonal to the kept ones and to 1_n; once the kept ones span the
    centered labels, as they do unless A Gamma^T loses rank, they add
    nothing to V G^T.  Neither V nor B is built.  The history records the
    objective after every sweep, the start included; a sweep whose relative
    decrease falls below ``cfg.rel_tol`` stops the loop.  Identical inputs
    and seed reproduce the final state bitwise on a given platform.
    """
    m = init_state(labels, cfg)
    gamma = _pattern_basis(labels)
    history = []
    converged = False
    for sweep in range(cfg.max_iters + 1):
        try:
            if sweep:
                m = update_label_projection(v_gt, b_lt, labels, cfg)
            v_gt = _latent_step(m, labels, gamma)
            b_lt = (update_codes(m, labels.patterns) * labels.counts) @ labels.patterns.T
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        history.append(objective_value(m, v_gt, b_lt, labels, cfg))
        if sweep and _stalled(history, cfg):
            converged = True
            break
    return m, TrainReport(objective_history=history, converged=converged)
