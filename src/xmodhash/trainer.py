"""Alternating optimization of binary codes over two kernelized modalities.

The model couples a shared latent matrix V (r x n, decorrelated and
balanced: V V^T = n I, V 1 = 0), a square rotation R, a label projection M,
discrete codes B, and per-modality projections P.  One training sweep
updates each factor to the exact minimizer of its subproblem, in the order
P, M, R, V, B, so the objective

    ||(R V)^T (M L) - r G^T G||_F^2
      + omega ||B - M L||_F^2
      + sum_t lambda_t ||phi(X_t) - P_t V||_F^2

never increases.  Every term is evaluated through c x c / r x r Gram
contractions; nothing here allocates an n x n array, which keeps training
linear in the number of instances.

``train`` takes one of two paths, chosen by the lambda weights:

- Any lambda_t > 0 runs the full collective factorization: every sweep
  forms V (r x n) and the feature products phi_t V^T.
- All lambda_t = 0 (the default) runs in label space.  The codes are
  B = sign(M L), shared by every instance with the same label vector, and
  V reaches the M and R steps only through V G^T (r x c).  So the sweeps
  never form V: one QR of the centered, count-weighted distinct label
  patterns, taken once, reduces the latent step to an r x rho SVD, and
  ||(R V)^T M L||^2 = n ||M L||^2 because V V^T = n I.  V and B are built
  once, after the last sweep.  From the same seed, the full factorization
  at lambda = 0 reaches the same M, codes and objective history, to
  rounding.  R can differ where the Procrustes target has rank below r:
  any rotation of that null space is optimal, and at lambda = 0 no later
  step reads it.

The M, R and B steps are shared by both paths.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, NumericalError, ValidationError
from .labelspace import LabelSet, label_patterns
from .rng import component_rng


@dataclass
class TrainConfig:
    r: int
    omega: float = 0.5
    lambdas: tuple[float, ...] = (0.0, 0.0)
    max_iters: int = 30
    rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError(f"code length must be >= 1, got {self.r}")
        if not 0 <= self.omega < np.inf:    # NaN fails every comparison
            raise ValidationError(f"omega must be >= 0 and finite, got {self.omega}")
        for lam in self.lambdas:
            if not 0 <= lam < np.inf:
                raise ValidationError(
                    f"lambdas must be >= 0 and finite, got {lam} in {self.lambdas}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ValidationError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass
class ModelState:
    """All trainable factors; see the module docstring for the constraints."""

    latent: np.ndarray           # V, r x n
    rotation: np.ndarray         # R, r x r orthogonal
    label_proj: np.ndarray       # M, r x c
    codes: np.ndarray            # B, r x n, entries exactly +-1
    proj: list[np.ndarray] = field(default_factory=list)  # P_t, k_t x r; none at lambda = 0

    @property
    def r(self) -> int:
        return self.latent.shape[0]

    @property
    def n(self) -> int:
        return self.latent.shape[1]


@dataclass
class TrainReport:
    objective_history: list[float]
    iterations_run: int
    converged: bool


def constraint_residuals(state: ModelState) -> dict[str, float]:
    """Max-norm residuals of the feasibility constraints, for checks and tests."""
    v, rot = state.latent, state.rotation
    n, r = state.n, state.r
    return {
        "rotation": float(np.abs(rot.T @ rot - np.eye(r)).max()),
        "latent_gram": float(np.abs(v @ v.T - n * np.eye(r)).max()),
        "latent_balance": float(np.linalg.norm(v @ np.ones(n))),
        "codes_binary": float(np.abs(np.abs(state.codes) - 1.0).max()),
    }


def _haar_orthogonal(rng: np.random.Generator, r: int) -> np.ndarray:
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


def _balanced_orthonormal_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the centered row space of ``a`` (rows sum to 0)."""
    a = a - a.mean(axis=1, keepdims=True)
    q, rr = np.linalg.qr(a.T)
    return (q * np.sign(np.diag(rr))).T


def check_code_length(r: int, n: int) -> None:
    """Reject r >= n: the balanced latent constraints need r+1 instances."""
    if r > n - 1:
        raise ValidationError(
            f"code length r={r} needs at least r+1={r + 1} instances "
            f"(the balanced latent constraints are infeasible otherwise), got n={n}")


def _check_features(phix: Sequence[np.ndarray], n: int) -> None:
    for t, phi in enumerate(phix, start=1):
        if phi.shape[1] != n:
            raise ValidationError(
                f"modality {t} has {phi.shape[1]} feature columns but {n} labels")


def init_state(phix: Sequence[np.ndarray], labels: LabelSet,
               cfg: TrainConfig) -> tuple[ModelState, list[np.ndarray]]:
    """Seeded random feasible starting point with projections fit to it, plus
    each modality's phi_t V^T, which the starting objective reuses.  Given no
    modalities, as on the label-space path, it fits no projection."""
    n, c, r = labels.n, labels.c, cfg.r
    check_code_length(r, n)
    _check_features(phix, n)
    rng = component_rng(cfg.seed, "init")
    rotation = _haar_orthogonal(rng, r)
    label_proj = rng.standard_normal((r, c))
    codes = np.where(rng.random((r, n)) < 0.5, -1.0, 1.0)
    latent = np.sqrt(n) * _balanced_orthonormal_rows(rng.standard_normal((r, n)))
    phi_vt = [phi @ latent.T for phi in phix]
    proj = [update_projection(pv, n) for pv in phi_vt]
    return ModelState(latent=latent, rotation=rotation, label_proj=label_proj,
                      codes=codes, proj=proj), phi_vt


def update_projection(phi_vt_t: np.ndarray, n: int) -> np.ndarray:
    """Least-squares projection onto the latent rows, from phi_t V^T;
    V V^T = n I collapses the normal equations to a single scaled product."""
    return phi_vt_t / n


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


def _complete_balanced_basis(rng: np.random.Generator, n: int, count: int,
                             existing: np.ndarray) -> np.ndarray:
    """Orthonormal n-vectors orthogonal to ``existing`` columns and to 1_n.

    One seeded Gaussian n x count block is projected off the fixed directions
    twice (once more for stability) and orthonormalized by a single QR.
    """
    fixed = np.hstack([existing, np.full((n, 1), 1.0 / np.sqrt(n))])
    block = rng.standard_normal((n, count))
    for _pass in range(2):
        block -= fixed @ (fixed.T @ block)
    q, rr = np.linalg.qr(block)
    if np.abs(np.diag(rr)).min() <= 1e-8 * np.sqrt(n):
        raise NumericalError("could not complete an orthonormal balanced basis")
    return q


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


def _latent_from_directions(u_kept: np.ndarray, w_kept: np.ndarray, u_deficient: np.ndarray,
                            basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """sqrt(n) U_k (basis W_k)^T, plus each deficient left direction paired
    with a seeded random balanced orthonormal n-vector, which leaves the
    score unchanged."""
    n = basis.shape[0]
    v = (u_kept @ w_kept) @ basis.T
    deficit = u_deficient.shape[1]
    if deficit:
        p_cols = basis @ w_kept.T                      # n x r', orthonormal, sums to 0
        p_bar = _complete_balanced_basis(rng, n, deficit, p_cols)
        v = v + u_deficient @ p_bar.T
    return np.sqrt(n) * v


def update_latent(rot: np.ndarray, m: np.ndarray, labels: LabelSet,
                  phix: Sequence[np.ndarray], p: Sequence[np.ndarray],
                  cfg: TrainConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Maximize the linear score <V, Z> over balanced decorrelated V.

    Z collects the rotated label signal and the modality reconstructions;
    Y is Z with its rows centered.  One QR factorization of [1_n / sqrt(n), Z^T]
    gives, in the trailing r columns of Q, an orthonormal n x r basis
    Q' orthogonal to 1_n to rounding, and in the trailing r x r block T of the
    triangular factor the coordinates Y^T = Q' T.  An r x r SVD T^T = U S W^T
    then gives the thin SVD Y = U S (Q' W)^T without an SVD over the n side,
    and the maximizer is sqrt(n) U (Q' W)^T.  Pinning 1_n / sqrt(n) as the
    first column keeps every direction balanced however small its singular
    value; a plain QR of Y^T does not.

    Singular directions with sigma <= max(r, n) * eps * sigma_0 (numpy
    ``matrix_rank``'s default tolerance) are rounding noise: they count as
    rank deficient and are completed with seeded random balanced orthonormal
    vectors, which leave the score unchanged.  The result is the exact
    maximizer whatever the spectrum, which keeps training monotone without
    comparing against the previous V.
    """
    g = labels.normalized
    r = rot.shape[0]
    n = labels.n
    if rng is None:
        rng = component_rng(cfg.seed, "latent-completion")
    z = r * (rot.T @ ((m @ labels.lgt) @ g))
    for lam, p_t, phi_t in zip(cfg.lambdas, p, phix):
        z = z + lam * (p_t.T @ phi_t)
    try:
        q, tri = np.linalg.qr(np.hstack([np.full((n, 1), 1.0 / np.sqrt(n)), z.T]))
        basis = q[:, 1:]                               # Q', n x r
        left, singvals, wt = np.linalg.svd(tri[1:, 1:].T)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"latent factorization failed: {e}") from e
    return _latent_from_directions(*_split_directions(left, singvals, wt, n), basis, rng)


def update_codes(m: np.ndarray, labels: LabelSet) -> np.ndarray:
    """Elementwise optimal quantization of the label embedding; sign(0) = +1."""
    return np.where(m @ labels.labels >= 0, 1.0, -1.0)


def objective_value(state: ModelState, labels: LabelSet, cfg: TrainConfig,
                    phi_sq: Sequence[float], phi_vt: Sequence[np.ndarray]) -> float:
    """Evaluate the training objective without forming any n x n matrix.

    The features enter through each modality's ||phi_t||^2 and phi_t V^T.
    The affinity term expands into r x r and c x c Gram contractions:
    ||A^T C||^2 = trace((A A^T)(C C^T)) applied to A = R V and C = M L,
    plus the cross trace against the label Gram.
    """
    l, g = labels.labels, labels.normalized
    v, rot, m, b = state.latent, state.rotation, state.label_proj, state.codes
    r = state.r
    ml = m @ l
    rv = rot @ v
    affinity = float(np.sum((ml @ ml.T) * (rv @ rv.T)))
    c_mat = (m @ labels.lgt) @ (g @ v.T)
    affinity -= 2.0 * r * float(np.sum(rot * c_mat))
    affinity += r * r * float(np.sum(labels.ggt * labels.ggt))
    quantization = cfg.omega * float(np.sum((b - ml) ** 2))
    reconstruction = 0.0
    vvt = v @ v.T
    for lam, p_t, sq, pv in zip(cfg.lambdas, state.proj, phi_sq, phi_vt):
        cross = float(np.sum(pv * p_t))
        proj_sq = float(np.sum((p_t.T @ p_t) * vvt))
        reconstruction += lam * (sq - 2.0 * cross + proj_sq)
    return affinity + quantization + reconstruction


def _label_space_objective(state: ModelState, v_gt: np.ndarray, b_lt: np.ndarray,
                           labels: LabelSet, cfg: TrainConfig) -> float:
    """``objective_value`` at lambda = 0, from V G^T and B L^T alone: V V^T = n I
    gives ||(R V)^T M L||^2 = n ||M L||^2, and +-1 codes give ||B||^2 = r n."""
    m, rot = state.label_proj, state.rotation
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


def _train_collective(phix: Sequence[np.ndarray], labels: LabelSet,
                      cfg: TrainConfig) -> tuple[ModelState, TrainReport]:
    """The full factorization: every sweep forms V and each phi_t V^T.

    ``init_state`` fits the first sweep's P; every later P step runs at the
    end of the sweep before, from the phi_t V^T the objective just took, so
    no P is fit that no latent step reads.
    """
    l, g = labels.labels, labels.normalized
    # phi_t V^T serves the objective after a sweep and the next sweep's P step
    state, phi_vt = init_state(phix, labels, cfg)
    completion_rng = component_rng(cfg.seed, "latent-completion")
    phi_sq = [float(np.einsum("ij,ij->", phi, phi)) for phi in phix]
    history = [objective_value(state, labels, cfg, phi_sq, phi_vt)]
    converged = False
    for sweep in range(1, cfg.max_iters + 1):
        try:
            v_gt = state.latent @ g.T
            state.label_proj = update_label_projection(
                v_gt, state.rotation, state.codes @ l.T, labels, cfg)
            state.rotation = update_rotation(state.label_proj, labels, v_gt)
            state.latent = update_latent(state.rotation, state.label_proj, labels,
                                         phix, state.proj, cfg, completion_rng)
            state.codes = update_codes(state.label_proj, labels)
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        phi_vt = [phi @ state.latent.T for phi in phix]
        history.append(objective_value(state, labels, cfg, phi_sq, phi_vt))
        if _stalled(history, cfg):
            converged = True
            break
        if sweep < cfg.max_iters:
            state.proj = [update_projection(pv, state.n) for pv in phi_vt]
    return state, TrainReport(objective_history=history,
                              iterations_run=len(history) - 1, converged=converged)


def _label_space_latent(rot: np.ndarray, m: np.ndarray, labels: LabelSet,
                        gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``update_latent``'s singular directions at lambda = 0, from the r x rho
    matrix A Gamma^T (see ``_train_in_label_space``).  With one distinct
    label pattern Gamma has no rows: Y = 0, every V is optimal, and all r
    directions are completed."""
    r = rot.shape[0]
    if gamma.shape[0] == 0:
        return np.empty((r, 0)), np.empty((0, 0)), np.eye(r)
    a = r * (rot.T @ (m @ labels.lgt))   # Z = A G
    try:
        left, singvals, wt = np.linalg.svd(a @ gamma.T)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"latent factorization failed: {e}") from e
    return _split_directions(left, singvals, wt, labels.n)


def _train_in_label_space(labels: LabelSet,
                          cfg: TrainConfig) -> tuple[ModelState, TrainReport]:
    """The sweeps at lambda = 0, none of which forms V, B or anything n-sized.

    Let E be the n x u indicator of each instance's distinct label pattern
    and K = diag(sqrt(counts)).  E K^-1 has orthonormal columns, and
    [1_n / sqrt(n), G^T] = E K^-1 [sqrt(counts) / sqrt(n), K Ghat^T], so a
    QR of the u-row right-hand matrix, taken once, gives the QR that the
    full latent step takes of its n-row one: the basis Q' (n x rho, stored
    as its u distinct rows) and the centered G^T = Q' Gamma.  The score is
    Z = A G with A = r R^T M L G^T, so Y = (A Gamma^T) Q'^T and each latent
    step is one r x rho SVD, which also gives V G^T = sqrt(n) U_k W_k^T Gamma.
    Completion directions are orthogonal to the kept ones and to 1_n; once
    the kept ones span the centered labels, as they do unless A Gamma^T
    loses rank, they add nothing to V G^T.  B reaches the M step only
    through B L^T, summed over the patterns.
    """
    n = labels.n
    state, _ = init_state([], labels, cfg)
    patterns, counts, inverse = label_patterns(labels)
    root = np.sqrt(counts)[:, None]
    try:
        q, tri = np.linalg.qr(np.hstack([root / np.sqrt(n), root * patterns.normalized.T]))
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"label-pattern factorization failed: {e}") from e
    rows, gamma = q[:, 1:] / root, tri[1:, 1:]
    v_gt = state.latent @ labels.normalized.T
    b_lt = state.codes @ labels.labels.T
    history = [_label_space_objective(state, v_gt, b_lt, labels, cfg)]
    converged = False
    for sweep in range(1, cfg.max_iters + 1):
        try:
            state.label_proj = update_label_projection(v_gt, state.rotation, b_lt, labels, cfg)
            state.rotation = update_rotation(state.label_proj, labels, v_gt)
            directions = _label_space_latent(state.rotation, state.label_proj, labels, gamma)
            v_gt = np.sqrt(n) * (directions[0] @ directions[1]) @ gamma
            b_lt = (update_codes(state.label_proj, patterns) * counts) @ patterns.labels.T
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        history.append(_label_space_objective(state, v_gt, b_lt, labels, cfg))
        if _stalled(history, cfg):
            converged = True
            break
    try:
        state.latent = _latent_from_directions(
            *directions, rows[inverse], component_rng(cfg.seed, "latent-completion"))
    except NumericalError as e:
        raise NumericalError(f"building the latent matrix: {e}") from e
    state.codes = update_codes(state.label_proj, labels)
    return state, TrainReport(objective_history=history,
                              iterations_run=len(history) - 1, converged=converged)


def train(phix: Sequence[np.ndarray], labels: LabelSet,
          cfg: TrainConfig) -> tuple[ModelState, TrainReport]:
    """Run full sweeps of the updates until the objective stalls.

    All-zero lambda weights train in label space, and any lambda_t > 0 runs
    the full collective factorization (see the module docstring); both
    check the features against the labels.  The history records the
    objective before training and after every sweep; a sweep whose relative
    decrease falls below ``cfg.rel_tol`` stops the loop.  Identical inputs
    and seed reproduce the final state bitwise on a given platform.
    """
    phix = [np.asarray(phi, dtype=np.float64) for phi in phix]
    if len(phix) != len(cfg.lambdas):
        raise ValidationError(
            f"{len(phix)} modalities but {len(cfg.lambdas)} lambda weights")
    if any(cfg.lambdas):
        return _train_collective(phix, labels, cfg)
    _check_features(phix, labels.n)
    return _train_in_label_space(labels, cfg)
