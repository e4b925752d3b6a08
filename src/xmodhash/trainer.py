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
"""

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, NumericalError, ValidationError
from .labelspace import LabelSet
from .rng import component_rng


@dataclass
class TrainConfig:
    r: int
    omega: float = 0.5
    lambdas: tuple[float, ...] = (0.5, 0.5)
    max_iters: int = 30
    rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError(f"code length must be >= 1, got {self.r}")
        if self.omega < 0:
            raise ValidationError(f"omega must be >= 0, got {self.omega}")
        if any(lam < 0 for lam in self.lambdas):
            raise ValidationError(f"lambdas must be >= 0, got {self.lambdas}")
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
    proj: list[np.ndarray] = field(default_factory=list)  # P_t, k_t x r

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
    wall_time_seconds: float


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


def init_state(phix: Sequence[np.ndarray], labels: LabelSet, cfg: TrainConfig) -> ModelState:
    """Seeded random feasible starting point; projections are fit to it."""
    n, c, r = labels.n, labels.c, cfg.r
    check_code_length(r, n)
    for t, phi in enumerate(phix, start=1):
        if phi.shape[1] != n:
            raise ValidationError(
                f"modality {t} has {phi.shape[1]} feature columns but {n} labels")
    rng = component_rng(cfg.seed, "init")
    rotation = _haar_orthogonal(rng, r)
    label_proj = rng.standard_normal((r, c))
    codes = np.where(rng.random((r, n)) < 0.5, -1.0, 1.0)
    latent = np.sqrt(n) * _balanced_orthonormal_rows(rng.standard_normal((r, n)))
    proj = [update_projection(phi, latent) for phi in phix]
    return ModelState(latent=latent, rotation=rotation, label_proj=label_proj,
                      codes=codes, proj=proj)


def update_projection(phix_t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least-squares projection onto the latent rows; V V^T = n I collapses
    the normal equations to a single scaled product."""
    return (phix_t @ v.T) / v.shape[1]


def update_label_projection(v: np.ndarray, rot: np.ndarray, b: np.ndarray,
                            labels: LabelSet, cfg: TrainConfig) -> np.ndarray:
    """Closed-form minimizer of the affinity and quantization terms in M.

    The normal equations contract through c x c products only; a small
    ridge keeps the label Gram solvable when some class is empty.
    """
    l, g = labels.labels, labels.normalized
    n = labels.n
    r = v.shape[0]
    u_gt = (rot @ v) @ g.T                         # r x c
    rhs = r * (u_gt @ (g @ l.T)) + cfg.omega * (b @ l.T)
    llt = l @ l.T
    gram = (n + cfg.omega) * llt
    gram[np.diag_indices_from(gram)] += 1e-6 * np.trace(llt) / labels.c
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


def update_rotation(m: np.ndarray, labels: LabelSet, v: np.ndarray) -> np.ndarray:
    """Orthogonal Procrustes step: maximize trace(R^T C) over rotations."""
    l, g = labels.labels, labels.normalized
    r = v.shape[0]
    c_mat = r * (m @ (l @ g.T)) @ (g @ v.T)        # r x r, no n x n factor
    try:
        left, _, right_t = np.linalg.svd(c_mat)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"rotation SVD did not converge: {e}") from e
    return left @ right_t


def _complete_balanced_basis(rng: np.random.Generator, n: int, count: int,
                             existing: np.ndarray) -> np.ndarray:
    """Orthonormal n-vectors orthogonal to ``existing`` columns and to 1_n.

    Gram-Schmidt against the fixed directions runs twice per vector for
    stability; near-dependent draws are redrawn from the same stream.
    """
    fixed = np.hstack([existing, np.full((n, 1), 1.0 / np.sqrt(n))])
    cols = []
    for _ in range(count):
        for _attempt in range(100):
            vec = rng.standard_normal(n)
            for _pass in range(2):
                vec = vec - fixed @ (fixed.T @ vec)
                for col in cols:
                    vec = vec - col * (col @ vec)
            norm = np.linalg.norm(vec)
            if norm > 1e-8 * np.sqrt(n):
                cols.append(vec / norm)
                break
        else:
            raise NumericalError("could not complete an orthonormal balanced basis")
    return np.column_stack(cols)


def update_latent(rot: np.ndarray, m: np.ndarray, labels: LabelSet,
                  phix: Sequence[np.ndarray], p: Sequence[np.ndarray],
                  cfg: TrainConfig, rng: np.random.Generator | None = None,
                  incumbent: np.ndarray | None = None) -> np.ndarray:
    """Maximize the linear score <V, Z> over balanced decorrelated V.

    Z collects the rotated label signal and the modality reconstructions.
    A thin SVD of Y, the row-centered r x n matrix Z, gives the singular
    directions; those whose squared singular value is at most 1e-10 of the
    largest count as rank deficient and are completed with seeded random
    balanced vectors, which leave the score unchanged.

    When a feasible ``incumbent`` is supplied it is returned instead of the
    fresh candidate if it scores at least as high: directions just below
    the rank threshold carry a sliver of score that the completion cannot
    see, and the guard keeps the surrounding descent loop monotone.
    """
    l, g = labels.labels, labels.normalized
    r = rot.shape[0]
    n = labels.n
    if rng is None:
        rng = component_rng(cfg.seed, "latent-completion")
    z = r * (rot.T @ ((m @ (l @ g.T)) @ g))
    for lam, p_t, phi_t in zip(cfg.lambdas, p, phix):
        z = z + lam * (p_t.T @ phi_t)
    y = z - z.mean(axis=1, keepdims=True)
    # the SVD of Y carries the eigendecomposition of Y Y^T (eigenvalues are
    # the squared singular values) and keeps the paired n-side directions
    # orthonormal even when the spectrum spans many orders of magnitude
    try:
        q_full, singvals, wt = np.linalg.svd(y, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"latent factorization failed: {e}") from e
    top = float(singvals[0] ** 2) if singvals.size else 0.0
    if top <= 0.0:
        raise DegenerateDataError("latent update has no signal (all eigenvalues zero)")
    keep = singvals ** 2 > 1e-10 * top
    q = q_full[:, keep]
    p_cols = wt[keep].T                            # n x r', orthonormal, sums to 0
    v = q @ p_cols.T
    deficit = r - q.shape[1]
    if deficit:
        q_bar = q_full[:, ~keep]
        p_bar = _complete_balanced_basis(rng, n, deficit, p_cols)
        v = v + q_bar @ p_bar.T
    v = np.sqrt(n) * v
    if incumbent is not None and np.sum(incumbent * z) > np.sum(v * z):
        return incumbent
    return v


def update_codes(m: np.ndarray, labels: LabelSet) -> np.ndarray:
    """Elementwise optimal quantization of the label embedding; sign(0) = +1."""
    return np.where(m @ labels.labels >= 0, 1.0, -1.0)


def objective_value(state: ModelState, labels: LabelSet,
                    phix: Sequence[np.ndarray], cfg: TrainConfig) -> float:
    """Evaluate the training objective without forming any n x n matrix.

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
    c_mat = (m @ (l @ g.T)) @ (g @ v.T)
    affinity -= 2.0 * r * float(np.sum(rot * c_mat))
    gg = g @ g.T
    affinity += r * r * float(np.sum(gg * gg))
    quantization = cfg.omega * float(np.sum((b - ml) ** 2))
    reconstruction = 0.0
    for lam, p_t, phi_t in zip(cfg.lambdas, state.proj, phix):
        phi_sq = float(np.einsum("ij,ij->", phi_t, phi_t))
        cross = float(np.sum((phi_t @ v.T) * p_t))
        proj_sq = float(np.sum((p_t.T @ p_t) * (v @ v.T)))
        reconstruction += lam * (phi_sq - 2.0 * cross + proj_sq)
    return affinity + quantization + reconstruction


def train(phix: Sequence[np.ndarray], labels: LabelSet,
          cfg: TrainConfig) -> tuple[ModelState, TrainReport]:
    """Run full sweeps of the five updates until the objective stalls.

    The history records the objective before training and after every
    sweep; a sweep whose relative decrease falls below ``cfg.rel_tol``
    stops the loop.  Identical inputs and seed reproduce the final state
    bitwise on a given platform.
    """
    phix = [np.asarray(phi, dtype=np.float64) for phi in phix]
    if len(phix) != len(cfg.lambdas):
        raise ValidationError(
            f"{len(phix)} modalities but {len(cfg.lambdas)} lambda weights")
    start = time.perf_counter()
    state = init_state(phix, labels, cfg)
    completion_rng = component_rng(cfg.seed, "latent-completion")
    history = [objective_value(state, labels, phix, cfg)]
    converged = False
    for sweep in range(1, cfg.max_iters + 1):
        try:
            state.proj = [update_projection(phi, state.latent) for phi in phix]
            state.label_proj = update_label_projection(
                state.latent, state.rotation, state.codes, labels, cfg)
            state.rotation = update_rotation(state.label_proj, labels, state.latent)
            state.latent = update_latent(state.rotation, state.label_proj, labels,
                                         phix, state.proj, cfg, completion_rng,
                                         incumbent=state.latent)
            state.codes = update_codes(state.label_proj, labels)
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        history.append(objective_value(state, labels, phix, cfg))
        prev, cur = history[-2], history[-1]
        if prev - cur <= cfg.rel_tol * abs(prev):
            converged = True
            break
    report = TrainReport(objective_history=history,
                         iterations_run=len(history) - 1,
                         converged=converged,
                         wall_time_seconds=time.perf_counter() - start)
    return state, report
