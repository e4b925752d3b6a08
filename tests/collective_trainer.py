"""The full collective factorization: the reference ``xmodhash.trainer.train`` must match.

It adds to the training objective a feature reconstruction term per modality,

    sum_t lambda_t ||phi(X_t) - P_t V||_F^2,

with a projection P_t (k_t x r) per modality, and keeps the paper's square
rotation R, so the affinity term reads (R V)^T M L.  Every sweep forms the
r x n latent matrix V and each phi_t V^T.  One sweep updates P, M, R, V and
B in turn, each to the exact minimizer of its subproblem; the M and B
steps are the trainer's own, fed R V G^T, and the R step is an orthogonal
Procrustes SVD.  At lambda = 0 the features drop out, and ``train``, which
has no R and forms neither V nor B, must reach the same M, codes sign(M L),
R V G^T and objective history from the same seed: its V is this one's R V.
``latent_of`` builds the V that ``train`` leaves out from R and M: at the
seeded start, for both trainers, and at ``train``'s final M (R = I), for
the feasibility checks.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from conftest import dense
from xmodhash.errors import DegenerateDataError, NumericalError
from xmodhash.labelspace import LabelSet
from xmodhash.rng import component_rng
from xmodhash.trainer import (TrainConfig, TrainReport, _stalled, check_code_length,
                              update_codes, update_label_projection)


@dataclass
class CollectiveState:
    rotation: np.ndarray                                   # R, r x r orthogonal
    label_proj: np.ndarray                                 # M, r x c
    codes: np.ndarray                                      # B, r x n, entries exactly +-1
    latent: np.ndarray                                     # V, r x n
    proj: list[np.ndarray] = field(default_factory=list)  # P_t, k_t x r


def constraint_residuals(v: np.ndarray, codes: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the feasibility constraints of a latent V and
    codes B (a ``CollectiveState``'s own, or for a ``train`` result the V
    ``latent_of`` rebuilds and sign(M L))."""
    r, n = v.shape
    return {
        "latent_gram": float(np.abs(v @ v.T - n * np.eye(r)).max()),
        "latent_balance": float(np.linalg.norm(v @ np.ones(n))),
        "codes_binary": float(np.abs(np.abs(codes) - 1.0).max()),
    }


def _haar_orthogonal(rng: np.random.Generator, r: int) -> np.ndarray:
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


def init_rotation_and_projection(labels: LabelSet,
                                 cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The seeded start: a Gaussian label projection M_0 (r x c), then a Haar
    rotation R_0 (r x r), drawn in that order from the seed's ``init``
    stream; ``xmodhash.trainer.init_state`` draws the same M_0."""
    check_code_length(cfg.r, labels.n)
    rng = component_rng(cfg.seed, "init")
    m = rng.standard_normal((cfg.r, labels.c))
    return _haar_orthogonal(rng, cfg.r), m


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


def latent_of(m: np.ndarray, labels: LabelSet, cfg: TrainConfig,
              rot: np.ndarray | None = None) -> np.ndarray:
    """The r x n latent V at M and the rotation ``rot`` (the seeded start),
    or at a ``train`` result's M with no rotation (R = I): the maximizer of
    the latent step there, each deficient direction completed from the
    seed's ``latent-completion`` stream.  ``train`` tracks only V G^T,
    which the V at R = I reproduces.

    The basis is the trainer's: the QR of the count-weighted distinct label
    columns (``xmodhash.trainer._pattern_basis``), whose Q factor, scaled
    back by each column's count, gives the distinct rows of the n x rho
    basis Q'.  With one distinct column Gamma has no rows, and all r
    directions are deficient.
    """
    r = m.shape[0]
    root = np.sqrt(labels.counts)[:, None]
    q, tri = np.linalg.qr(np.hstack([root / np.sqrt(labels.n), root * labels.normalized.T]))
    gamma = tri[1:, 1:]
    if gamma.shape[0] == 0:
        directions = np.empty((r, 0)), np.empty((0, 0)), np.eye(r)
    else:
        a = r * (m @ labels.lgt if rot is None else rot.T @ (m @ labels.lgt))
        directions = _split_directions(*np.linalg.svd(a @ gamma.T), labels.n)
    return _latent_from_directions(*directions, (q[:, 1:] / root)[labels.index],
                                   component_rng(cfg.seed, "latent-completion"))


def init_collective(phix: Sequence[np.ndarray], labels: LabelSet,
                    cfg: TrainConfig) -> tuple[CollectiveState, list[np.ndarray]]:
    """The seeded R_0 and M_0, B_0 = sign(M_0 L), and the V_0 that
    ``latent_of`` builds at them: ``train``'s start, with R_0 V_0 in the
    place of its V_0.  Plus projections fit to V_0, and each modality's
    phi_t V^T, which the starting objective reuses."""
    rot, m = init_rotation_and_projection(labels, cfg)
    state = CollectiveState(rotation=rot, label_proj=m, codes=update_codes(m, dense(labels)[0]),
                            latent=latent_of(m, labels, cfg, rot=rot))
    phi_vt = [phi @ state.latent.T for phi in phix]
    state.proj = [update_projection(pv, labels.n) for pv in phi_vt]
    return state, phi_vt


def update_projection(phi_vt_t: np.ndarray, n: int) -> np.ndarray:
    """Least-squares projection onto the latent rows, from phi_t V^T;
    V V^T = n I collapses the normal equations to a single scaled product."""
    return phi_vt_t / n


def update_latent(rot: np.ndarray, m: np.ndarray, labels: LabelSet,
                  phix: Sequence[np.ndarray], p: Sequence[np.ndarray],
                  cfg: TrainConfig, lambdas: Sequence[float],
                  rng: np.random.Generator | None = None) -> np.ndarray:
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
    g = dense(labels)[1]
    r = rot.shape[0]
    n = labels.n
    if rng is None:
        rng = component_rng(cfg.seed, "latent-completion")
    z = r * (rot.T @ ((m @ labels.lgt) @ g))
    for lam, p_t, phi_t in zip(lambdas, p, phix):
        z = z + lam * (p_t.T @ phi_t)
    try:
        q, tri = np.linalg.qr(np.hstack([np.full((n, 1), 1.0 / np.sqrt(n)), z.T]))
        basis = q[:, 1:]                               # Q', n x r
        left, singvals, wt = np.linalg.svd(tri[1:, 1:].T)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"latent factorization failed: {e}") from e
    return _latent_from_directions(*_split_directions(left, singvals, wt, n), basis, rng)


def objective_value(state: CollectiveState, labels: LabelSet, cfg: TrainConfig,
                    lambdas: Sequence[float], phi_sq: Sequence[float],
                    phi_vt: Sequence[np.ndarray]) -> float:
    """Evaluate the objective with its reconstruction terms without forming
    any n x n matrix.

    The features enter through each modality's ||phi_t||^2 and phi_t V^T.
    The affinity term expands into r x r and c x c Gram contractions:
    ||A^T C||^2 = trace((A A^T)(C C^T)) applied to A = R V and C = M L,
    plus the cross trace against the label Gram.
    """
    l, g = dense(labels)
    v, rot, m, b = state.latent, state.rotation, state.label_proj, state.codes
    r = rot.shape[0]
    ml = m @ l
    rv = rot @ v
    affinity = float(np.sum((ml @ ml.T) * (rv @ rv.T)))
    c_mat = (m @ labels.lgt) @ (g @ v.T)
    affinity -= 2.0 * r * float(np.sum(rot * c_mat))
    affinity += r * r * float(np.sum(labels.ggt * labels.ggt))
    quantization = cfg.omega * float(np.sum((b - ml) ** 2))
    reconstruction = 0.0
    vvt = v @ v.T
    for lam, p_t, sq, pv in zip(lambdas, state.proj, phi_sq, phi_vt):
        cross = float(np.sum(pv * p_t))
        proj_sq = float(np.sum((p_t.T @ p_t) * vvt))
        reconstruction += lam * (sq - 2.0 * cross + proj_sq)
    return affinity + quantization + reconstruction


def objective_from_features(state: CollectiveState, labels: LabelSet,
                            phix: Sequence[np.ndarray], cfg: TrainConfig,
                            lambdas: Sequence[float]) -> float:
    """``objective_value`` from the kernel features (k_t x n each): ||phi_t||^2
    and phi_t V^T computed the way ``train_collective`` computes them."""
    return objective_value(state, labels, cfg, lambdas,
                           [float(np.einsum("ij,ij->", phi, phi)) for phi in phix],
                           [phi @ state.latent.T for phi in phix])


def train_collective(phix: Sequence[np.ndarray], labels: LabelSet, cfg: TrainConfig,
                     lambdas: Sequence[float]) -> tuple[CollectiveState, TrainReport]:
    """The full factorization: every sweep forms V and each phi_t V^T.

    ``init_collective`` fits the first sweep's P; every later P step runs at
    the end of the sweep before, from the phi_t V^T the objective just took,
    so no P is fit that no latent step reads.
    """
    l, g = dense(labels)
    # phi_t V^T serves the objective after a sweep and the next sweep's P step
    state, phi_vt = init_collective(phix, labels, cfg)
    completion_rng = component_rng(cfg.seed, "latent-completion")
    phi_sq = [float(np.einsum("ij,ij->", phi, phi)) for phi in phix]
    history = [objective_value(state, labels, cfg, lambdas, phi_sq, phi_vt)]
    converged = False
    for sweep in range(1, cfg.max_iters + 1):
        try:
            v_gt = state.latent @ g.T
            state.label_proj = update_label_projection(
                state.rotation @ v_gt, state.codes @ l.T, labels, cfg)
            state.rotation = update_rotation(state.label_proj, labels, v_gt)
            state.latent = update_latent(state.rotation, state.label_proj, labels,
                                         phix, state.proj, cfg, lambdas, completion_rng)
            state.codes = update_codes(state.label_proj, l)
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        phi_vt = [phi @ state.latent.T for phi in phix]
        history.append(objective_value(state, labels, cfg, lambdas, phi_sq, phi_vt))
        if _stalled(history, cfg):
            converged = True
            break
        if sweep < cfg.max_iters:
            state.proj = [update_projection(pv, labels.n) for pv in phi_vt]
    return state, TrainReport(objective_history=history, converged=converged)
