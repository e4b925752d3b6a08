"""The full collective factorization: the reference ``xmodhash.trainer.train`` must match.

It adds to the training objective a feature reconstruction term per modality,

    sum_t lambda_t ||phi(X_t) - P_t V||_F^2,

with a projection P_t (k_t x r) per modality, and every sweep forms the
r x n latent matrix V and each phi_t V^T.  One sweep updates P, M, R, V and
B in turn, each to the exact minimizer of its subproblem; the M, R and B
steps are the trainer's own.  At lambda = 0 the features drop out, and
``train``, which never forms V, must reach the same M, codes and objective
history from the same seed.  ``latent_of`` builds the V that ``train``
leaves out from R and M: at the seeded start, for both trainers, and at
``train``'s final R and M, for the feasibility checks.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from xmodhash.errors import NumericalError
from xmodhash.labelspace import LabelSet, label_patterns
from xmodhash.rng import component_rng
from xmodhash.trainer import (ModelState, TrainConfig, TrainReport, _latent_directions,
                              _pattern_basis, _split_directions, _stalled, init_state,
                              update_codes, update_label_projection, update_rotation)


@dataclass
class CollectiveState(ModelState):
    latent: np.ndarray                                     # V, r x n
    proj: list[np.ndarray] = field(default_factory=list)  # P_t, k_t x r


def constraint_residuals(state: ModelState, v: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the feasibility constraints of ``state`` and its
    latent V (a ``CollectiveState``'s own, or ``latent_of`` a ``train`` result)."""
    rot = state.rotation
    n, r = state.n, state.r
    return {
        "rotation": float(np.abs(rot.T @ rot - np.eye(r)).max()),
        "latent_gram": float(np.abs(v @ v.T - n * np.eye(r)).max()),
        "latent_balance": float(np.linalg.norm(v @ np.ones(n))),
        "codes_binary": float(np.abs(np.abs(state.codes) - 1.0).max()),
    }


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


def latent_of(state: ModelState, labels: LabelSet, cfg: TrainConfig) -> np.ndarray:
    """The r x n latent V at the R and M of ``state`` (the seeded start or a
    ``train`` result): the maximizer of the latent step there, each
    deficient direction completed from the seed's ``latent-completion``
    stream.  ``train`` tracks only V G^T, which this V reproduces."""
    patterns, counts, inverse = label_patterns(labels)
    rows, gamma = _pattern_basis(patterns, counts, labels.n)
    return _latent_from_directions(
        *_latent_directions(state.rotation, state.label_proj, labels, gamma), rows[inverse],
        component_rng(cfg.seed, "latent-completion"))


def init_collective(phix: Sequence[np.ndarray], labels: LabelSet,
                    cfg: TrainConfig) -> tuple[CollectiveState, list[np.ndarray]]:
    """The trainer's start: its seeded R_0 and M_0, B_0 = sign(M_0 L), and the
    V_0 that ``latent_of`` builds at them, so both trainers start from the
    same point; plus projections fit to it, and each modality's phi_t V^T,
    which the starting objective reuses."""
    rot, m = init_state(labels, cfg)
    start = ModelState(rotation=rot, label_proj=m, codes=update_codes(m, labels))
    state = CollectiveState(**vars(start), latent=latent_of(start, labels, cfg))
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
    g = labels.normalized
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
    l, g = labels.labels, labels.normalized
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
                v_gt, state.rotation, state.codes @ l.T, labels, cfg)
            state.rotation = update_rotation(state.label_proj, labels, v_gt)
            state.latent = update_latent(state.rotation, state.label_proj, labels,
                                         phix, state.proj, cfg, lambdas, completion_rng)
            state.codes = update_codes(state.label_proj, labels)
        except NumericalError as e:
            raise NumericalError(f"sweep {sweep}: {e}") from e
        phi_vt = [phi @ state.latent.T for phi in phix]
        history.append(objective_value(state, labels, cfg, lambdas, phi_sq, phi_vt))
        if _stalled(history, cfg):
            converged = True
            break
        if sweep < cfg.max_iters:
            state.proj = [update_projection(pv, state.n) for pv in phi_vt]
    return state, TrainReport(objective_history=history, converged=converged)
