"""The full collective factorization: the reference ``xmodhash.trainer.train`` must match.

It adds to the training objective a feature reconstruction term per modality,

    sum_t lambda_t ||phi(X_t) - P_t V||_F^2,

with a projection P_t (k_t x r) per modality, and every sweep forms the
r x n latent matrix V and each phi_t V^T.  One sweep updates P, M, R, V and
B in turn, each to the exact minimizer of its subproblem; the M, R and B
steps are the trainer's own.  At lambda = 0 the features drop out, and
``train``, which never forms V during its sweeps, must reach the same M,
codes and objective history from the same seed.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from xmodhash.errors import NumericalError
from xmodhash.labelspace import LabelSet
from xmodhash.rng import component_rng
from xmodhash.trainer import (ModelState, TrainConfig, TrainReport, _latent_from_directions,
                              _split_directions, _stalled, init_state, update_codes,
                              update_label_projection, update_rotation)


@dataclass
class CollectiveState(ModelState):
    proj: list[np.ndarray] = field(default_factory=list)  # P_t, k_t x r


def init_collective(phix: Sequence[np.ndarray], labels: LabelSet,
                    cfg: TrainConfig) -> tuple[CollectiveState, list[np.ndarray]]:
    """The trainer's seeded start with projections fit to it, plus each
    modality's phi_t V^T, which the starting objective reuses."""
    state = CollectiveState(**vars(init_state(labels, cfg)))
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
    return state, TrainReport(objective_history=history,
                              iterations_run=len(history) - 1, converged=converged)
