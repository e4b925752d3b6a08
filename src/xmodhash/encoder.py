"""Out-of-sample hash functions, the whole fit, and the model archive mapping.

Codes are learned first by the trainer; the encoder is fit afterwards to
map kernelized features onto those codes (``fit_pipeline`` runs both), and
new instances are hashed by projecting and taking signs.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataio import FeatureMatrix, ModelArchive
from .errors import FormatError, NumericalError, ValidationError
from .kernelfeat import KernelMap, fit_kernel, kernelize
from .labelspace import LabelSet
from .retrieval import CodeSet, pack_codes
from .trainer import ModelState, TrainConfig, TrainReport, check_code_length, train


@dataclass
class HashEncoder:
    """Per-modality ridge projections plus the kernel maps that feed them."""

    proj: list[np.ndarray]      # k_t x r per modality
    kernels: list[KernelMap]

    def __post_init__(self):
        if len(self.proj) != len(self.kernels):
            raise ValidationError("need one kernel map per projection")
        for t, (p, km) in enumerate(zip(self.proj, self.kernels), start=1):
            if p.shape[0] != km.k:
                raise ValidationError(f"modality {t}: {p.shape[0]} projection rows, {km.k} anchors")
            if not np.all(np.isfinite(p)):
                raise ValidationError(f"modality {t}: projection contains NaN or Inf entries")
        widths = {p.shape[1] for p in self.proj}
        if len(widths) > 1:
            raise ValidationError(f"projections disagree on code length: {sorted(widths)}")


def fit_ridge_encoder(phix: np.ndarray, codes: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (X^T X + ridge I) P = X^T B for the hash projection P.

    ``phix`` holds instances as rows (n x k) and ``codes`` the matching
    +-1 targets (n x r).  Strict convexity for ridge > 0 makes P unique.
    """
    if not ridge > 0:
        raise ValidationError(f"ridge weight must be positive, got {ridge}")
    phix = np.asarray(phix, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    if phix.ndim != 2 or codes.ndim != 2 or phix.shape[0] != codes.shape[0]:
        raise ValidationError(
            f"features {phix.shape} and codes {codes.shape} disagree on instance count")
    gram = phix.T @ phix
    gram[np.diag_indices_from(gram)] += ridge
    try:
        p = np.linalg.solve(gram, phix.T @ codes)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"ridge solve failed (condition ~{np.linalg.cond(gram):.3e}): {e}") from e
    if not np.all(np.isfinite(p)):
        raise NumericalError(
            f"ridge solve produced non-finite values (condition ~{np.linalg.cond(gram):.3e})")
    return p


def fit_pipeline(xs: Sequence[FeatureMatrix], labels: LabelSet, cfg: TrainConfig,
                 k: Sequence[int], ridge: float = 1.0,
                 sample_cap: int = 2000) -> tuple[HashEncoder, ModelState, TrainReport]:
    """Fit a model on training rows: kernel maps, then codes, then hash encoders.

    ``xs[t - 1]`` is modality t, fit with ``k[t - 1]`` anchors from modality
    t's random streams of ``cfg.seed`` whatever its ``modality_id``.  Every
    argument is checked before the first kernelize call.
    """
    if not ridge > 0:
        raise ValidationError(f"ridge weight must be positive, got {ridge}")
    check_code_length(cfg.r, labels.n)
    for t, (x, k_t) in enumerate(zip(xs, k, strict=True), start=1):
        if x.n != labels.n:
            raise ValidationError(f"x{t} has {x.n} instances but labels have {labels.n}")
        if not 1 <= k_t <= x.n:
            raise ValidationError(f"modality {t} needs 1 to {x.n} anchors, got k={k_t}")
    fits = [fit_kernel(replace(x, modality_id=t), k_t, cfg.seed, sample_cap)
            for t, (x, k_t) in enumerate(zip(xs, k), start=1)]
    state, report = train([phi.T for _, phi in fits], labels, cfg)
    proj = [fit_ridge_encoder(phi, state.codes.T, ridge) for _, phi in fits]
    return HashEncoder(proj=proj, kernels=[km for km, _ in fits]), state, report


def to_archive(enc: HashEncoder, state: ModelState, report: TrainReport,
               cfg: TrainConfig, ridge: float) -> ModelArchive:
    """The AMH1 sections and metadata of a fitted two-modality model."""
    km1, km2 = enc.kernels
    return ModelArchive(
        sections={
            "V": state.latent, "R": state.rotation, "M": state.label_proj, "B": state.codes,
            "P_1": state.proj[0], "P_2": state.proj[1],
            "Ph_1": enc.proj[0], "Ph_2": enc.proj[1],
            "anchors_1": km1.anchors, "anchors_2": km2.anchors,
            "kcenter_1": km1.center.reshape(1, -1), "kcenter_2": km2.center.reshape(1, -1),
        },
        metadata={
            "r": str(cfg.r), "omega": repr(cfg.omega),
            "lambda_1": repr(cfg.lambdas[0]), "lambda_2": repr(cfg.lambdas[1]),
            "lambda_h": repr(ridge),
            "sigma_1": repr(km1.sigma), "sigma_2": repr(km2.sigma),
            "k_1": str(km1.k), "k_2": str(km2.k),
            "seed": str(cfg.seed), "iterations": str(report.iterations_run),
            "converged": str(report.converged).lower(),
            "objective_history": ",".join(repr(x) for x in report.objective_history),
        })


def from_archive(archive: ModelArchive) -> HashEncoder:
    """The hash encoder stored by ``to_archive``."""
    kernels = []
    for t in (1, 2):
        key = f"sigma_{t}"
        try:
            sigma = float(archive.metadata[key])
        except ValueError as e:
            raise FormatError(f"metadata {key} is not a number: {e}") from e
        kernels.append(KernelMap(anchors=archive.sections[f"anchors_{t}"], sigma=sigma,
                                 center=archive.sections[f"kcenter_{t}"][0]))
    return HashEncoder(proj=[archive.sections[f"Ph_{t}"] for t in (1, 2)], kernels=kernels)


def encode(x_raw: FeatureMatrix, enc: HashEncoder, modality: int) -> CodeSet:
    """Hash raw features: kernelize with the frozen map, project, sign, pack."""
    if modality < 1 or modality > len(enc.proj):
        raise ValidationError(
            f"modality must be in 1..{len(enc.proj)}, got {modality}")
    km = enc.kernels[modality - 1]
    if km.center is None:
        raise ValidationError(f"kernel map for modality {modality} has no stored center")
    if x_raw.dim != km.anchors.shape[1]:
        raise ValidationError(
            f"modality {modality} expects {km.anchors.shape[1]}-dimensional features, "
            f"got {x_raw.dim}")
    phi = kernelize(x_raw, km)
    signs = np.where(phi.values @ enc.proj[modality - 1] >= 0, 1.0, -1.0)
    return pack_codes(signs)
