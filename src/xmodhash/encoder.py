"""Out-of-sample hash functions, the whole fit, and the model archive mapping.

Codes are learned first by the trainer; the encoder is fit afterwards to
map kernelized features onto those codes (``fit_pipeline`` runs both), and
new instances are hashed by projecting and taking signs.  ``encode`` hashes
its rows block by block, whether they are in memory or read from an AMX1
file as they are needed, and packs each block's sign bits straight into the
code words.

This module alone names a model archive's sections and metadata keys
(``REQUIRED_SECTIONS``, ``REQUIRED_METADATA``): ``to_archive`` writes them
and ``from_archive`` rejects an archive with any other section or one
missing.  ``dataio`` only frames them in the AMH1 container.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import FeatureMatrix, MatrixRows, ModelArchive
from .errors import FormatError, NumericalError, ValidationError
from .kernelfeat import KernelMap, _kernel_blocks, fit_kernel
from .labelspace import LabelSet
from .retrieval import CodeSet, _pack_bits, words_per_code
from .trainer import (ModelState, TrainConfig, TrainReport, check_code_length, train,
                      update_codes)


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


def _check_ridge(ridge: float) -> None:
    if not 0 < ridge < np.inf:
        raise ValidationError(f"ridge weight must be positive and finite, got {ridge}")


def fit_ridge_encoder(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (X^T X + ridge I) P = X^T B for the hash projection P.

    ``gram`` is X^T X (k x k) and ``rhs`` X^T B (k x r), for instances X
    (n x k) and their +-1 targets B (n x r); the ridge is added to ``gram``'s
    diagonal in place.  Strict convexity for ridge > 0 makes P unique.
    """
    _check_ridge(ridge)
    k = gram.shape[0]
    if gram.shape != (k, k) or rhs.ndim != 2 or rhs.shape[0] != k:
        raise ValidationError(
            f"Gram matrix {gram.shape} and right-hand side {rhs.shape} disagree on feature count")
    gram[np.diag_indices_from(gram)] += ridge
    try:
        p = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"ridge solve failed (condition ~{np.linalg.cond(gram):.3e}): {e}") from e
    if not np.all(np.isfinite(p)):
        raise NumericalError(
            f"ridge solve produced non-finite values (condition ~{np.linalg.cond(gram):.3e})")
    return p


def fit_pipeline(xs: Sequence[FeatureMatrix | MatrixRows], labels: LabelSet, cfg: TrainConfig,
                 k: Sequence[int],
                 ridge: float = 1.0) -> tuple[HashEncoder, ModelState, TrainReport]:
    """Fit a model on training rows: codes, then one kernel map and hash
    encoder per modality.

    ``xs[t - 1]`` is modality t, a ``FeatureMatrix`` or the rows of an open
    AMX1 file (``dataio.open_matrix``), fit with ``k[t - 1]`` anchors from
    modality t's random streams of ``cfg.seed`` (a ``FeatureMatrix``'s
    ``modality_id`` plays no part).  Every argument is checked before
    training starts.
    Training reads the labels only; the codes, sign(M l) once per distinct
    label column l, are gathered by each row's column index as each
    modality's kernel fit streams its rows into the ridge products, so
    nothing n x d, n x k or r x n is ever built from a file's rows.
    """
    _check_ridge(ridge)
    if len(xs) != len(k):
        raise ValidationError(f"{len(xs)} modalities need as many anchor counts, got {len(k)}")
    check_code_length(cfg.r, labels.n)
    for t, (x, k_t) in enumerate(zip(xs, k), start=1):
        if x.n != labels.n:
            raise ValidationError(f"x{t} has {x.n} instances but labels have {labels.n}")
        if not 1 <= k_t <= x.n:
            raise ValidationError(f"modality {t} needs 1 to {x.n} anchors, got k={k_t}")
    state, report = train(labels, cfg)
    codes = np.ascontiguousarray(update_codes(state.label_proj, labels.patterns).T)
    kernels, proj = [], []
    for t, (x, k_t) in enumerate(zip(xs, k), start=1):
        km, gram, rhs = fit_kernel(x, k_t, cfg.seed, codes, labels.index, modality=t)
        kernels.append(km)
        proj.append(fit_ridge_encoder(gram, rhs, ridge))
        del gram    # before the next modality's products are built
    return HashEncoder(proj=proj, kernels=kernels), state, report


#: Matrix sections of a two-modality model archive, in the order ``to_archive``
#: writes them; none scales with n.
REQUIRED_SECTIONS = (
    "R", "M", "Ph_1", "Ph_2",
    "anchors_1", "anchors_2", "kcenter_1", "kcenter_2",
)

#: Metadata keys a model archive must carry; ``to_archive`` also writes
#: ``lambda_h`` and ``converged``, which nothing reads back.
REQUIRED_METADATA = (
    "r", "omega", "sigma_1", "sigma_2",
    "k_1", "k_2", "seed", "iterations", "objective_history",
)


def to_archive(enc: HashEncoder, state: ModelState, report: TrainReport,
               cfg: TrainConfig, ridge: float) -> ModelArchive:
    """The AMH1 sections and metadata of a fitted two-modality model.  No
    section scales with n: training builds neither the latent V nor the
    codes B, which are sign(M L) of the training labels."""
    if len(enc.kernels) != 2:
        raise ValidationError(f"a model archive holds 2 modalities, got {len(enc.kernels)}")
    km1, km2 = enc.kernels
    values = (
        state.rotation, state.label_proj, *enc.proj,
        km1.anchors, km2.anchors, km1.center.reshape(1, -1), km2.center.reshape(1, -1),
    )
    return ModelArchive(
        sections=dict(zip(REQUIRED_SECTIONS, values, strict=True)),
        metadata={
            "r": str(cfg.r), "omega": repr(cfg.omega),
            "lambda_h": repr(ridge),
            "sigma_1": repr(km1.sigma), "sigma_2": repr(km2.sigma),
            "k_1": str(km1.k), "k_2": str(km2.k),
            "seed": str(cfg.seed), "iterations": str(report.iterations_run),
            "converged": str(report.converged).lower(),
            "objective_history": ",".join(repr(x) for x in report.objective_history),
        })


def from_archive(archive: ModelArchive) -> HashEncoder:
    """The hash encoder stored by ``to_archive``; an archive with a section
    outside ``REQUIRED_SECTIONS``, or missing a section or metadata key, is a
    ``FormatError``."""
    unknown = [s for s in archive.sections if s not in REQUIRED_SECTIONS]
    if unknown:
        raise FormatError(f"unknown section name {unknown[0]!r}")
    missing = [s for s in REQUIRED_SECTIONS if s not in archive.sections]
    if missing:
        raise FormatError(f"archive missing mandatory sections: {', '.join(missing)}")
    missing_meta = [k for k in REQUIRED_METADATA if k not in archive.metadata]
    if missing_meta:
        raise FormatError(f"archive missing metadata keys: {', '.join(missing_meta)}")
    kernels = []
    for t in (1, 2):
        key = f"sigma_{t}"
        try:
            sigma = float(archive.metadata[key])
        except ValueError as e:
            raise FormatError(f"metadata {key} is not a number: {e}") from e
        anchors, center = archive.sections[f"anchors_{t}"], archive.sections[f"kcenter_{t}"]
        if center.shape[0] != 1:    # KernelMap checks its length
            raise FormatError(f"section kcenter_{t} is {center.shape[0]}x{center.shape[1]}, "
                              f"expected 1x{anchors.shape[0]}")
        kernels.append(KernelMap(anchors=anchors, sigma=sigma, center=center[0]))
    return HashEncoder(proj=[archive.sections[f"Ph_{t}"] for t in (1, 2)], kernels=kernels)


def encode(x_raw: FeatureMatrix | MatrixRows, enc: HashEncoder, modality: int) -> CodeSet:
    """Hash raw features: kernelize with the frozen map, project, sign, pack.

    ``x_raw`` is a ``FeatureMatrix`` or the rows of an open AMX1 file
    (``dataio.open_matrix``), which are read block by block as they are
    hashed.  The feature dimension is checked before any row is read.  Each
    block goes through the kernel map and the projection, and its sign bits
    are packed straight into the n x ceil(r/64) code words, so besides
    those words memory stays one block whatever the row count.
    """
    if modality < 1 or modality > len(enc.proj):
        raise ValidationError(
            f"modality must be in 1..{len(enc.proj)}, got {modality}")
    km, proj = enc.kernels[modality - 1], enc.proj[modality - 1]
    if x_raw.dim != km.anchors.shape[1]:
        raise ValidationError(
            f"modality {modality} expects {km.anchors.shape[1]}-dimensional features, "
            f"got {x_raw.dim}")
    words = np.zeros((x_raw.n, words_per_code(proj.shape[1])), dtype="<u8")
    for rows, phi in _kernel_blocks(x_raw, km):
        _pack_bits(phi @ proj >= 0.0, words[rows])
    return CodeSet(r=proj.shape[1], words=words)
