"""Shared fixtures and independent oracles used across the test modules."""

import os
from pathlib import Path

import numpy as np
import pytest

import xmodhash
from dense_fit import fit_kernel_dense
from xmodhash import dataio
from xmodhash.errors import ValidationError
from xmodhash.labelspace import LabelSet, normalize_labels
from xmodhash.retrieval import CodeSet, _pack_bits, words_per_code


def cli_env():
    """Environment for ``python -m xmodhash`` subprocesses.

    The child imports the same package as this process, from any working
    directory: PYTHONPATH starts with the directory holding that package, and
    inherited relative entries are made absolute.
    """
    env = dict(os.environ)
    src = str(Path(xmodhash.__file__).resolve().parents[1])
    inherited = [os.path.abspath(p)
                 for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([src, *inherited])
    return env


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a matrix."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + h
        up = f(bumped)
        bumped[idx] = x[idx] - h
        down = f(bumped)
        grad[idx] = (up - down) / (2 * h)
    return grad


def gradient_scale(f, x, rng, probes=3):
    """Typical finite-difference gradient magnitude near x (at random offsets)."""
    x = np.asarray(x, dtype=np.float64)
    spread = max(1.0, float(np.abs(x).max()))
    scales = []
    for _ in range(probes):
        probe = x + spread * rng.standard_normal(x.shape)
        scales.append(np.abs(fd_gradient(f, probe)).max())
    return float(np.median(scales))


def random_feasible_latent(rng, r, n):
    """Random V with V V^T = n I and V 1 = 0."""
    a = rng.standard_normal((r, n))
    a -= a.mean(axis=1, keepdims=True)
    q, rr = np.linalg.qr(a.T)
    return np.sqrt(n) * (q * np.sign(np.diag(rr))).T


def random_labelset(rng, c, n, multi=False) -> LabelSet:
    """Random valid labels: single-label by default, multi-label on request."""
    l = np.zeros((c, n))
    l[rng.integers(0, c, n), np.arange(n)] = 1.0
    if multi:
        l = np.maximum(l, (rng.random((c, n)) < 0.3).astype(float))
    return normalize_labels(dataio.RawLabelMatrix(l))


def dense(labels: LabelSet) -> tuple[np.ndarray, np.ndarray]:
    """The c x n label matrix L and its column-normalized G, rebuilt from
    the distinct columns a ``LabelSet`` keeps."""
    return labels.patterns[:, labels.index], labels.normalized[:, labels.index]


def naive_objective(state, labels, cfg, phix=(), lambdas=()):
    """Dense objective evaluation that does materialize the n x n affinity;
    given features and weights, it adds lambda_t ||phi_t - P_t V||^2 with
    P_t from ``state.proj``."""
    l, g = dense(labels)
    r = state.rotation.shape[0]
    ml = state.label_proj @ l
    big = (state.rotation @ state.latent).T @ ml - r * (g.T @ g)
    total = float(np.sum(big ** 2))
    total += cfg.omega * float(np.sum((state.codes - ml) ** 2))
    for t, (lam, phi_t) in enumerate(zip(lambdas, phix)):
        total += lam * float(np.sum((phi_t - state.proj[t] @ state.latent) ** 2))
    return total


def pack_codes(signs: np.ndarray) -> CodeSet:
    """Pack an n x r matrix of exact +-1 values (+1 maps to a set bit)."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValidationError(f"sign matrix must be 2-D, got ndim={signs.ndim}")
    if signs.shape[1] < 1:
        raise ValidationError("codes need at least one bit")
    if not np.all(np.abs(signs) == 1):
        raise ValidationError("sign matrix entries must be exactly -1 or +1")
    words = np.zeros((signs.shape[0], words_per_code(signs.shape[1])), dtype="<u8")
    _pack_bits(signs > 0, words)
    return CodeSet(r=signs.shape[1], words=words)


def unpack_codes(codes: CodeSet) -> np.ndarray:
    """Inverse of pack_codes: n x r matrix of +-1 (int8)."""
    raw = codes.words.astype("<u8").view(np.uint8).reshape(codes.n, -1)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :codes.r]
    return (bits.astype(np.int8) * 2) - 1


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bits between two packed codes of equal length."""
    a = np.asarray(a, dtype=np.uint64).ravel()
    b = np.asarray(b, dtype=np.uint64).ravel()
    if a.shape != b.shape:
        raise ValidationError(f"code lengths differ: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def semantic_affinity_block(labels: LabelSet, rows, cols) -> np.ndarray:
    """Explicit pairwise affinity sub-block for the requested index ranges.

    The full affinity matrix is quadratic in the number of instances; the
    trainer never materializes it, so only tests build entries of it.
    """
    rows = np.asarray(list(rows), dtype=np.int64)
    cols = np.asarray(list(cols), dtype=np.int64)
    n = labels.n
    for name, idx in (("rows", rows), ("cols", cols)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValidationError(f"{name} indices out of range for {n} instances")
    g = dense(labels)[1]
    return g[:, rows].T @ g[:, cols]


def ranked_codes(n):
    """An all-+1 query code and n database codes, item p differing from the
    query in exactly p bits: Hamming ranking lists the items in index order."""
    r = max(1, n - 1)
    db = np.where(np.arange(r)[None, :] < np.arange(n)[:, None], -1.0, 1.0)
    return pack_codes(np.ones((1, r))), pack_codes(db)


def relevance(query_labels, db_labels, query_index):
    """Share-any-label relevance of every database item to one query, from the
    raw c x n label matrices: (q^T d) > 0, a matrix product rather than
    evaluate's OR of database label rows."""
    return (query_labels[:, query_index].T @ db_labels) > 0


def oracle_rank(query_bits, db_bits):
    """Naive ranking oracle: unpacked +-1 disagreement counts, ties by index."""
    dists = [sum(int(qb != db) for qb, db in zip(query_bits, row)) for row in db_bits]
    return sorted(range(len(db_bits)), key=lambda i: (dists[i], i))


def oracle_ap(ranked, relevant, cutoff):
    """Naive rank-walk average precision over the top cutoff."""
    hits = 0
    total = 0.0
    for rank, index in enumerate(ranked[:cutoff], start=1):
        if relevant[index]:
            hits += 1
            total += hits / rank
    if hits == 0:
        return 0.0, True
    return total / hits, False


def oracle_map(query_codes, db_codes, query_labels, db_labels, cutoff=None):
    """Naive mAP oracle on packed code sets, excluding empty-ground-truth queries."""
    qb = unpack_codes(query_codes)
    db = unpack_codes(db_codes)
    if cutoff is None:
        cutoff = db_codes.n
    total, kept, excluded = 0.0, 0, 0
    for qi in range(query_codes.n):
        relevant = (query_labels[:, qi] @ db_labels) > 0
        ranked = oracle_rank(qb[qi], db)
        ap, empty = oracle_ap(ranked, relevant, cutoff)
        if empty:
            excluded += 1
            continue
        total += ap
        kept += 1
    return total / kept, excluded


@pytest.fixture(scope="session")
def small_synth():
    """A small trained-ready dataset shared by the slower tests."""
    x1, x2, raw = dataio.generate_synthetic(200, 4, 12, 10, 0.25, seed=3)
    labels = normalize_labels(raw)
    km1, phi1 = fit_kernel_dense(x1, 48, 3)
    km2, phi2 = fit_kernel_dense(x2, 48, 3)
    return {"x1": x1, "x2": x2, "labels": labels,
            "km1": km1, "km2": km2, "phi1": phi1, "phi2": phi2}
