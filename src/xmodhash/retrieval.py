"""Bit-packed code storage, Hamming ranking, and retrieval metrics.

Codes are +-1 vectors packed little-endian into 64-bit words: bit j of
instance i lives in word i*ceil(r/64) + j//64 at bit position j%64, with a
set bit meaning +1.  Ranking is a linear scan with XOR + popcount; ties are
broken by ascending database index so every metric is bit-reproducible.

The ABC1 code file is: magic "ABC1", unsigned 64-bit n, unsigned 32-bit r,
then n * ceil(r/64) little-endian 64-bit words.
"""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EvaluationError, FormatError, ValidationError

ABC_MAGIC = b"ABC1"


@dataclass
class CodeSet:
    """Packed +-1 codes for n instances, r bits each."""

    n: int
    r: int
    words: np.ndarray  # n x ceil(r/64), uint64

    def __post_init__(self):
        self.words = np.asarray(self.words, dtype=np.uint64)
        if self.n < 0 or self.r < 1:
            raise ValidationError(f"need n >= 0 and r >= 1, got n={self.n}, r={self.r}")
        width = words_per_code(self.r)
        if self.words.shape != (self.n, width):
            raise ValidationError(
                f"packed words have shape {self.words.shape}, expected ({self.n}, {width})")
        spare = width * 64 - self.r
        if spare and self.n and np.any(self.words[:, -1] >> np.uint64(64 - spare)):
            raise ValidationError("unused high bits of the last word must be zero")


class MapResult(NamedTuple):
    value: float
    excluded_queries: int


def words_per_code(r: int) -> int:
    return (r + 63) // 64


def pack_codes(signs: np.ndarray) -> CodeSet:
    """Pack an n x r matrix of exact +-1 values (+1 maps to a set bit)."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValidationError(f"sign matrix must be 2-D, got ndim={signs.ndim}")
    n, r = signs.shape
    if r < 1:
        raise ValidationError("codes need at least one bit")
    if not np.all(np.abs(signs) == 1):
        raise ValidationError("sign matrix entries must be exactly -1 or +1")
    width = words_per_code(r)
    bits = np.zeros((n, width * 64), dtype=np.uint8)
    bits[:, :r] = signs > 0
    packed = np.packbits(bits, axis=1, bitorder="little")
    return CodeSet(n=n, r=r, words=packed.view("<u8").reshape(n, width))


# Cells (queries x database items) ranked per block: bounds the block's
# distance, order and relevance arrays whatever the query count.
_BLOCK_CELLS = 2 ** 20


def _distances(query_words: np.ndarray, db: CodeSet) -> np.ndarray:
    """B x n Hamming distances from packed query rows to every database code.

    Distances fit in 16 bits below r = 65536, which keeps the stable argsort
    on numpy's radix path.
    """
    dist = np.zeros((query_words.shape[0], db.n),
                    dtype=np.uint16 if db.r < 2 ** 16 else np.uint32)
    for w in range(db.words.shape[1]):
        dist += np.bitwise_count(query_words[:, w, None] ^ db.words[None, :, w])
    return dist


def rank_by_hamming(query: np.ndarray, db: CodeSet) -> np.ndarray:
    """Database indices sorted by ascending distance, ties by ascending index."""
    query = np.asarray(query, dtype=np.uint64).ravel()
    if query.shape[0] != db.words.shape[1]:
        raise ValidationError(
            f"query has {query.shape[0]} words, database codes have {db.words.shape[1]}")
    return np.argsort(_distances(query[None, :], db)[0], kind="stable")


@dataclass
class RelevanceJudge:
    """Share-any-label relevance between query and database instances."""

    query_labels: np.ndarray  # c x n_query, 0/1
    db_labels: np.ndarray     # c x n_db, 0/1

    def __post_init__(self):
        self.query_labels = np.asarray(self.query_labels, dtype=np.float64)
        self.db_labels = np.asarray(self.db_labels, dtype=np.float64)
        if self.query_labels.shape[0] != self.db_labels.shape[0]:
            raise ValidationError(
                f"label matrices disagree on class count: "
                f"{self.query_labels.shape[0]} vs {self.db_labels.shape[0]}")

    def relevance(self, query_index: int | slice) -> np.ndarray:
        """Boolean relevance of every database item to one query, or to a
        slice of queries as a (queries x database) matrix."""
        return (self.query_labels[:, query_index].T @ self.db_labels) > 0


def _ap_from_hits(hits: np.ndarray) -> float:
    """AP from the 0-based ranks of the relevant items, in rank order.

    cumsum adds the precision terms in rank order, so the value is the same
    as a rank-by-rank walk.
    """
    count = np.arange(1, hits.size + 1)
    return float(np.cumsum(count / (hits + 1))[-1]) / hits.size


def _check_cutoff(cutoff: int, n: int) -> None:
    if cutoff < 1:
        raise ValidationError(f"cutoff must be at least 1, got {cutoff}")
    if cutoff > n:
        raise ValidationError(f"cutoff {cutoff} exceeds ranking length {n}")


def evaluate(queries: CodeSet, db: CodeSet, judge: RelevanceJudge,
             cutoff: int | None = None, include_empty: bool = False,
             n_points: Sequence[int] = ()) -> tuple[MapResult, list[tuple[int, float]]]:
    """mAP and the top-N precision curve from one ranking of each query.

    Every argument is checked before any distance is computed.  Queries are
    ranked in blocks of at most _BLOCK_CELLS query-database pairs, so memory
    stays bounded whatever the query count.  Per-query values are summed in
    query order, as a query-by-query loop would.
    """
    if queries.r != db.r:
        raise ValidationError(f"code lengths differ: query r={queries.r}, db r={db.r}")
    if queries.n < 1:
        raise ValidationError("need at least one query")
    if db.n < 1:
        raise ValidationError("need at least one database code")
    if cutoff is None:
        cutoff = db.n
    _check_cutoff(cutoff, db.n)
    for n_top in n_points:
        if n_top < 1 or n_top > db.n:
            raise ValidationError(f"top-N point {n_top} outside [1, {db.n}]")
    aps = np.zeros(queries.n)
    empty = np.zeros(queries.n, dtype=bool)
    precision = np.zeros((queries.n, len(n_points)))
    height = max(1, _BLOCK_CELLS // db.n)
    for start in range(0, queries.n, height):
        block = slice(start, min(start + height, queries.n))
        order = np.argsort(_distances(queries.words[block], db), axis=1, kind="stable")
        rel = np.take_along_axis(judge.relevance(block), order, axis=1)
        for row, qi in enumerate(range(block.start, block.stop)):
            hits = np.flatnonzero(rel[row, :cutoff])
            if hits.size:
                aps[qi] = _ap_from_hits(hits)
            else:
                empty[qi] = True
        for col, n_top in enumerate(n_points):
            precision[block, col] = np.count_nonzero(rel[:, :n_top], axis=1) / n_top
    kept = aps if include_empty else aps[~empty]
    if kept.size == 0:
        raise EvaluationError("every query has empty ground truth in the top cutoff")
    result = MapResult(float(np.cumsum(kept)[-1]) / kept.size,
                       0 if include_empty else int(empty.sum()))
    sums = np.cumsum(precision, axis=0)[-1]
    curve = [(n_top, float(sums[col]) / queries.n) for col, n_top in enumerate(n_points)]
    return result, curve


def write_codes(codes: CodeSet, path) -> None:
    """Write a code set as an ABC1 file."""
    header = ABC_MAGIC + struct.pack("<QI", codes.n, codes.r)
    payload = np.ascontiguousarray(codes.words, dtype="<u8").tobytes(order="C")
    try:
        Path(path).write_bytes(header + payload)
    except OSError as e:
        raise OSError(f"cannot write codes to {path}: {e}") from e


def read_codes(path) -> CodeSet:
    """Read an ABC1 file; the unused-bit invariant is re-checked on load."""
    buf = Path(path).read_bytes()
    if buf[:4] != ABC_MAGIC:
        raise FormatError(f"{path}: bad magic, not an ABC1 code file")
    if len(buf) < 16:
        raise FormatError(f"{path}: truncated ABC1 header")
    n, r = struct.unpack_from("<QI", buf, 4)
    if r < 1:
        raise FormatError(f"{path}: declared code length {r} is invalid")
    width = words_per_code(r)
    need = n * width * 8
    if len(buf) - 16 != need:
        raise FormatError(
            f"{path}: payload is {len(buf) - 16} bytes, {n} codes of {r} bits need {need}")
    words = np.frombuffer(buf, dtype="<u8", count=n * width, offset=16)
    try:
        return CodeSet(n=n, r=r, words=words.reshape(n, width).copy())
    except ValidationError as e:
        raise FormatError(f"{path}: {e}") from e
