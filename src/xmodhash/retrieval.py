"""Bit-packed code storage, Hamming ranking, and retrieval metrics.

Codes are +-1 vectors packed little-endian into 64-bit words: bit j of
instance i lives in word i*ceil(r/64) + j//64 at bit position j%64, with a
set bit meaning +1.  Ranking is a linear scan with XOR + popcount; ties are
broken by ascending database index so every metric is bit-reproducible.

Distances are kept in the narrowest unsigned type that holds r (uint8 up to
r = 255), so each query's stable argsort is one counting pass.  evaluate
ranks the queries one at a time.  A query's relevance is the OR of the
database label rows of its classes, taken in database order and gathered
through its ranking.  Beyond the per-query results, evaluate holds a few
database-length rows plus one byte per label entry, whatever the query
count.

The ABC1 code file is: magic "ABC1", unsigned 64-bit n, unsigned 32-bit r,
then n * ceil(r/64) little-endian 64-bit words.  It is read and written
through ``dataio``'s one payload reader and writer, as AMX1 matrices and
AMH1 archives are: the declared size is checked against the file's before
anything is allocated, then the words go straight into the final array, and
the writer writes the header and then the words' own buffer.
"""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import _read_array, _sized, _write_file
from .errors import EvaluationError, FormatError, ValidationError

ABC_MAGIC = b"ABC1"


@dataclass
class CodeSet:
    """Packed +-1 codes of r bits each, one row of words per instance."""

    r: int
    words: np.ndarray  # n x ceil(r/64), uint64

    def __post_init__(self):
        self.words = np.asarray(self.words, dtype=np.uint64)
        if self.r < 1:
            raise ValidationError(f"need r >= 1, got r={self.r}")
        width = words_per_code(self.r)
        if self.words.ndim != 2 or self.words.shape[1] != width:
            raise ValidationError(
                f"packed words have shape {self.words.shape}, expected (n, {width})")
        _check_spare_bits(self.words[:, -1], self.r)

    @property
    def n(self) -> int:
        return self.words.shape[0]


class MapResult(NamedTuple):
    value: float
    excluded_queries: int


def words_per_code(r: int) -> int:
    return (r + 63) // 64


def _check_spare_bits(last_words: np.ndarray, r: int) -> None:
    """Reject r-bit codes whose last word sets a bit beyond the code's r bits."""
    spare = words_per_code(r) * 64 - r
    if spare and (last_words >> np.uint64(64 - spare)).any():
        raise ValidationError("unused high bits of the last word must be zero")


def _pack_bits(bits: np.ndarray, words: np.ndarray) -> None:
    """Pack an m x r boolean block (True is a set bit) into ``words``, m rows
    of ceil(r/64) little-endian uint64 words whose bytes are all zero."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words.view(np.uint8)[:, :packed.shape[1]] = packed


def _distances(query: np.ndarray, db: CodeSet, out: np.ndarray, scratch: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
    """Write the Hamming distances from one packed query row to every database
    code into the n-length ``out`` and return it.

    ``out`` has the narrowest unsigned type that holds r, so below r = 256 its
    stable argsort is one radix (counting) pass over uint8 keys.  The query is
    XORed into the n-length uint64 ``scratch`` word by word, and each word's
    popcounts are added through ``counts``, an n-length row of ``out``'s type.
    """
    np.bitwise_xor(db.words[:, 0], query[0], out=scratch)
    np.bitwise_count(scratch, out=out)
    for w in range(1, query.size):
        np.bitwise_xor(db.words[:, w], query[w], out=scratch)
        out += np.bitwise_count(scratch, out=counts)
    return out


def rank_by_hamming(query: np.ndarray, db: CodeSet) -> np.ndarray:
    """Database indices sorted by ascending distance, ties by ascending index."""
    query = np.asarray(query, dtype=np.uint64).ravel()
    if query.shape[0] != db.words.shape[1]:
        raise ValidationError(
            f"query has {query.shape[0]} words, database codes have {db.words.shape[1]}")
    _check_spare_bits(query[-1], db.r)
    dist = np.empty(db.n, dtype=np.min_scalar_type(db.r))
    _distances(query, db, dist, np.empty(db.n, dtype=np.uint64), np.empty_like(dist))
    return np.argsort(dist, kind="stable")


def _ap_from_hits(hits: np.ndarray) -> float:
    """AP from the 0-based ranks of the relevant items, in rank order.

    cumsum adds the precision terms in rank order, so the value is the same
    as a rank-by-rank walk.
    """
    count = np.arange(1, hits.size + 1)
    return float(np.cumsum(count / (hits + 1))[-1]) / hits.size


def evaluate(queries: CodeSet, db: CodeSet, query_labels: np.ndarray,
             db_labels: np.ndarray, cutoff: int | None = None, include_empty: bool = False,
             n_points: Sequence[int] = ()) -> tuple[MapResult, list[tuple[int, float]]]:
    """mAP and the top-N precision curve from one ranking of each query.

    ``query_labels`` and ``db_labels`` are the c x n 0/1 label matrices of
    the queries and the database items; a pair is relevant when it shares a
    label, (q^T d) > 0.  Every argument is checked before any distance is
    computed.  Queries are ranked one at a time.  Each query's relevance is
    the OR of the database label rows of its classes, taken in database order
    and then gathered through its ranking.  Beyond the per-query results,
    memory is a few database-length rows plus one byte per label entry,
    whatever the query count.  Per-query values are summed in query order.
    """
    query_labels, db_labels = np.asarray(query_labels), np.asarray(db_labels)
    ones = []
    for name, labels in (("query", query_labels), ("database", db_labels)):
        if labels.ndim != 2:
            raise ValidationError(f"{name} labels must be a c x n matrix, got ndim={labels.ndim}")
        # every nonzero entry is a 1: NaN and Inf count as nonzero but are not 1
        ones.append(labels == 1)
        if np.count_nonzero(labels) != np.count_nonzero(ones[-1]):
            raise ValidationError(f"{name} label entries must be 0 or 1")
    if query_labels.shape[0] != db_labels.shape[0]:
        raise ValidationError(
            f"label matrices disagree on class count: "
            f"{query_labels.shape[0]} vs {db_labels.shape[0]}")
    if queries.r != db.r:
        raise ValidationError(f"code lengths differ: query r={queries.r}, db r={db.r}")
    if queries.n < 1:
        raise ValidationError("need at least one query")
    if db.n < 1:
        raise ValidationError("need at least one database code")
    if query_labels.shape[1] != queries.n or db_labels.shape[1] != db.n:
        raise ValidationError(
            f"labels cover {query_labels.shape[1]} queries and "
            f"{db_labels.shape[1]} database items, codes {queries.n} and {db.n}")
    if cutoff is None:
        cutoff = db.n
    if cutoff < 1:
        raise ValidationError(f"cutoff must be at least 1, got {cutoff}")
    if cutoff > db.n:
        raise ValidationError(f"cutoff {cutoff} exceeds ranking length {db.n}")
    for n_top in n_points:
        if n_top < 1 or n_top > db.n:
            raise ValidationError(f"top-N point {n_top} outside [1, {db.n}]")
    query_rows, db_rows = ones[0].T, ones[1]
    aps = np.zeros(queries.n)
    empty = np.zeros(queries.n, dtype=bool)
    precision = np.zeros((queries.n, len(n_points)))
    dist = np.empty(db.n, dtype=np.min_scalar_type(db.r))
    scratch, counts = np.empty(db.n, dtype=np.uint64), np.empty_like(dist)
    unranked, rel = np.empty(db.n, dtype=bool), np.empty(db.n, dtype=bool)
    for qi in range(queries.n):
        _distances(queries.words[qi], db, dist, scratch, counts)
        np.logical_or.reduce(db_rows[query_rows[qi]], axis=0, out=unranked)
        # argsort indices are in range; "clip" writes straight into rel
        np.take(unranked, np.argsort(dist, kind="stable"), out=rel, mode="clip")
        hits = np.flatnonzero(rel[:cutoff])
        if hits.size:
            aps[qi] = _ap_from_hits(hits)
        else:
            empty[qi] = True
        for col, n_top in enumerate(n_points):
            precision[qi, col] = np.count_nonzero(rel[:n_top]) / n_top
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
    _write_file(path, "codes", [ABC_MAGIC + struct.pack("<QI", codes.n, codes.r),
                                np.ascontiguousarray(codes.words, dtype="<u8")])


def read_codes(path) -> CodeSet:
    """Read an ABC1 file; the unused-bit invariant is re-checked on load."""
    with Path(path).open("rb") as raw:
        header = raw.read(16)
        if header[:4] != ABC_MAGIC:
            raise FormatError(f"{path}: bad magic, not an ABC1 code file")
        if len(header) < 16:
            raise FormatError(f"{path}: truncated ABC1 header")
        n, r = struct.unpack_from("<QI", header, 4)
        if r < 1:
            raise FormatError(f"{path}: declared code length {r} is invalid")
        width = words_per_code(r)
        need = n * width * 8

        def error(size: int) -> str:
            return f"{path}: payload is {size} bytes, {n} codes of {r} bits need {need}"

        f, left = _sized(raw)
        if left > need:
            raise FormatError(error(left))
        words = _read_array(f, (n, width), "<u8", need, left, error)
    try:
        return CodeSet(r=r, words=words)
    except ValidationError as e:
        raise FormatError(f"{path}: {e}") from e
