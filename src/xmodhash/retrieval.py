"""Bit-packed code storage, Hamming ranking, and retrieval metrics.

Codes are +-1 vectors packed little-endian into 64-bit words: bit j of
instance i lives in word i*ceil(r/64) + j//64 at bit position j%64, with a
set bit meaning +1.  Ranking is a linear scan with XOR + popcount; ties are
broken by ascending database index so every metric is bit-reproducible.

Distances are kept in the narrowest unsigned type that holds r (uint8 up to
r = 255), so each query's stable argsort is one counting pass.  Label sets
are packed once into bit-mask words, and relevance is "masks AND to
non-zero".  evaluate ranks queries in blocks of at most _BLOCK_CELLS
query-database cells and allocates its buffers once per call: beyond the
per-query results it holds about two bytes per block cell plus a few
database-length rows, whatever the query count.

The ABC1 code file is: magic "ABC1", unsigned 64-bit n, unsigned 32-bit r,
then n * ceil(r/64) little-endian 64-bit words.  It is read and written
through ``dataio``'s one payload reader and writer, as AMX1 matrices and
AMH1 archives are: the declared size is checked against the file's before
anything is allocated, then the words go straight into the final array, and
the writer writes the header and then the words' own buffer.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import _read_array, _sized, _write_file
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
    if signs.shape[1] < 1:
        raise ValidationError("codes need at least one bit")
    if not np.all(np.abs(signs) == 1):
        raise ValidationError("sign matrix entries must be exactly -1 or +1")
    return _pack_bits(signs > 0)


def _pack_bits(bits: np.ndarray) -> CodeSet:
    """Pack an n x r boolean matrix (r >= 1; True is a set bit)."""
    n, r = bits.shape
    width = words_per_code(r)
    padded = np.zeros((n, width * 64), dtype=np.uint8)
    padded[:, :r] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return CodeSet(n=n, r=r, words=packed.view("<u8").reshape(n, width))


# Cells (queries x database items) ranked per block: bounds the block's
# distance and relevance buffers whatever the query count.
_BLOCK_CELLS = 2 ** 20


def _distances(query_words: np.ndarray, db: CodeSet, out: np.ndarray) -> np.ndarray:
    """Write the B x n Hamming distances from packed query rows to every
    database code into ``out`` and return it.

    ``out`` has the narrowest unsigned type that holds r, so below r = 256 the
    stable argsort of a row is one radix (counting) pass over uint8 keys.  Each
    query row is XORed into one n-word scratch row, word by word, and
    popcounted straight into its output row.
    """
    scratch = np.empty(db.n, dtype=np.uint64)
    counts = np.empty(db.n, dtype=out.dtype)
    for query, row in zip(query_words, out):
        np.bitwise_xor(db.words[:, 0], query[0], out=scratch)
        np.bitwise_count(scratch, out=row)
        for w in range(1, db.words.shape[1]):
            np.bitwise_xor(db.words[:, w], query[w], out=scratch)
            row += np.bitwise_count(scratch, out=counts)
    return out


def rank_by_hamming(query: np.ndarray, db: CodeSet) -> np.ndarray:
    """Database indices sorted by ascending distance, ties by ascending index."""
    query = np.asarray(query, dtype=np.uint64).ravel()
    if query.shape[0] != db.words.shape[1]:
        raise ValidationError(
            f"query has {query.shape[0]} words, database codes have {db.words.shape[1]}")
    dist = np.empty((1, db.n), dtype=np.min_scalar_type(db.r))
    return np.argsort(_distances(query[None, :], db, dist)[0], kind="stable")


def _label_masks(labels: np.ndarray) -> np.ndarray:
    """n x ceil(c/64) bit masks of a c x n 0/1 label matrix, class j at bit j,
    in the narrowest unsigned type that holds min(c, 64) bits."""
    c, n = labels.shape
    dtype = np.min_scalar_type((1 << min(c, 64)) - 1)
    word_bits = 8 * dtype.itemsize
    padded = np.zeros((n, max(1, -(-c // word_bits)) * word_bits), dtype=bool)
    padded[:, :c] = labels.T == 1
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(dtype.newbyteorder("<")).astype(dtype, copy=False)


@dataclass
class RelevanceJudge:
    """Share-any-label relevance between query and database instances.

    Each instance's label set is packed once into bit-mask words; a query and
    a database item are relevant when their masks AND to non-zero, which for
    0/1 labels is exactly (q^T d) > 0.
    """

    query_labels: np.ndarray  # c x n_query, 0/1
    db_labels: np.ndarray     # c x n_db, 0/1
    query_masks: np.ndarray = field(init=False, repr=False, compare=False)
    db_masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.query_labels = np.asarray(self.query_labels, dtype=np.float64)
        self.db_labels = np.asarray(self.db_labels, dtype=np.float64)
        if self.query_labels.shape[0] != self.db_labels.shape[0]:
            raise ValidationError(
                f"label matrices disagree on class count: "
                f"{self.query_labels.shape[0]} vs {self.db_labels.shape[0]}")
        for name, labels in (("query", self.query_labels), ("database", self.db_labels)):
            if not np.all((labels == 0) | (labels == 1)):
                raise ValidationError(f"{name} label entries must be 0 or 1")
        self.query_masks = _label_masks(self.query_labels)
        self.db_masks = _label_masks(self.db_labels)


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
    stays bounded whatever the query count.  Each query's relevance is taken
    in database order from the label masks, then gathered through its
    ranking.  Per-query values are summed in query order, as a query-by-query
    loop would.
    """
    if queries.r != db.r:
        raise ValidationError(f"code lengths differ: query r={queries.r}, db r={db.r}")
    if queries.n < 1:
        raise ValidationError("need at least one query")
    if db.n < 1:
        raise ValidationError("need at least one database code")
    if judge.query_masks.shape[0] != queries.n or judge.db_masks.shape[0] != db.n:
        raise ValidationError(
            f"labels cover {judge.query_masks.shape[0]} queries and "
            f"{judge.db_masks.shape[0]} database items, codes {queries.n} and {db.n}")
    if cutoff is None:
        cutoff = db.n
    _check_cutoff(cutoff, db.n)
    for n_top in n_points:
        if n_top < 1 or n_top > db.n:
            raise ValidationError(f"top-N point {n_top} outside [1, {db.n}]")
    aps = np.zeros(queries.n)
    empty = np.zeros(queries.n, dtype=bool)
    precision = np.zeros((queries.n, len(n_points)))
    height = min(queries.n, max(1, _BLOCK_CELLS // db.n))
    dist = np.empty((height, db.n), dtype=np.min_scalar_type(db.r))
    rel = np.empty((height, db.n), dtype=bool)
    shared = np.empty(db.n, dtype=judge.db_masks.dtype)
    word = np.empty_like(shared)
    unranked = np.empty(db.n, dtype=bool)
    for start in range(0, queries.n, height):
        rows = min(height, queries.n - start)
        _distances(queries.words[start:start + rows], db, dist[:rows])
        for row, qi in enumerate(range(start, start + rows)):
            query_mask = judge.query_masks[qi]
            np.bitwise_and(judge.db_masks[:, 0], query_mask[0], out=shared)
            for w in range(1, query_mask.size):
                shared |= np.bitwise_and(judge.db_masks[:, w], query_mask[w], out=word)
            np.not_equal(shared, 0, out=unranked)
            # argsort indices are in range; "clip" writes straight into the row
            np.take(unranked, np.argsort(dist[row], kind="stable"), out=rel[row], mode="clip")
            hits = np.flatnonzero(rel[row, :cutoff])
            if hits.size:
                aps[qi] = _ap_from_hits(hits)
            else:
                empty[qi] = True
        for col, n_top in enumerate(n_points):
            precision[start:start + rows, col] = (
                np.count_nonzero(rel[:rows, :n_top], axis=1) / n_top)
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
        return CodeSet(n=n, r=r, words=words)
    except ValidationError as e:
        raise FormatError(f"{path}: {e}") from e
