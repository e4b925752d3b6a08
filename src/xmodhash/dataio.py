"""Matrix and label ingest, model archives, and seeded synthetic datasets.

Two matrix encodings are supported: plain CSV (human-friendly, always read
as f64) and the canonical AMX1 binary layout:

    bytes 0..3    magic "AMX1"
    byte  4       dtype code (0 = f32, 1 = f64)
    bytes 5..7    zero padding
    bytes 8..15   rows >= 1, unsigned 64-bit little-endian
    bytes 16..23  cols >= 1, unsigned 64-bit little-endian
    then rows*cols values, row-major, little-endian

Model archives use the AMH1 container: magic "AMH1", an unsigned 32-bit
section count, then each section as (unsigned 32-bit name length, UTF-8
name, embedded AMX1 blob).  The final section is named "meta" and holds
UTF-8 key=value lines instead of an AMX1 blob, joined and split at "\n"
only.  This module owns the container alone and writes and reads any
section names; ``encoder`` states which sections and metadata keys a model
holds and checks them when it reads an archive back.

One reader serves matrix files, archive sections and ABC1 code files
(``retrieval``): ``_sized`` gives the bytes left in the open file
(``os.fstat``; a pipe's rest is read into memory once), and ``_read_array``
checks the declared payload size against them before it allocates
anything, then reads the payload into the final array with ``readinto``.
An archive is read section by section from the open file, so loading it
holds about one copy, as reading a matrix or code file does.  One writer,
``_write_file``, writes the header and then each array's own buffer.

A matrix file is opened as ``MatrixRows``, which checks the header and the
declared payload size against the file's (no truncation, no trailing
bytes) before it reads any row.  ``read_matrix`` and ``read_labels`` read
every row into one array; label files are always read that way.
``open_matrix`` hands the rows to ``train`` (``encoder.fit_pipeline``) and
``encode`` instead.  They read them in blocks into one reused buffer, each
block checked for NaN and Inf as it arrives, and gather the anchors and the
width sample by row index, each in one such pass, so neither command ever
holds a feature file's n x d matrix.  Every error found while the rows are read
names the file.  A CSV file is still read whole, and a pipe's rest is read
into memory first.
"""

import contextlib
import io
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import FormatError, ValidationError
from .rng import component_rng

AMX_MAGIC = b"AMX1"
AMH_MAGIC = b"AMH1"
_HEADER_LEN = 24

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

# Values per block when ``MatrixRows.gather`` reads a file: 512 KB of float64.
_GATHER_CELLS = 2 ** 16

@dataclass
class FeatureMatrix:
    """Dense per-instance feature vectors for one modality (one row each)."""

    values: np.ndarray
    modality_id: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.dtype not in (np.float32, np.float64):
            self.values = self.values.astype(np.float64)
        if self.values.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got ndim={self.values.ndim}")
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise ValidationError(f"feature matrix needs n >= 1 and d >= 1, got {n}x{d}")
        _check_finite(self.values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def blocks(self, height: int):
        """Yield (row slice, those rows) in blocks of ``height`` rows, the
        rows as views of the values."""
        for rows in _row_blocks(self.n, height):
            yield rows, self.values[rows]

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """The rows ``idx`` (indices in 0..n-1), in that order, as a new array."""
        return self.values[idx]


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError("feature matrix contains NaN or Inf entries")


def _row_blocks(n: int, height: int):
    """Row slices covering n rows, each of ``height`` rows (the last may be shorter)."""
    return (slice(lo, min(lo + height, n)) for lo in range(0, n, height))


@dataclass
class RawLabelMatrix:
    """Binary class-by-instance label matrix; every instance has a label."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValidationError(f"label matrix must be 2-D, got ndim={self.values.ndim}")
        bad = ~np.isin(self.values, (0, 1))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"label matrix entries must be 0 or 1; entry ({i},{j}) is {self.values[i, j]}")
        self.values = self.values.astype(np.float64, copy=False)
        empty = np.flatnonzero(self.values.sum(axis=0) == 0)
        if empty.size:
            raise ValidationError(f"unlabeled instance: column {empty[0]} has no labels")

    @property
    def c(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass
class ModelArchive:
    """Named matrix sections plus a string metadata map, AMH1-serializable."""

    sections: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)


def _encode_array(a: np.ndarray) -> tuple[bytes, np.ndarray]:
    """AMX1 header and C-order little-endian values of a 2-D matrix; the
    values are ``a`` itself unless its layout or byte order differs."""
    a = np.ascontiguousarray(a)
    if a.ndim != 2:
        raise ValidationError(f"only 2-D matrices are serializable, got ndim={a.ndim}")
    rows, cols = a.shape
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    code = _DTYPE_TO_CODE.get(a.dtype)
    if code is None:
        raise ValidationError(f"unsupported dtype {a.dtype}; use float32 or float64")
    header = AMX_MAGIC + bytes([code, 0, 0, 0]) + struct.pack("<QQ", rows, cols)
    return header, a.astype(_CODE_TO_DTYPE[code], copy=False)


def _parse_header(header: bytes) -> tuple[np.dtype, int, int]:
    """(dtype, rows, cols) of an AMX1 header; fewer than 24 bytes in
    ``header`` mean the header is truncated."""
    if len(header) < _HEADER_LEN:
        raise FormatError("truncated AMX1 header")
    if header[:4] != AMX_MAGIC:
        raise FormatError("bad magic: not an AMX1 matrix")
    code = header[4]
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unknown AMX1 dtype code {code}")
    if header[5:8] != b"\x00\x00\x00":
        raise FormatError("AMX1 reserved header bytes are not zero")
    rows, cols = struct.unpack_from("<QQ", header, 8)
    if rows < 1 or cols < 1:
        raise FormatError(f"AMX1 header declares a {rows}x{cols} matrix; "
                          f"both dimensions must be >= 1")
    return _CODE_TO_DTYPE[code], rows, cols


def _sized(f: BinaryIO) -> tuple[BinaryIO, int]:
    """``f`` and the number of bytes left in it.  A regular file's size comes
    from ``os.fstat``; a pipe has none, so its rest is read into memory once."""
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode):
        return f, info.st_size - f.tell()
    rest = f.read()
    return io.BytesIO(rest), len(rest)


def _fill(f: BinaryIO, a: np.ndarray, error: Callable[[int], str]) -> None:
    """Read the next ``a.nbytes`` bytes of ``f`` into the C-order array ``a``;
    when the file ends first, ``FormatError(error(got))`` is raised."""
    buf = a.reshape(-1).view(np.uint8)
    got = 0
    while got < buf.size:
        count = f.readinto(buf[got:])
        if not count:
            raise FormatError(error(got))
        got += count


def _read_array(f: BinaryIO, shape: tuple[int, ...], dtype: np.dtype | str, need: int,
                left: int, error: Callable[[int], str]) -> np.ndarray:
    """Read the next ``need`` bytes of ``f`` into a new C-order array.

    ``left`` is the number of bytes ``f`` has left.  When it is short of
    ``need``, ``FormatError(error(left))`` is raised before anything is
    allocated; when the file ends early all the same (it shrank while being
    read), ``FormatError(error(got))`` is.  Bytes past the payload stay unread.
    """
    if left < need:
        raise FormatError(error(left))
    a = np.empty(shape, dtype=dtype)
    _fill(f, a, error)
    return a


def _payload_error(rows: int, cols: int, need: int) -> Callable[[int], str]:
    return lambda size: (f"truncated AMX1 payload: declared {rows}x{cols} needs {need} bytes, "
                         f"{size} available")


def _read_amx(f: BinaryIO, header: bytes, left: int) -> np.ndarray:
    """Read the payload of the AMX1 ``header`` just read from ``f``, which
    has ``left`` bytes left after it."""
    dtype, rows, cols = _parse_header(header)
    need = rows * cols * dtype.itemsize
    return _read_array(f, (rows, cols), dtype, need, left, _payload_error(rows, cols, need))


class MatrixRows:
    """The rows of an AMX1 file open for reading, checked before any is read.

    Making it checks the ``header`` just read from ``f`` and the declared
    payload size against the ``left`` bytes after it: fewer is a truncated
    payload, more are trailing bytes.  ``blocks`` then reads the rows in
    blocks, and ``gather`` picks rows by index; each starts again from the
    first row.  ``read`` reads them all at once.  A file that ends early all
    the same (it shrank while being read) is a ``FormatError`` either way.
    Every message starts with ``path``, the file's name.
    """

    def __init__(self, f: BinaryIO, left: int, header: bytes, path):
        self.path = path
        self.dtype, self.n, self.dim = _in_file(path, _parse_header, header)
        self._f = f
        self._start = f.tell()
        self._need = self.n * self.dim * self.dtype.itemsize
        payload_error = _payload_error(self.n, self.dim, self._need)
        self._error = lambda size: f"{path}: {payload_error(size)}"
        if left < self._need:
            raise FormatError(self._error(left))
        if left > self._need:
            raise FormatError(f"{path}: {left - self._need} trailing bytes after AMX1 payload")

    def blocks(self, height: int):
        """Yield (row slice, those rows) in blocks of ``height`` rows, from row 0.

        Every block is read into one reused buffer and checked for NaN and
        Inf before it is yielded, so a caller keeps only what it derives
        from a block before asking for the next.
        """
        self._f.seek(self._start)
        buf = np.empty((min(self.n, height), self.dim), dtype=self.dtype)
        row_bytes = self.dim * self.dtype.itemsize
        for rows in _row_blocks(self.n, height):
            block = buf[:rows.stop - rows.start]
            _fill(self._f, block, lambda got: self._error(rows.start * row_bytes + got))
            _in_file(self.path, _check_finite, block)
            yield rows, block

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """The rows ``idx`` (indices in 0..n-1), in that order, as a new array.

        One pass of ``blocks`` reads the whole file, checking every block,
        and copies out the wanted rows of each in sorted order; they are
        put back in ``idx``'s order as they are copied.  A block pass costs
        far less than one seek and read per wanted row.
        """
        order = np.argsort(idx, kind="stable")
        wanted = idx[order]
        out = np.empty((len(idx), self.dim), dtype=self.dtype)
        lo = 0
        for rows, block in self.blocks(max(1, _GATHER_CELLS // self.dim)):
            hi = int(np.searchsorted(wanted, rows.stop))
            out[order[lo:hi]] = block[wanted[lo:hi] - rows.start]
            lo = hi
        return out

    def read(self) -> np.ndarray:
        """Every row, read into one new n x d array; the values are not checked."""
        return _read_array(self._f, (self.n, self.dim), self.dtype, self._need, self._need,
                           self._error)


def _write_file(path, what: str, parts) -> None:
    """Write ``parts`` (bytes and arrays, each through its own buffer) to ``path``."""
    try:
        with Path(path).open("wb") as f:
            f.writelines(parts)
    except OSError as e:
        raise OSError(f"cannot write {what} to {path}: {e}") from e


def write_matrix(m, path) -> None:
    """Write a matrix (FeatureMatrix or 2-D array) as an AMX1 file."""
    values = m.values if isinstance(m, FeatureMatrix) else np.asarray(m)
    _write_file(path, "matrix", _encode_array(values))


def _read_csv_matrix(data: bytes, path) -> np.ndarray:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: neither AMX1 nor readable CSV ({e})") from e
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: unparseable CSV row ({e})") from e
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{path}:{lineno}: ragged CSV row ({len(row)} != {width} cells)")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: empty CSV matrix")
    return np.asarray(rows, dtype=np.float64)


def _in_file(path, fn, *args):
    """``fn(*args)``, with ``path`` put before the message of any ValidationError."""
    try:
        return fn(*args)
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from e


@contextlib.contextmanager
def _open_values(path):
    """Yield a CSV file's values, parsed whole, or an AMX1 file's ``MatrixRows``
    (a pipe's rest is read into memory first, see ``_sized``)."""
    with Path(path).open("rb") as raw:
        header = raw.read(_HEADER_LEN)
        if header[:4] != AMX_MAGIC:
            yield _read_csv_matrix(header + raw.read(), path)
        else:
            yield MatrixRows(*_sized(raw), header, path)


def _read_values(path) -> np.ndarray:
    with _open_values(path) as m:
        return m if isinstance(m, np.ndarray) else m.read()


def read_matrix(path) -> FeatureMatrix:
    """Read an AMX1 or CSV matrix file; validates finiteness and shape."""
    return _in_file(path, FeatureMatrix, _read_values(path))


def read_labels(path) -> RawLabelMatrix:
    """Read a c x n binary label matrix (AMX1 or CSV) and validate it."""
    return _in_file(path, RawLabelMatrix, _read_values(path))


@contextlib.contextmanager
def open_matrix(path):
    """Open a feature file for ``encoder.fit_pipeline`` or ``encoder.encode``,
    for the length of a with-block.

    An AMX1 file gives its ``MatrixRows``, checked but not yet read; the
    fit and encode read its rows in blocks.  Errors found while they are
    read (NaN or Inf, a file that shrank) name the file.  A CSV file gives a
    checked ``FeatureMatrix``, read whole.
    """
    with _open_values(path) as m:
        yield _in_file(path, FeatureMatrix, m) if isinstance(m, np.ndarray) else m


def save_model(archive: ModelArchive, path) -> None:
    """Serialize a model archive as AMH1; the metadata section goes last.

    Any section names are written; which ones a model needs is up to its
    reader (``encoder.from_archive``).  Only "meta" is refused, since it
    names the metadata section.
    """
    if "meta" in archive.sections:
        raise ValidationError("section name 'meta' is reserved for the metadata section")
    parts = [AMH_MAGIC, struct.pack("<I", len(archive.sections) + 1)]
    for name, values in archive.sections.items():
        try:
            encoded_name = name.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ValidationError(f"section name {name!r} is not encodable as UTF-8") from e
        parts.append(struct.pack("<I", len(encoded_name)))
        parts.append(encoded_name)
        parts.extend(_encode_array(values))
    meta_lines = []
    for key, value in archive.metadata.items():
        value = str(value)
        if "=" in key or "\n" in key or "\n" in value:
            raise ValidationError(f"metadata entry {key!r} not encodable as key=value line")
        try:
            meta_lines.append(f"{key}={value}".encode("utf-8"))
        except UnicodeEncodeError as e:
            raise ValidationError(f"metadata entry {key!r} is not encodable as UTF-8") from e
    parts.append(struct.pack("<I", len(b"meta")))
    parts.append(b"meta")
    parts.append(b"\n".join(meta_lines))
    _write_file(path, "model archive", parts)


def load_model(path) -> ModelArchive:
    """Load an AMH1 model archive of any section names, in file order.

    Only the container is checked here; ``encoder.from_archive`` checks the
    model's layout.  Sections are read in order from the open file, each
    matrix straight into its array, so loading holds about one copy of the
    archive.
    """
    archive = ModelArchive()
    with Path(path).open("rb") as raw:
        f, size = _sized(raw)  # nothing is read yet: size is the whole file
        head = f.read(8)
        if head[:4] != AMH_MAGIC:
            raise FormatError(f"{path}: bad magic, not an AMH1 model archive (version mismatch?)")
        if len(head) < 8:
            raise FormatError(f"{path}: truncated archive header")
        (count,) = struct.unpack_from("<I", head, 4)
        for index in range(count):
            head = f.read(4)
            if len(head) < 4:
                raise FormatError(f"{path}: truncated section header")
            (name_len,) = struct.unpack("<I", head)
            if size - f.tell() < name_len:
                raise FormatError(f"{path}: truncated section name")
            # a name that is not UTF-8 decodes with U+FFFD, an unknown model section
            name = f.read(name_len).decode("utf-8", "replace")
            if index == count - 1:
                if name != "meta":
                    raise FormatError(f"{path}: final section is {name!r}, expected 'meta'")
                try:
                    meta = f.read().decode("utf-8")
                except UnicodeDecodeError as e:
                    raise FormatError(f"{path}: metadata section is not UTF-8 ({e})") from e
                for lineno, line in enumerate(meta.split("\n"), start=1):
                    if not line:
                        continue
                    key, sep, value = line.partition("=")
                    if not sep:
                        raise FormatError(f"{path}: metadata line {lineno} is not key=value")
                    archive.metadata[key] = value
                break
            if name == "meta":
                raise FormatError(f"{path}: 'meta' must be the final section")
            if name in archive.sections:
                raise FormatError(f"{path}: duplicate section name {name!r}")
            header = f.read(_HEADER_LEN)
            archive.sections[name] = _in_file(f"{path}: section {name!r}", _read_amx,
                                              f, header, size - f.tell())
        else:
            raise FormatError(f"{path}: archive has no metadata section")
    return archive


def _separated_centroids(rng: np.random.Generator, c: int, d: int) -> np.ndarray:
    """Seeded unit-norm Gaussian directions, rescaled so the closest pair is 2 apart."""
    for _ in range(100):
        cent = rng.standard_normal((c, d))
        norms = np.linalg.norm(cent, axis=1, keepdims=True)
        if np.any(norms == 0):
            continue
        cent /= norms
        if c == 1:
            return cent
        gaps = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=2)
        min_gap = gaps[~np.eye(c, dtype=bool)].min()
        if min_gap > 1e-6:
            # unit-norm directions cap pairwise gaps at 2, so scale up when needed
            return cent * max(1.0, 2.0 / min_gap)
    raise ValidationError(f"cannot place {c} separated class centroids in {d} dimensions")


def check_synthetic_size(n: int, c: int) -> None:
    """Reject the synthetic dataset sizes ``generate_synthetic`` cannot draw."""
    if c < 2:
        raise ValidationError(f"need at least 2 classes, got c={c}")
    if n < c:
        raise ValidationError(f"need n >= c, got n={n} < c={c}")


def generate_synthetic(n: int, c: int, d1: int, d2: int, noise: float,
                       seed: int) -> tuple[FeatureMatrix, FeatureMatrix, RawLabelMatrix]:
    """Seeded two-modality dataset: one uniform class per instance, Gaussian
    class centroids (well separated), plus isotropic noise of scale ``noise``.
    """
    check_synthetic_size(n, c)
    if d1 < 1 or d2 < 1:
        raise ValidationError(f"feature dimensions must be >= 1, got d1={d1}, d2={d2}")
    if not 0 <= noise < np.inf:
        raise ValidationError(f"noise scale must be >= 0 and finite, got {noise}")
    classes = component_rng(seed, "synth-classes").integers(0, c, size=n)
    mats = []
    for t, d in ((1, d1), (2, d2)):
        cent = _separated_centroids(component_rng(seed, f"synth-centroids-{t}"), c, d)
        x = cent[classes]
        if noise > 0:
            x = x + noise * component_rng(seed, f"synth-noise-{t}").standard_normal((n, d))
        mats.append(FeatureMatrix(x, modality_id=t))
    labels = np.zeros((c, n))
    labels[classes, np.arange(n)] = 1.0
    return mats[0], mats[1], RawLabelMatrix(labels)
