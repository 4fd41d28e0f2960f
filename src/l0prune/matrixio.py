"""Binary matrix file format.

Layout, all multi-byte fields little-endian:

    offset  size  field
    0       4     magic bytes 'AMTX'
    4       2     format version, currently 1
    6       1     element dtype: 0 = float32, 1 = float64
    7       1     flags, must be 0
    8       8     rows (unsigned)
    16      8     cols (unsigned)
    24      -     payload, rows*cols elements in row-major order

float64 payloads round-trip bit-identically; float32 files are widened
to float64 on read. Payloads with NaN or infinite entries are rejected.

Both readers check the header and the file size before any payload is
read, then read the payload in blocks of rows, BLOCK_BYTES of float64
each (at least one row, and for `read_row_blocks` at least one row per
column). A block is read with `readinto` into a buffer of the stored
dtype that is reused from block to block, checked for finiteness in that
dtype (its max and min, which propagate NaN), and only then widened.
`read_matrix` reads a float64 payload straight into its result.
`read_row_blocks` yields the widened blocks one at a time, so a consumer
such as `linalg.gram_from_activations` never holds the whole matrix in
float64.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix

MAGIC = b"AMTX"
VERSION = 1
HEADER = struct.Struct("<4sHBBQQ")
DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
BLOCK_BYTES = 8 << 20


def write_matrix(path, m, dtype=np.float64) -> None:
    """Write a matrix, defaulting to the lossless float64 encoding."""
    m = as_matrix(m, "matrix")
    np_dtype = np.dtype(dtype)
    codes = {v: k for k, v in DTYPE_CODES.items()}
    code = codes.get(np_dtype.newbyteorder("<"))
    if code is None:
        raise InvalidInputError(f"unsupported dtype {np_dtype}")
    if code == 0 and max(m.max(), -m.min()) > np.finfo(np.float32).max:
        raise InvalidInputError("matrix entries exceed the float32 range")
    header = HEADER.pack(MAGIC, VERSION, code, 0, m.shape[0], m.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(m, dtype=DTYPE_CODES[code]))


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, returning float64 regardless of stored dtype."""
    with open(path, "rb") as fh:
        dtype, rows, cols = _read_header(fh)
        step = _block_rows(cols)
        m = np.empty((rows, cols))
        staging = _staging(dtype, min(step, rows), cols)
        for start in range(0, rows, step):
            _read_rows(fh, m[start : start + step], staging)
    return m


def read_row_blocks(path):
    """Yield a matrix file's rows as float64 blocks.

    A block holds BLOCK_BYTES of rows, or n rows for n columns if that is
    more: a Gram pays an n x n product and add per block, so a thinner
    block costs as much as an n-row one. Each block is checked as
    `read_matrix` checks the whole payload, and the header and size checks
    run before the first block is read. Every block reuses one buffer, so
    a block is valid until the next is drawn.
    """
    with open(path, "rb") as fh:
        dtype, rows, cols = _read_header(fh)
        step = max(_block_rows(cols), cols)
        wide = np.empty((min(step, rows), cols))
        staging = _staging(dtype, *wide.shape)
        for start in range(0, rows, step):
            block = wide[: min(step, rows - start)]
            _read_rows(fh, block, staging)
            yield block


def _read_header(fh) -> tuple[np.dtype, int, int]:
    """Check an open file's header and size; return (stored dtype, rows, cols)."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        raise InvalidInputError(f"{fh.name} is not a regular file")
    size = info.st_size
    head = fh.read(HEADER.size)
    if len(head) >= 4 and head[:4] != MAGIC:
        raise InvalidInputError(f"bad magic {head[:4]!r}")
    if len(head) < HEADER.size:
        raise InvalidInputError(f"header needs {HEADER.size} bytes, file has {size}")
    _, version, code, flags, rows, cols = HEADER.unpack(head)
    if version != VERSION:
        raise InvalidInputError(f"unsupported version {version}")
    if code not in DTYPE_CODES:
        raise InvalidInputError(f"unknown dtype code {code}")
    if flags != 0:
        raise InvalidInputError(f"unsupported flags {flags:#x}")
    if rows < 1 or cols < 1:
        raise InvalidInputError(f"dimensions must be positive, got {rows}x{cols}")
    np_dtype = DTYPE_CODES[code]
    expected = HEADER.size + rows * cols * np_dtype.itemsize
    if size < expected:
        raise InvalidInputError(
            f"payload needs {expected - HEADER.size} bytes, "
            f"file has {size - HEADER.size}"
        )
    if size > expected:
        raise InvalidInputError(f"{size - expected} trailing bytes after payload")
    return np_dtype, rows, cols


def _block_rows(cols: int) -> int:
    """Rows per block: BLOCK_BYTES of float64, and at least one row."""
    return max(1, BLOCK_BYTES // (8 * cols))


def _staging(dtype: np.dtype, rows: int, cols: int) -> np.ndarray | None:
    """The stored-dtype buffer a float32 block is read into; float64 needs none."""
    return None if dtype.itemsize == 8 else np.empty((rows, cols), dtype)


def _read_rows(fh, dest: np.ndarray, staging: np.ndarray | None) -> None:
    """Fill dest's rows from the file, checked, through staging if it is given."""
    raw = dest if staging is None else staging[: len(dest)]
    if fh.readinto(raw) != raw.nbytes:
        raise InvalidInputError("file ended inside its payload")
    # Unlike an isfinite mask, max and min allocate nothing block-sized.
    if not (np.isfinite(raw.max()) and np.isfinite(raw.min())):
        raise InvalidInputError("payload contains non-finite values")
    if raw is not dest:
        np.copyto(dest, raw)
