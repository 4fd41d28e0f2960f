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
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix

MAGIC = b"AMTX"
VERSION = 1
HEADER = struct.Struct("<4sHBBQQ")
DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_matrix(path, m, dtype=np.float64) -> None:
    """Write a matrix, defaulting to the lossless float64 encoding."""
    m = as_matrix(m, "matrix")
    np_dtype = np.dtype(dtype)
    codes = {v: k for k, v in DTYPE_CODES.items()}
    code = codes.get(np_dtype.newbyteorder("<"))
    if code is None:
        raise InvalidInputError(f"unsupported dtype {np_dtype}")
    if code == 0 and np.abs(m).max() > np.finfo(np.float32).max:
        raise InvalidInputError("matrix entries exceed the float32 range")
    header = HEADER.pack(MAGIC, VERSION, code, 0, m.shape[0], m.shape[1])
    payload = np.ascontiguousarray(m, dtype=DTYPE_CODES[code]).tobytes()
    Path(path).write_bytes(header + payload)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, returning float64 regardless of stored dtype."""
    blob = Path(path).read_bytes()
    if len(blob) >= 4 and blob[:4] != MAGIC:
        raise InvalidInputError(f"bad magic {blob[:4]!r}")
    if len(blob) < HEADER.size:
        raise InvalidInputError(
            f"header needs {HEADER.size} bytes, file has {len(blob)}"
        )
    _, version, code, flags, rows, cols = HEADER.unpack_from(blob)
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
    if len(blob) < expected:
        raise InvalidInputError(
            f"payload needs {expected - HEADER.size} bytes, "
            f"file has {len(blob) - HEADER.size}"
        )
    if len(blob) > expected:
        raise InvalidInputError(f"{len(blob) - expected} trailing bytes after payload")
    flat = np.frombuffer(blob, dtype=np_dtype, offset=HEADER.size)
    m = flat.reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("payload contains non-finite values")
    return m
