import math
import struct

import numpy as np
import pytest

from l0prune import InvalidInputError, read_matrix, write_matrix

HEADER_SIZE = 24


def test_round_trip_values(tmp_path):
    m = np.array([[1.5, -2.0], [0.0, 3.25], [1e-300, 1e300]])
    path = tmp_path / "m.amtx"
    write_matrix(path, m)
    out = read_matrix(path)
    assert out.dtype == np.float64
    assert np.array_equal(out, m)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "m.amtx"
    for trial in range(25):
        m = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        m *= 10.0 ** rng.integers(-200, 200)
        write_matrix(path, m)
        assert read_matrix(path).tobytes() == m.tobytes()


def test_one_by_one_file_is_32_bytes(tmp_path):
    path = tmp_path / "scalar.amtx"
    write_matrix(path, np.array([[7.5]]))
    assert path.stat().st_size == HEADER_SIZE + 8


def test_float32_widened_on_read(tmp_path):
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "m32.amtx"
    write_matrix(path, m, dtype=np.float32)
    out = read_matrix(path)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, m.astype(np.float32).astype(np.float64))


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(InvalidInputError):
        write_matrix(tmp_path / "x.amtx", np.ones((1, 1)), dtype=np.int32)


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(InvalidInputError):
        write_matrix(tmp_path / "x.amtx", np.array([[np.inf]]))


def test_write_rejects_float32_overflow(tmp_path):
    # Cast to float32, 1e39 would become inf, which read_matrix rejects.
    path = tmp_path / "x.amtx"
    with pytest.raises(InvalidInputError):
        write_matrix(path, np.array([[1.0, -1e39]]), dtype=np.float32)
    assert not path.exists()
    largest = float(np.finfo(np.float32).max)
    write_matrix(path, np.array([[largest, -largest]]), dtype=np.float32)
    np.testing.assert_array_equal(read_matrix(path), [[largest, -largest]])


def _valid_file(tmp_path, m=None):
    path = tmp_path / "v.amtx"
    write_matrix(path, np.array([[1.0, 2.0], [3.0, 4.0]]) if m is None else m)
    return path


def test_bad_magic(tmp_path):
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="bad magic"):
        read_matrix(path)


def test_empty_file_is_truncated(tmp_path):
    path = tmp_path / "empty.amtx"
    path.write_bytes(b"")
    with pytest.raises(InvalidInputError, match="header needs 24 bytes, file has 0"):
        read_matrix(path)


def test_truncated_header(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(InvalidInputError, match="header needs 24 bytes, file has 10"):
        read_matrix(path)


def test_truncated_payload(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(InvalidInputError, match="payload needs"):
        read_matrix(path)


def test_trailing_bytes_rejected(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(InvalidInputError, match="1 trailing bytes after payload"):
        read_matrix(path)


def test_unsupported_version(tmp_path):
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="unsupported version 2"):
        read_matrix(path)


def test_unknown_dtype_code(tmp_path):
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[6] = 5
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="unknown dtype code 5"):
        read_matrix(path)


def test_nonzero_flags_rejected(tmp_path):
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[7] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="unsupported flags 0x1"):
        read_matrix(path)


def test_zero_dimension_rejected(tmp_path):
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[8:16] = struct.pack("<Q", 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="dimensions must be positive"):
        read_matrix(path)


def test_nan_payload_rejected(tmp_path):
    # Writer refuses NaN, so patch a valid file's payload directly.
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE : HEADER_SIZE + 8] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="payload contains non-finite values"):
        read_matrix(path)
