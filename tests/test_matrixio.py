import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from l0prune import InvalidInputError, gram_from_activations, read_matrix, write_matrix
from l0prune import matrixio
from l0prune.matrixio import read_row_blocks

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


def test_not_a_regular_file_rejected():
    with pytest.raises(InvalidInputError, match="is not a regular file"):
        read_matrix(os.devnull)


# --- reading in row blocks ---


def _streamed_gram(path):
    return gram_from_activations(read_row_blocks(path))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_gram_matches_one_product(tmp_path, monkeypatch, dtype):
    x = np.random.default_rng(6).standard_normal((103, 7))
    path = tmp_path / "x.amtx"
    write_matrix(path, x, dtype=dtype)
    m = read_matrix(path)
    whole = gram_from_activations(m)
    # Default blocks hold the whole file: the very bits of one product.
    assert _streamed_gram(path).tobytes() == whole.tobytes()
    # A block holds BLOCK_BYTES of float64 rows, but never fewer rows
    # than the matrix has columns.
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 16 * 7 * 8)
    assert [len(b) for b in read_row_blocks(path)] == [16] * 6 + [7]
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 5 * 7 * 8)
    assert [len(b) for b in read_row_blocks(path)] == [7] * 14 + [5]
    assert np.abs(_streamed_gram(path) - whole).max() <= 1e-12 * np.abs(whole).max()
    assert read_matrix(path).tobytes() == m.tobytes()


def _patched(offset, packed):
    def make(blob):
        blob[offset : offset + len(packed)] = packed
        return blob
    return make


MALFORMED = {
    "bad magic": (lambda b: b"XXXX" + b[4:], "bad magic b'XXXX'"),
    "empty": (lambda b: b"", "header needs 24 bytes, file has 0"),
    "short header": (lambda b: b[:10], "header needs 24 bytes, file has 10"),
    "version": (_patched(4, struct.pack("<H", 2)), "unsupported version 2"),
    "dtype code": (_patched(6, b"\x05"), "unknown dtype code 5"),
    "flags": (_patched(7, b"\x01"), "unsupported flags 0x1"),
    "zero rows": (_patched(8, struct.pack("<Q", 0)), "dimensions must be positive, got 0x3"),
    "truncated": (lambda b: b[:-3], "payload needs 288 bytes, file has 285"),
    "trailing": (lambda b: b + b"\x00", "1 trailing bytes after payload"),
    "nan first": (_patched(HEADER_SIZE, struct.pack("<d", math.nan)),
                  "payload contains non-finite values"),
    "inf last": (_patched(HEADER_SIZE + 280, struct.pack("<d", -math.inf)),
                 "payload contains non-finite values"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_streamed_reader_rejects_what_read_matrix_rejects(tmp_path, monkeypatch, case):
    edit, message = MALFORMED[case]
    path = tmp_path / "x.amtx"
    write_matrix(path, np.ones((12, 3)))
    path.write_bytes(bytes(edit(bytearray(path.read_bytes()))))
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 2 * 3 * 8)
    for read in (read_matrix, _streamed_gram):
        with pytest.raises(InvalidInputError) as info:
            read(path)
        assert str(info.value) == message


def test_float32_nan_in_last_block_rejected(tmp_path, monkeypatch):
    path = tmp_path / "x32.amtx"
    write_matrix(path, np.ones((12, 3)), dtype=np.float32)
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<f", math.nan)
    path.write_bytes(bytes(blob))
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 2 * 3 * 8)
    for read in (read_matrix, _streamed_gram):
        with pytest.raises(InvalidInputError, match="payload contains non-finite values"):
            read(path)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_streamed_gram_holds_blocks_not_rows(tmp_path, monkeypatch):
    # A tall float32 file: the Gram and its spare n x n buffer, one float64
    # block, and the float32 block it is widened from, against rows x n
    # float64 for the whole widened matrix.
    rows, n = 65536, 64
    path = tmp_path / "tall.amtx"
    x = np.random.default_rng(7).standard_normal((rows, n)).astype(np.float32)
    write_matrix(path, x, dtype=np.float32)
    del x
    block = 128 * n * 8
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", block)
    h, peak = _traced_peak(_streamed_gram, path)
    assert h.shape == (n, n)
    assert peak < 2 * n * n * 8 + 2 * block
    assert peak < rows * n * 8 / 50


def test_read_matrix_reads_into_its_result(tmp_path, monkeypatch):
    m = np.random.default_rng(8).standard_normal((512, 512))
    path = tmp_path / "m.amtx"
    write_matrix(path, m)
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 64 << 10)
    out, peak = _traced_peak(read_matrix, path)
    assert out.tobytes() == m.tobytes()
    assert peak < 1.1 * m.nbytes


@pytest.mark.parametrize("dtype, bound", [(np.float64, 0.2), (np.float32, 0.6)])
def test_write_matrix_copies_at_most_the_narrowed_payload(tmp_path, dtype, bound):
    # The finiteness check's mask is an eighth of the float64 payload; a
    # float32 write then holds its half-size cast, and no write holds a
    # bytes copy of the payload.
    m = np.random.default_rng(9).standard_normal((512, 512))
    path = tmp_path / "m.amtx"
    _, peak = _traced_peak(write_matrix, path, m, dtype)
    assert peak < bound * m.nbytes
    assert np.array_equal(read_matrix(path), m.astype(dtype))
