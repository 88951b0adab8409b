import os
import struct
import tracemalloc

import numpy as np
import pytest

from attnlab import tensorio
from attnlab.tensorio import (
    MAGIC,
    BlockReader,
    TensorFormatError,
    decode_tensor,
    encode_tensor,
    read_tensor,
    write_tensor,
)


def test_float_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for shape in ((), (5,), (3, 4), (2, 3, 4, 5)):
        a = rng.normal(size=shape)
        b = decode_tensor(encode_tensor(a))
        assert b.shape == a.shape
        assert b.dtype == np.float64
        np.testing.assert_array_equal(a, b)


def test_special_float_values_survive():
    a = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-308])
    b = decode_tensor(encode_tensor(a))
    assert np.array_equal(np.isnan(a), np.isnan(b))
    np.testing.assert_array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
    # -0.0 keeps its sign bit
    assert np.signbit(b[4])


def test_bool_round_trip():
    m = np.array([[True, False], [False, True], [True, True]])
    b = decode_tensor(encode_tensor(m))
    assert b.dtype == np.bool_
    np.testing.assert_array_equal(m, b)


def test_int_input_promotes_to_float64():
    b = decode_tensor(encode_tensor(np.array([1, 2, 3])))
    assert b.dtype == np.float64
    np.testing.assert_array_equal(b, [1.0, 2.0, 3.0])


def test_empty_array_round_trip():
    a = np.zeros((0, 4))
    b = decode_tensor(encode_tensor(a))
    assert b.shape == (0, 4)


def test_encoding_is_deterministic():
    a = np.linspace(0, 1, 12).reshape(3, 4)
    assert encode_tensor(a) == encode_tensor(a.copy())


def test_header_layout():
    buf = encode_tensor(np.zeros((2, 3)))
    assert buf[:4] == MAGIC
    assert struct.unpack("<I", buf[4:8])[0] == 1  # version
    assert buf[8] == 1  # float64 code
    assert struct.unpack("<I", buf[9:13])[0] == 2  # ndim
    assert struct.unpack("<QQ", buf[13:29]) == (2, 3)
    assert len(buf) == 29 + 6 * 8


# -- decode errors, each naming its byte offset --------------------------------


def test_bad_magic():
    with pytest.raises(TensorFormatError, match="bad magic at byte 0"):
        decode_tensor(b"NOPE" + b"\x00" * 20)


def test_truncated_magic():
    with pytest.raises(TensorFormatError, match="truncated magic at byte 0"):
        decode_tensor(b"AT")


def test_unsupported_version():
    buf = bytearray(encode_tensor(np.zeros(2)))
    buf[4:8] = struct.pack("<I", 9)
    with pytest.raises(TensorFormatError, match="unsupported version 9 at byte 4"):
        decode_tensor(bytes(buf))


def test_unknown_dtype_code():
    buf = bytearray(encode_tensor(np.zeros(2)))
    buf[8] = 7
    with pytest.raises(TensorFormatError, match="unknown dtype code 7 at byte 8"):
        decode_tensor(bytes(buf))


def test_ndim_limit():
    buf = bytearray(encode_tensor(np.zeros(2)))
    buf[9:13] = struct.pack("<I", 1000)
    with pytest.raises(TensorFormatError, match="ndim 1000 at byte 9"):
        decode_tensor(bytes(buf))


def test_truncated_dims():
    full = encode_tensor(np.zeros((2, 3)))
    with pytest.raises(TensorFormatError, match="truncated dim 1 at byte 21"):
        decode_tensor(full[:24])


def test_truncated_payload_names_offset():
    full = encode_tensor(np.zeros(4))  # header 21 bytes + 32 payload
    with pytest.raises(TensorFormatError, match="truncated payload at byte 21"):
        decode_tensor(full[:30])


def test_trailing_bytes_rejected():
    full = encode_tensor(np.zeros(2))
    with pytest.raises(TensorFormatError, match="trailing data"):
        decode_tensor(full + b"\x00")


def test_invalid_boolean_byte_offset():
    buf = bytearray(encode_tensor(np.array([True, False, True])))
    # payload starts at 4+4+1+4+8 = 21; corrupt the middle element
    buf[22] = 2
    with pytest.raises(TensorFormatError, match="invalid boolean byte 2 at byte 22"):
        decode_tensor(bytes(buf))


def test_tensor_format_error_is_value_error():
    assert issubclass(TensorFormatError, ValueError)


# -- file I/O -------------------------------------------------------------------


def test_write_read_file(tmp_path):
    path = tmp_path / "a.atnb"
    a = np.random.default_rng(1).normal(size=(4, 4))
    write_tensor(path, a)
    np.testing.assert_array_equal(read_tensor(path), a)


def test_read_malformed_file(tmp_path):
    path = tmp_path / "bad.atnb"
    path.write_bytes(b"garbage")
    with pytest.raises(TensorFormatError):
        read_tensor(path)


# -- block reader: decode_tensor's checks before any payload byte is read


def _write(tmp_path, buf):
    path = tmp_path / "t.atnb"
    path.write_bytes(buf)
    return path


def _decode_error(buf):
    with pytest.raises(TensorFormatError) as exc:
        decode_tensor(buf)
    return str(exc.value)


MALFORMED = pytest.mark.parametrize(
    "buf, message",
    [
        (b"NOPE" + b"\x00" * 20, "bad magic at byte 0"),
        (encode_tensor(np.zeros((2, 3)))[:24], "truncated dim 1 at byte 21: need 8 bytes, have 3"),
        (encode_tensor(np.zeros(4))[:30], "truncated payload at byte 21: need 32 bytes, have 9"),
        (encode_tensor(np.zeros(2)) + b"\x00", "trailing data at byte 37: 1 extra bytes"),
        (encode_tensor(np.zeros((2, 3, 3)))[:-1], "truncated payload at byte 37: need 144 bytes"),
    ],
    ids=["bad-magic", "truncated-dims", "truncated-payload", "trailing-data", "stack-one-byte-short"],
)


@MALFORMED
def test_block_reader_header_errors_match_decode_and_raise_on_open(tmp_path, buf, message):
    # Opening raises, so a truncated or padded file gives no partial result.
    with pytest.raises(TensorFormatError) as exc:
        BlockReader(_write(tmp_path, buf))
    assert str(exc.value) == _decode_error(buf)
    assert str(exc.value).startswith(message)


# -- row slabs: one slice's rows read into one reused buffer


@pytest.mark.parametrize("dtype", [np.float64, np.bool_], ids=["float64", "bool"])
def test_block_reader_slices_equal_read_tensor_bit_for_bit(tmp_path, monkeypatch, dtype):
    # Slabs of 2 rows: each slice of 5 rows reads as slabs of 2, 2 and 1.
    monkeypatch.setattr(tensorio, "_SLAB_BYTES", 2 * 3 * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5, 3))
    if dtype == np.bool_:
        a = a > 0
    else:
        a[0, 0, :] = [np.nan, -0.0, np.inf]
    path = tmp_path / "t.atnb"
    write_tensor(path, a)
    whole = read_tensor(path)
    with BlockReader(path) as reader:
        assert reader.shape == (4, 5, 3)
        assert reader.ndim == 3
        for l in range(4):
            slabs = [slab.copy() for slab in reader.row_slabs(l)]
            assert [len(slab) for slab in slabs] == [2, 2, 1]
            block = np.vstack(slabs)
            assert block.dtype == whole.dtype == dtype
            assert block.tobytes() == whole[l].tobytes()


def test_block_reader_zero_dim_has_no_slices(tmp_path):
    path = tmp_path / "t.atnb"
    write_tensor(path, np.float64(1.5))
    with BlockReader(path) as reader:
        assert reader.ndim == 0
        with pytest.raises(ValueError, match="a 0-d tensor has no rows"):
            next(reader.row_slabs(0))


def test_row_slabs_invalid_boolean_byte_in_a_later_slab(tmp_path, monkeypatch):
    # payload starts at 4+4+1+4+3*8 = 37 and slice 1 at 37+36 = 73; it reads
    # as slabs of 2 rows (12 bytes), so its second slab starts at byte 85.
    monkeypatch.setattr(tensorio, "_SLAB_BYTES", 12)
    buf = bytearray(encode_tensor(np.ones((2, 6, 6), dtype=bool)))
    buf[87] = 5
    with BlockReader(_write(tmp_path, bytes(buf))) as reader:
        slabs = reader.row_slabs(1)
        assert next(slabs).all()
        with pytest.raises(TensorFormatError) as exc:
            next(slabs)
    assert str(exc.value) == _decode_error(bytes(buf)) == "invalid boolean byte 5 at byte 87"


def test_row_slabs_file_shrunk_after_open(tmp_path, monkeypatch):
    # payload starts at byte 37; slice 1 starts at 37 + 4*4*8 = 165 and reads
    # as slabs of 3 rows (96 bytes) and 1 row; cut the file inside the second.
    monkeypatch.setattr(tensorio, "_SLAB_BYTES", 3 * 32)
    path = tmp_path / "t.atnb"
    write_tensor(path, np.arange(32.0).reshape(2, 4, 4))
    with BlockReader(path) as reader:
        slabs = reader.row_slabs(1)
        np.testing.assert_array_equal(next(slabs), np.arange(16.0, 28.0).reshape(3, 4))
        os.truncate(path, 165 + 96 + 20)
        with pytest.raises(TensorFormatError, match="^truncated payload at byte 261: need 32 bytes, have 20$"):
            next(slabs)


def test_row_slabs_edges(tmp_path):
    path = tmp_path / "t.atnb"
    write_tensor(path, np.zeros((2, 0, 3)))
    with BlockReader(path) as reader:
        assert reader.shape == (2, 0, 3)
        assert list(reader.row_slabs(1)) == []
        with pytest.raises(ValueError, match=r"^l must be an integer in 0\.\.1, got 2$"):
            next(reader.row_slabs(2))
    write_tensor(path, np.zeros(3))
    with BlockReader(path) as reader:
        with pytest.raises(ValueError, match="a 1-d tensor has no rows"):
            next(reader.row_slabs(0))


# -- read_tensor: the header checked against the file size, then one read


@MALFORMED
def test_read_tensor_errors_match_decode(tmp_path, buf, message):
    with pytest.raises(TensorFormatError) as exc:
        read_tensor(_write(tmp_path, buf))
    assert str(exc.value) == _decode_error(buf)
    assert str(exc.value).startswith(message)


def test_read_tensor_invalid_boolean_byte_matches_decode(tmp_path):
    buf = bytearray(encode_tensor(np.ones((2, 3), dtype=bool)))
    buf[29 + 4] = 7
    with pytest.raises(TensorFormatError) as exc:
        read_tensor(_write(tmp_path, bytes(buf)))
    assert str(exc.value) == _decode_error(bytes(buf)) == "invalid boolean byte 7 at byte 33"


@pytest.mark.parametrize(
    "array",
    [
        np.array([[np.nan, -0.0, np.inf], [1.5, -np.inf, 5e-324]]),
        np.random.default_rng(4).normal(size=(3, 2, 4)) > 0,
        np.float64(2.5),
        np.zeros((0, 3)),
    ],
    ids=["float64", "bool", "0-d", "zero-length"],
)
def test_read_tensor_equals_decode_bit_for_bit(tmp_path, array):
    path = tmp_path / "t.atnb"
    write_tensor(path, array)
    got = read_tensor(path)
    want = decode_tensor(path.read_bytes())
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.flags.c_contiguous


def test_read_tensor_holds_the_array_once(tmp_path):
    # A 4 MiB array: reading the file as bytes and then decoding a copy of
    # them peaks at twice its size; one read into the array peaks at once.
    path = tmp_path / "stack.atnb"
    write_tensor(path, np.random.default_rng(9).random(size=(8, 256, 256)))
    nbytes = 8 * 256 * 256 * 8
    tracemalloc.start()
    try:
        a = read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.nbytes == nbytes
    assert peak < 1.5 * nbytes
