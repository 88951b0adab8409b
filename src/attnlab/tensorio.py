"""ATNB binary tensor files: a tiny bit-exact container for float64/bool arrays.

Layout (all integers little-endian):

    offset 0   magic          4 bytes  b"ATNB"
    offset 4   version        u32      currently 1
    offset 8   dtype code     u8       1 = float64, 2 = boolean byte (0/1)
    offset 9   ndim           u32
    offset 13  dims           ndim x u64
    then       payload        row-major, little-endian; 8 bytes/element for
                              float64, 1 byte/element for boolean

The payload length must match the declared dims exactly — no trailing bytes.
Every decode error names the byte offset where the problem sits.

One header parser serves every reader. ``decode_tensor`` parses bytes
already in memory. ``BlockReader`` opens a file, runs every header check and
compares the file size with the declared dims, so a truncated file or
trailing bytes fail before any payload byte is read. It then reads the file
one slice of its leading axis at a time, so a large stack is never held
whole, or (for ``read_tensor``) the whole payload with one ``np.fromfile``,
so the array is held once. Boolean bytes are checked as they are read, with
absolute offsets.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"ATNB"
VERSION = 1
DTYPE_FLOAT64 = 1
DTYPE_BOOL = 2
# Sanity cap; a corrupt ndim field must not drive a giant dims read.
_MAX_NDIM = 32
# The longest header: magic, version, dtype code, ndim and _MAX_NDIM dims.
_MAX_HEADER_BYTES = 13 + 8 * _MAX_NDIM


class TensorFormatError(ValueError):
    """Malformed ATNB bytes; the message names the offending byte offset."""


def encode_tensor(array) -> bytes:
    """Serialize a float64 or boolean array to ATNB bytes."""
    a = np.asarray(array)
    if a.dtype == np.bool_:
        code = DTYPE_BOOL
        payload = np.ascontiguousarray(a, dtype=np.uint8).tobytes()
    else:
        a = np.asarray(a, dtype=np.float64)
        code = DTYPE_FLOAT64
        payload = np.ascontiguousarray(a, dtype="<f8").tobytes()
    header = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<B", code)
        + struct.pack("<I", a.ndim)
        + b"".join(struct.pack("<Q", d) for d in a.shape)
    )
    return header + payload


@dataclass(frozen=True)
class _Header:
    code: int
    dims: tuple[int, ...]
    payload_offset: int

    @property
    def dtype(self) -> np.dtype:
        """The payload's element type as stored."""
        return np.dtype("<f8" if self.code == DTYPE_FLOAT64 else "u1")


def _parse_header(head: bytes, size: int) -> _Header:
    """Check the header of a ``size``-byte ATNB buffer that starts with ``head``.

    ``head`` holds the buffer's first min(size, _MAX_HEADER_BYTES) bytes or
    more. Every field is checked, and so is the payload length against
    ``size``: a short payload or trailing bytes raise here, before any
    payload byte is read.
    """
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > size:
            raise TensorFormatError(
                f"truncated {what} at byte {offset}: need {n} bytes, have {size - offset}"
            )
        offset += n
        return head[offset - n : offset]

    magic = take(4, "magic")
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic at byte 0: {magic!r} != {MAGIC!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version} at byte 4")
    (code,) = struct.unpack("<B", take(1, "dtype code"))
    if code not in (DTYPE_FLOAT64, DTYPE_BOOL):
        raise TensorFormatError(f"unknown dtype code {code} at byte 8")
    (ndim,) = struct.unpack("<I", take(4, "ndim"))
    if ndim > _MAX_NDIM:
        raise TensorFormatError(f"ndim {ndim} at byte 9 exceeds limit {_MAX_NDIM}")
    dims = tuple(int(struct.unpack("<Q", take(8, f"dim {i}"))[0]) for i in range(ndim))
    header = _Header(code, dims, offset)
    take(math.prod(dims) * header.dtype.itemsize, "payload")
    if offset != size:
        raise TensorFormatError(
            f"trailing data at byte {offset}: {size - offset} extra bytes"
        )
    return header


def _bools(raw: np.ndarray, offset: int) -> np.ndarray:
    """Boolean array from payload bytes read from byte ``offset``; each must be 0 or 1."""
    bad = np.flatnonzero(raw > 1)
    if bad.size:
        i = int(bad[0])
        raise TensorFormatError(f"invalid boolean byte {raw[i]} at byte {offset + i}")
    return raw == 1


def decode_tensor(buf: bytes) -> np.ndarray:
    """Parse ATNB bytes back into an array; strict about every field."""
    h = _parse_header(buf, len(buf))
    raw = np.frombuffer(buf, dtype=h.dtype, count=math.prod(h.dims), offset=h.payload_offset)
    if h.code == DTYPE_FLOAT64:
        return raw.astype(np.float64).reshape(h.dims)
    return _bools(raw, h.payload_offset).reshape(h.dims)


class BlockReader:
    """An ATNB file read one slice of its leading axis at a time, or whole.

    Opening the file runs every check of ``decode_tensor`` that the header
    and the file size (from ``fstat``) allow: magic, version, dtype code,
    ndim, dims, a truncated payload and trailing bytes all raise before a
    single payload byte is read. Iterating reads each slice with
    ``np.fromfile`` into a fresh array equal to ``read_tensor(path)[l]``;
    :meth:`read` reads the whole array the same way. Boolean data keeps the
    0/1 byte check, and its error names the absolute byte offset. Use it as a
    context manager so that the file is closed.
    """

    def __init__(self, path):
        self._file = open(path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            self._header = _parse_header(self._file.read(_MAX_HEADER_BYTES), size)
        except BaseException:
            self._file.close()
            raise

    @property
    def shape(self) -> tuple[int, ...]:
        return self._header.dims

    @property
    def ndim(self) -> int:
        return len(self._header.dims)

    def _read_at(self, offset: int, shape: tuple[int, ...]) -> np.ndarray:
        """The array of ``shape`` whose payload starts at file byte ``offset``."""
        h = self._header
        count = math.prod(shape)
        self._file.seek(offset)
        raw = np.fromfile(self._file, dtype=h.dtype, count=count)
        if raw.size != count:  # the file shrank after it was opened
            raise TensorFormatError(
                f"truncated payload at byte {offset}: need {count * raw.itemsize} bytes, "
                f"have {raw.size * raw.itemsize}"
            )
        if h.code == DTYPE_FLOAT64:
            return raw.astype(np.float64, copy=False).reshape(shape)
        return _bools(raw, offset).reshape(shape)

    def __iter__(self):
        h = self._header
        if not h.dims:
            raise ValueError("a 0-d tensor has no leading axis to read slices of")
        step = math.prod(h.dims[1:]) * h.dtype.itemsize
        for l in range(h.dims[0]):
            yield self._read_at(h.payload_offset + l * step, h.dims[1:])

    def read(self) -> np.ndarray:
        """The whole array, equal to ``decode_tensor`` of the file's bytes."""
        return self._read_at(self._header.payload_offset, self._header.dims)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "BlockReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_tensor(path, array) -> None:
    """Write an array to ``path`` in ATNB format."""
    data = encode_tensor(array)
    with open(path, "wb") as f:
        f.write(data)


def read_tensor(path) -> np.ndarray:
    """Read an ATNB file; raises TensorFormatError on malformed content.

    The header is checked against the file size first, then the payload is
    read straight into the returned array, so the file is never held as bytes.
    """
    with BlockReader(path) as reader:
        return reader.read()
