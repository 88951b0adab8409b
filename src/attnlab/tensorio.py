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
trailing bytes fail before any payload byte is read. It then reads one
slice's rows as slabs of at most 512 KiB, one after another into one reused
buffer, so a large stack is never held whole and a slab is still in cache
when it is reduced; or (for ``read_tensor``) the whole payload with one
read, so the array is held once. Both fill their array through one helper,
so a file that shrank after it was opened and a bad boolean byte each raise
one message, with absolute offsets.
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
# BlockReader.row_slabs reads at most this many bytes a slab (but at least one
# row), so a slab is still in L2 when it is reduced. Scoring a 16 x 1024 x 1024
# stack on a 2 MiB-L2 Xeon, 512 KiB beat slabs of 128 KiB to 2 MiB.
_SLAB_BYTES = 1 << 19


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
    """An ATNB file read one slice's rows at a time, or whole.

    Opening the file runs every check of ``decode_tensor`` that the header
    and the file size (from ``fstat``) allow: magic, version, dtype code,
    ndim, dims, a truncated payload and trailing bytes all raise before a
    single payload byte is read. :meth:`row_slabs` reads one slice's rows in
    slabs of a reused buffer, and :meth:`read` the whole array into a fresh
    one. Boolean data keeps the 0/1 byte check, and its error names the
    absolute byte offset. Use it as a context manager so that the file is
    closed.
    """

    def __init__(self, path):
        # Unbuffered, so every read goes to the file: a buffer would keep
        # bytes read ahead even after the file shrank.
        self._file = open(path, "rb", buffering=0)
        self._slab = None
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

    def _read_into(self, offset: int, raw: np.ndarray) -> np.ndarray:
        """Fill ``raw``, a flat array of the payload's dtype, from file byte ``offset``.

        Every read of the reader comes here, so this holds its one check for
        a file that shrank after it was opened and its one boolean-byte
        check, each naming absolute offsets. Returns ``raw`` as float64, or a
        fresh boolean array.
        """
        self._file.seek(offset)
        view = memoryview(raw).cast("B")
        got = 0
        while got < view.nbytes:  # one read returns at most about 2 GiB
            n = self._file.readinto(view[got:])
            if not n:
                break
            got += n
        if got != raw.nbytes:  # the file shrank after it was opened
            raise TensorFormatError(
                f"truncated payload at byte {offset}: need {raw.nbytes} bytes, have {got}"
            )
        if self._header.code == DTYPE_FLOAT64:
            return raw.astype(np.float64, copy=False)
        return _bools(raw, offset)

    def row_slabs(self, l: int):
        """Slice ``l``'s rows, in order, as slabs of one buffer the reader reuses.

        A slab holds as many whole rows (entries of the second axis) as fit in
        ``_SLAB_BYTES``, and at least one; stacked, the slabs equal
        ``read_tensor(path)[l]``. The next slab read, from any slice,
        overwrites the last one, so copy a slab to keep it. Reads and errors
        are those of :meth:`read`, with each slab's absolute offset.
        """
        h = self._header
        if len(h.dims) < 2:
            raise ValueError(f"a {len(h.dims)}-d tensor has no rows to read slabs of")
        if not 0 <= l < h.dims[0]:
            raise IndexError(f"slice {l} out of range for {h.dims[0]} slices")
        rows, row_shape = h.dims[1], h.dims[2:]
        row_size = math.prod(row_shape)
        row_bytes = row_size * h.dtype.itemsize
        per_slab = max(1, min(rows, _SLAB_BYTES // max(row_bytes, 1)))
        if self._slab is None:
            self._slab = np.empty(per_slab * row_size, dtype=h.dtype)
        start = h.payload_offset + l * rows * row_bytes
        for i in range(0, rows, per_slab):
            r = min(per_slab, rows - i)
            raw = self._read_into(start + i * row_bytes, self._slab[: r * row_size])
            yield raw.reshape((r, *row_shape))

    def read(self) -> np.ndarray:
        """The whole array, equal to ``decode_tensor`` of the file's bytes."""
        h = self._header
        raw = np.empty(math.prod(h.dims), dtype=h.dtype)
        return self._read_into(h.payload_offset, raw).reshape(h.dims)

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
