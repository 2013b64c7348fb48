"""Verbatim (uncompressed) blob payloads.

ROI selection runs before compression, so its output container needs a way
to hold raw arrays in the same blob envelope. The stored codec puts the
values, little-endian in the array's scalar type (f32 or f64), directly in
the payload slot with an empty entropy table.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, ShapeError
from ..grid import scalar_array
from ..wire import Reader
from .entropy import LOSSLESS_NONE
from .policy import ErrorBoundPolicy

# the blob header has a policy slot; stored blobs carry this one there
STORED_POLICY = ErrorBoundPolicy(eb=1.0)

# the entropy stream head: literal count, an empty table, payload length
_HEAD = struct.Struct("<QIQ")


def stored_compress(arr: np.ndarray, policy: ErrorBoundPolicy, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Keep the (z, y, x) array ``arr`` verbatim: returns (stream, ``arr``
    when ``recon`` else None). ``policy`` bounds nothing here."""
    if lossless != LOSSLESS_NONE:
        raise ShapeError("stored blobs take no lossless pass")
    arr = scalar_array(arr)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return _HEAD.pack(0, 0, len(payload)) + payload, arr if recon else None


def stored_decompress(blob) -> np.ndarray:
    """The (z, y, x) array a stored blob holds, of the blob's type."""
    r = Reader(blob.stream)
    n_lit, n_sym, plen = r.take(_HEAD)
    nx, ny, nz = blob.dims
    if n_lit or n_sym:
        raise FormatError("stored blobs carry no entropy data")
    wire = blob.dtype.newbyteorder("<")
    if plen != nx * ny * nz * wire.itemsize or r.offset + plen != len(blob.stream):
        raise FormatError("stored payload does not match the blob dims")
    return r.array(wire, nx * ny * nz).reshape(nz, ny, nx).astype(blob.dtype)
