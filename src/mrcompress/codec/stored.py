"""Verbatim (uncompressed) blob payloads.

ROI selection runs before compression, so its output container needs a way
to hold raw arrays in the same blob envelope. The stored codec puts the
float64 values directly in the payload slot with an empty entropy table.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, ShapeError
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
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return _HEAD.pack(0, 0, len(payload)) + payload, arr if recon else None


def stored_decompress(blob) -> np.ndarray:
    """The (z, y, x) array a stored blob holds."""
    r = Reader(blob.stream)
    n_lit, n_sym, plen = r.take(_HEAD)
    nx, ny, nz = blob.dims
    if n_lit or n_sym:
        raise FormatError("stored blobs carry no entropy data")
    if plen != nx * ny * nz * 8 or r.offset + plen != len(blob.stream):
        raise FormatError("stored payload does not match the blob dims")
    return r.array("<f8", nx * ny * nz).reshape(nz, ny, nx).astype(np.float64)
