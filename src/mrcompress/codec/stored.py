"""Verbatim (uncompressed) blob payloads.

ROI selection runs before compression, so its output container needs a way
to hold raw arrays in the same blob envelope. The stored codec puts the
float64 values directly in the payload slot with an empty entropy table.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, ShapeError
from .entropy import LOSSLESS_NONE
from .policy import ErrorBoundPolicy

# the blob header has a policy slot; stored blobs carry this one there
STORED_POLICY = ErrorBoundPolicy(eb=1.0)


def stored_compress(arr: np.ndarray, policy: ErrorBoundPolicy, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Keep the (z, y, x) array ``arr`` verbatim: returns (stream, ``arr``
    when ``recon`` else None). ``policy`` bounds nothing here."""
    if lossless != LOSSLESS_NONE:
        raise ShapeError("stored blobs take no lossless pass")
    payload = arr.astype("<f8").tobytes()
    stream = (
        struct.pack("<Q", 0)  # literal count
        + struct.pack("<I", 0)  # empty table
        + struct.pack("<Q", len(payload))
        + payload
    )
    return stream, arr if recon else None


def stored_decompress(blob) -> np.ndarray:
    """The (z, y, x) array a stored blob holds."""
    buf = blob.stream
    nx, ny, nz = blob.dims
    if len(buf) != 20 + nx * ny * nz * 8:
        raise FormatError("stored payload does not match the blob dims")
    n_lit, n_sym, plen = struct.unpack_from("<QIQ", buf, 0)
    if n_lit or n_sym:
        raise FormatError("stored blobs carry no entropy data")
    if plen != nx * ny * nz * 8:
        raise FormatError("stored payload does not match the blob dims")
    arr = np.frombuffer(buf, dtype="<f8", count=nx * ny * nz, offset=20)
    return arr.reshape(nz, ny, nx).astype(np.float64)
