"""Verbatim (uncompressed) blob payloads.

ROI selection runs before compression, so its output container needs a way
to hold raw arrays in the same blob envelope. Codec id 0 stores the float64
values directly in the payload slot with an empty entropy table.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, ShapeError
from ..grid import Volume
from ..layout import MergedArray
from .blob import CODEC_STORED, CompressedBlob, unwrap
from .policy import ErrorBoundPolicy

_STORED_POLICY = ErrorBoundPolicy(eb=1.0)


def stored_compress(m: MergedArray | Volume) -> CompressedBlob:
    arr, fields = unwrap(m)
    payload = arr.astype("<f8").tobytes()
    stream = (
        struct.pack("<Q", 0)  # literal count
        + struct.pack("<I", 0)  # empty table
        + struct.pack("<Q", len(payload))
        + payload
    )
    return CompressedBlob(codec=CODEC_STORED, policy=_STORED_POLICY, stream=stream, **fields)


def stored_decompress(blob: CompressedBlob) -> MergedArray | Volume:
    if blob.codec != CODEC_STORED:
        raise ShapeError(f"blob holds codec {blob.codec}, not stored")
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
    return blob.wrap(arr.reshape(nz, ny, nx).astype(np.float64))
