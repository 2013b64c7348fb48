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
from .blob import ARRANGE_NONE, CODEC_STORED, CompressedBlob, arrangement_code
from .policy import ErrorBoundPolicy

_STORED_POLICY = ErrorBoundPolicy(eb=1.0)


def stored_compress(m: MergedArray | Volume) -> CompressedBlob:
    if isinstance(m, Volume):
        arr = m.data
        arrangement = ARRANGE_NONE
        u, order, padded = 0, (), False
    elif isinstance(m, MergedArray):
        arr = m.values
        arrangement = arrangement_code(m.arrangement)
        u, order, padded = m.u, m.order, m.padded
    else:
        raise ShapeError(f"cannot store {type(m).__name__}")
    payload = arr.astype("<f8").tobytes()
    stream = (
        struct.pack("<Q", 0)  # literal count
        + struct.pack("<I", 0)  # empty table
        + struct.pack("<Q", len(payload))
        + payload
    )
    nz, ny, nx = arr.shape
    return CompressedBlob(
        codec=CODEC_STORED,
        dims=(nx, ny, nz),
        policy=_STORED_POLICY,
        arrangement=arrangement,
        padded=padded,
        u=u,
        order=order,
        stream=stream,
    )


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
    arr = arr.reshape(nz, ny, nx).astype(np.float64)
    if blob.arrangement == ARRANGE_NONE:
        return Volume(arr)
    return MergedArray(
        values=arr,
        order=blob.order,
        u=blob.u,
        arrangement=blob.arrangement_name,
        padded=blob.padded,
    )
