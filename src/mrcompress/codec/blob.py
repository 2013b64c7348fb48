"""Self-describing byte format for one compressed array.

Layout, all little-endian:

    magic "MRB2"
    codec id            u8   (the codec's position in ``CODECS``; high bit
                              set when the zlib pass ran; id 2, the
                              closed-loop block codec, is retired)
    dims                3x u64 (nx, ny, nz of the encoded array)
    eb                  f64
    adaptive            u8   (0 or 1)
    alpha               f64
    beta                f64
    arrangement         u8   (the layout's position in ``ARRANGEMENTS``)
    padded              u8   (0 or 1)
    u                   u32  (unit size; 0 when arrangement is none)
    block count         u64  (k; 0 when arrangement is none)
    stream length       u64  (bytes of the entropy stream that follows)
    entropy stream:
      literal count     u64
      Huffman table     u32 symbol count, i32 symbols, u8 code lengths
      payload length    u64
      payload           bitstream, then the literal values; optionally
                        deflated by zlib as a whole
    bitstream:
      lane table        u16 bit length per lane of ``LANE_CODES`` codes
                        (the lane count follows from the number of values)
      lanes             each lane's codes MSB-first, zero-padded to a byte

The blob does not record its scalar type. It is the container head's
scalar width, 4 (f32) or 8 (f64), held as ``CompressedBlob.dtype``: the
width of a stored blob's values and of the interp codec's literals. The
block codec's literals are f64 at either width (see
:mod:`~mrcompress.codec.lorenzo`).

A blob is read only inside an ``MRC2`` container (:mod:`mrcompress.container`).
There a tiled blob's k blocks are the ones its level's occupancy bitmap
sets, in block-index order, so the blob holds no block positions; a
whole-volume blob has u = 0 and k = 0.
The fixed fields from magic through block count are one
``struct.Struct`` (``_HEADER``), which both the writer and the reader use;
the reader goes through :class:`~mrcompress.wire.Reader`.
The stream length lets a reader find the end of the blob without parsing
the entropy stream. Stored blobs put the raw values in the
payload slot behind an empty table, so they have no bitstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, ShapeError
from ..grid import Dims, Volume
from ..layout import LINEAR, STACKED, MergedArray, check_merge
from ..wire import U64, Reader
from .entropy import LOSSLESS_NONE, LOSSLESS_ZLIB
from .policy import ErrorBoundPolicy

MAGIC = b"MRB2"

# the wire byte of a codec or an arrangement is its position here; None
# marks a retired id, which no blob carries
CODECS = ("stored", "interp", None, "block")
ARRANGEMENTS = (None, LINEAR, STACKED)  # None: a whole volume
_ZLIB_FLAG = 0x80
SCALAR_TYPES = (np.dtype(np.float32), np.dtype(np.float64))

# magic through block count; the stream length and the stream follow
_HEADER = struct.Struct("<4sB3QdBddBBIQ")


@dataclass(frozen=True)
class CompressedBlob:
    codec: int  # position in CODECS
    dims: Dims  # of the encoded array, padding included
    policy: ErrorBoundPolicy
    arrangement: str | None  # an entry of ARRANGEMENTS
    padded: bool
    u: int
    k: int  # block count; 0 for a whole volume
    stream: bytes  # entropy stream: literal count, table, payload
    lossless: str = LOSSLESS_NONE
    dtype: np.dtype = np.dtype(np.float64)  # of the encoded array; the container records it

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dtype not in SCALAR_TYPES:
            raise ShapeError(f"unsupported scalar type {self.dtype}")
        if self.codec not in range(len(CODECS)) or CODECS[self.codec] is None:
            raise ShapeError(f"unknown codec id {self.codec}")
        if self.arrangement not in ARRANGEMENTS:
            raise ShapeError(f"unknown arrangement {self.arrangement!r}")
        if self.lossless not in (LOSSLESS_NONE, LOSSLESS_ZLIB):
            raise ShapeError(f"unknown lossless pass {self.lossless!r}")

    @property
    def codec_name(self) -> str:
        return CODECS[self.codec]

    @property
    def n_values(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def original_bytes(self) -> int:
        """Float64 size of the data the blob stands for: its k u-blocks, or
        the whole volume. Padding layers and filler slots do not count."""
        return 8 * (self.k * self.u**3 if self.u else self.n_values)

    def to_bytes(self) -> bytes:
        p = self.policy
        codec_byte = self.codec | (_ZLIB_FLAG if self.lossless == LOSSLESS_ZLIB else 0)
        head = _HEADER.pack(
            MAGIC, codec_byte, *self.dims, p.eb, p.adaptive, p.alpha, p.beta,
            ARRANGEMENTS.index(self.arrangement), self.padded, self.u, self.k,
        )
        return head + U64.pack(len(self.stream)) + self.stream

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int = 0, dtype=np.float64) -> tuple["CompressedBlob", int]:
        """The blob at ``offset`` of ``buf``, of the scalar type ``dtype``
        its container records, and the offset after it."""
        r = Reader(buf, offset)
        (magic, codec_byte, nx, ny, nz, eb, adaptive, alpha, beta,
         arrangement, padded, u, k) = r.take(_HEADER)
        if magic != MAGIC:
            raise FormatError("bad blob magic")
        (stream_len,) = r.take(U64)
        stream = r.bytes(stream_len)
        if min(nx, ny, nz) < 1:
            raise FormatError(f"blob dims must be positive, got ({nx}, {ny}, {nz})")
        lossless = LOSSLESS_ZLIB if codec_byte & _ZLIB_FLAG else LOSSLESS_NONE
        codec = codec_byte & ~_ZLIB_FLAG
        if codec >= len(CODECS) or CODECS[codec] is None:
            raise FormatError(f"unknown codec id {codec}")
        if arrangement >= len(ARRANGEMENTS):
            raise FormatError(f"unknown arrangement {arrangement}")
        if adaptive > 1 or padded > 1:
            raise FormatError("a blob flag byte is neither 0 nor 1")
        if arrangement == 0 and (u or k or padded):
            raise FormatError("a whole-volume blob carries a block layout")
        try:
            if arrangement:
                check_merge((nx, ny, nz), k, u, ARRANGEMENTS[arrangement], bool(padded))
            policy = ErrorBoundPolicy(eb=eb, adaptive=bool(adaptive), alpha=alpha, beta=beta)
        except ShapeError as exc:
            raise FormatError(f"blob carries an invalid layout or policy: {exc}") from exc
        blob = cls(codec=codec, dims=(nx, ny, nz), policy=policy, arrangement=ARRANGEMENTS[arrangement],
                   padded=bool(padded), u=u, k=k, stream=stream, lossless=lossless, dtype=dtype)
        return blob, r.offset

    def size_bytes(self) -> int:
        return len(self.to_bytes())


def unwrap(m: MergedArray | Volume) -> tuple[np.ndarray, dict]:
    """The (z, y, x) array of ``m`` and the blob fields of its shape,
    layout and scalar type."""
    if isinstance(m, Volume):
        arr, fields = m.data, dict(arrangement=None, padded=False, u=0, k=0)
    elif isinstance(m, MergedArray):
        arr, fields = m.values, dict(arrangement=m.arrangement, padded=m.padded, u=m.u, k=m.k)
    else:
        raise ShapeError(f"cannot compress {type(m).__name__}")
    return arr, dict(fields, dims=arr.shape[::-1], dtype=arr.dtype)
