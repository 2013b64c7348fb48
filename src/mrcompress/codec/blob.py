"""Self-describing byte format for one compressed array.

Layout, all little-endian:

    magic "MRB2"
    codec id            u8   (the codec's position in ``CODECS``; high bit
                              set when the zlib pass ran)
    dims                3x u64 (nx, ny, nz of the encoded array)
    eb                  f64
    adaptive            u8
    alpha               f64
    beta                f64
    arrangement         u8   (the layout's position in ``ARRANGEMENTS``)
    padded              u8
    u                   u32  (unit size; 0 when arrangement is none)
    block-order count   u64, then per block bx, by, bz as u64 triples
    stream length       u64  (bytes of the entropy stream that follows)
    entropy stream:
      literal count     u64
      Huffman table     u32 symbol count, i32 symbols, u8 code lengths
      payload length    u64
      payload           bitstream, then the literal f64 values; optionally
                        zlib-compressed as a whole
    bitstream:
      lane table        u16 bit length per lane of ``LANE_CODES`` codes
                        (the lane count follows from the number of values)
      lanes             each lane's codes MSB-first, zero-padded to a byte

The fixed fields from magic through block-order count are one
``struct.Struct`` (``_HEADER``), which both the writer and the reader use.
The stream length lets a reader find the end of the blob without parsing
the entropy stream. Stored blobs put the raw f64 values in the
payload slot behind an empty table, so they have no bitstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, ShapeError
from ..grid import BlockCoord, Dims, Volume
from ..layout import LINEAR, STACKED, MergedArray
from .entropy import LOSSLESS_NONE, LOSSLESS_ZLIB
from .policy import ErrorBoundPolicy

MAGIC = b"MRB2"

# the wire byte of a codec or an arrangement is its position here
CODECS = ("stored", "interp", "block")
ARRANGEMENTS = (None, LINEAR, STACKED)  # None: a whole volume
_ZLIB_FLAG = 0x80

# magic through block count; the block table, the stream length and the
# stream follow
_HEADER = struct.Struct("<4sB3QdBddBBIQ")


@dataclass(frozen=True)
class CompressedBlob:
    codec: int  # position in CODECS
    dims: Dims  # of the encoded array, padding included
    policy: ErrorBoundPolicy
    arrangement: str | None  # an entry of ARRANGEMENTS
    padded: bool
    u: int
    order: tuple[BlockCoord, ...]
    stream: bytes  # entropy stream: literal count, table, payload
    lossless: str = LOSSLESS_NONE

    def __post_init__(self):
        if self.codec not in range(len(CODECS)):
            raise ShapeError(f"unknown codec id {self.codec}")
        if self.arrangement not in ARRANGEMENTS:
            raise ShapeError(f"unknown arrangement {self.arrangement!r}")
        if self.lossless not in (LOSSLESS_NONE, LOSSLESS_ZLIB):
            raise ShapeError(f"unknown lossless pass {self.lossless!r}")
        object.__setattr__(self, "order", tuple(self.order))

    @property
    def codec_name(self) -> str:
        return CODECS[self.codec]

    @property
    def n_values(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def original_bytes(self) -> int:
        """Logical float64 size of the data the blob stands for; the
        extrapolated padding layers do not count."""
        nx, ny, nz = self.dims
        if self.padded:
            nx -= 1
            ny -= 1
        return nx * ny * nz * 8

    def to_bytes(self) -> bytes:
        p = self.policy
        codec_byte = self.codec | (_ZLIB_FLAG if self.lossless == LOSSLESS_ZLIB else 0)
        head = _HEADER.pack(
            MAGIC, codec_byte, *self.dims, p.eb, p.adaptive, p.alpha, p.beta,
            ARRANGEMENTS.index(self.arrangement), self.padded, self.u, len(self.order),
        )
        table = np.array([(c.bx, c.by, c.bz) for c in self.order], dtype="<u8").tobytes()
        return head + table + struct.pack("<Q", len(self.stream)) + self.stream

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int = 0) -> tuple["CompressedBlob", int]:
        if buf[offset : offset + 4] != MAGIC:
            raise FormatError("bad blob magic")
        try:
            (_, codec_byte, nx, ny, nz, eb, adaptive, alpha, beta,
             arrangement, padded, u, n_blocks) = _HEADER.unpack_from(buf, offset)
            offset += _HEADER.size
            # checked before the table is read, so a corrupt count allocates nothing
            if len(buf) - offset < 24 * n_blocks:
                raise FormatError("blob block table truncated")
            table = np.frombuffer(buf, dtype="<u8", count=3 * n_blocks, offset=offset)
            offset += 24 * n_blocks
            (stream_len,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
        except struct.error as exc:
            raise FormatError(f"blob header truncated: {exc}") from exc
        if min(nx, ny, nz) < 1:
            raise FormatError(f"blob dims must be positive, got ({nx}, {ny}, {nz})")
        lossless = LOSSLESS_ZLIB if codec_byte & _ZLIB_FLAG else LOSSLESS_NONE
        codec = codec_byte & ~_ZLIB_FLAG
        if codec >= len(CODECS):
            raise FormatError(f"unknown codec id {codec}")
        end = offset + stream_len
        if end > len(buf):
            raise FormatError("blob stream truncated")
        if arrangement >= len(ARRANGEMENTS):
            raise FormatError(f"unknown arrangement {arrangement}")
        try:
            policy = ErrorBoundPolicy(eb=eb, adaptive=bool(adaptive), alpha=alpha, beta=beta)
        except ShapeError as exc:
            raise FormatError(f"blob carries an invalid policy: {exc}") from exc
        b_edge = max(u, 1)
        try:
            order = tuple(BlockCoord(bx, by, bz, b_edge) for bx, by, bz in table.reshape(-1, 3).tolist())
        except ShapeError as exc:
            raise FormatError(f"bad block coordinate in blob: {exc}") from exc
        blob = cls(
            codec=codec,
            dims=(nx, ny, nz),
            policy=policy,
            arrangement=ARRANGEMENTS[arrangement],
            padded=bool(padded),
            u=u,
            order=order,
            stream=bytes(buf[offset:end]),
            lossless=lossless,
        )
        return blob, end

    def size_bytes(self) -> int:
        return len(self.to_bytes())

    def wrap(self, arr: np.ndarray) -> MergedArray | Volume:
        """The codec output for the decoded (z, y, x) array ``arr``: a
        Volume for a whole volume, else a MergedArray with this layout."""
        if self.arrangement is None:
            return Volume(arr)
        return MergedArray(values=arr, order=self.order, u=self.u, arrangement=self.arrangement, padded=self.padded)


def unwrap(m: MergedArray | Volume) -> tuple[np.ndarray, dict]:
    """The (z, y, x) array of ``m`` and the blob fields of its shape and
    layout: the inverse of :meth:`CompressedBlob.wrap`."""
    if isinstance(m, Volume):
        arr, fields = m.data, dict(arrangement=None, padded=False, u=0, order=())
    elif isinstance(m, MergedArray):
        arr, fields = m.values, dict(arrangement=m.arrangement, padded=m.padded, u=m.u, order=m.order)
    else:
        raise ShapeError(f"cannot compress {type(m).__name__}")
    return arr, dict(fields, dims=arr.shape[::-1])
