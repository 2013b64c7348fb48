"""Error-bounded compression codecs and their shared machinery."""

from .blob import (
    ARRANGE_LINEAR,
    ARRANGE_NONE,
    ARRANGE_STACKED,
    CODEC_BLOCK,
    CODEC_INTERP,
    CODEC_STORED,
    CompressedBlob,
)
from .entropy import (
    LOSSLESS_NONE,
    LOSSLESS_ZLIB,
    HuffmanTable,
    build_table,
    entropy_decode,
    entropy_encode,
    pack_codes,
    unpack_codes,
)
from .interp import interp_compress, interp_decompress
from .lorenzo import BLOCK_EDGE, block_compress, block_decompress
from .policy import DEFAULT_ALPHA, DEFAULT_BETA, ErrorBoundPolicy, level_error_bound
from .quantize import (
    CODE_CAP,
    LITERAL_MARK,
    dequantize_array,
    quantize,
    quantize_array,
)
from .schedule import (
    ENDPOINT,
    ONE_SIDED,
    SEED_ZERO,
    TWO_SIDED,
    GridSchedule,
    InterpolationSchedule,
    ScheduleLevel,
    build_grid_schedule,
    build_schedule,
)
from .stored import stored_compress, stored_decompress

from ..errors import ShapeError

INTERP = "interp"
BLOCK = "block"


def compress(m, policy, codec: str = INTERP, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Compress a Volume or MergedArray with the named codec; with
    ``recon``, return (blob, decompress(blob)) without decoding."""
    if codec == INTERP:
        return interp_compress(m, policy, lossless, recon)
    if codec == BLOCK:
        return block_compress(m, policy, lossless, recon)
    raise ShapeError(f"unknown codec {codec!r}")


def decompress(blob: CompressedBlob):
    """Inverse of :func:`compress` for any codec id."""
    if blob.codec == CODEC_INTERP:
        return interp_decompress(blob)
    if blob.codec == CODEC_BLOCK:
        return block_decompress(blob)
    return stored_decompress(blob)
