"""Error-bounded compression codecs and their shared machinery.

Each codec is an array coder: ``<codec>_compress(arr, policy, lossless,
recon)`` turns a (z, y, x) array into (entropy stream, the decoder's output
when ``recon`` else None), and ``<codec>_decompress(blob)`` returns the
array. :func:`compress` and :func:`decompress` are the envelope around them:
a Volume or MergedArray becomes a CompressedBlob that records its layout
and scalar type, and a blob decodes to the coder's plain (z, y, x) array of
that type, float32 or float64. Dispatch
names each coder in an ``if``, so it is looked up in this module at call
time and a wrapper installed here sees every call.
"""

from ..errors import ShapeError
from .blob import CODECS, CompressedBlob, unwrap
from .entropy import LOSSLESS_NONE
from .interp import interp_compress, interp_decompress
from .lorenzo import block_compress, block_decompress
from .policy import DEFAULT_ALPHA, DEFAULT_BETA, ErrorBoundPolicy, level_error_bound
from .stored import stored_compress, stored_decompress

STORED, INTERP, _, BLOCK = CODECS


def compress(m, policy, codec: str = INTERP, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Compress a Volume or MergedArray with the named codec; with
    ``recon``, return (blob, decompress(blob)'s array) without decoding."""
    arr, fields = unwrap(m)
    if codec == INTERP:
        stream, rec = interp_compress(arr, policy, lossless, recon)
    elif codec == BLOCK:
        stream, rec = block_compress(arr, policy, lossless, recon)
    elif codec == STORED:
        stream, rec = stored_compress(arr, policy, lossless, recon)
    else:
        raise ShapeError(f"unknown codec {codec!r}")
    blob = CompressedBlob(codec=CODECS.index(codec), policy=policy, stream=stream, lossless=lossless, **fields)
    return (blob, rec) if recon else blob


def decompress(blob: CompressedBlob):
    """The (z, y, x) array the blob holds, by its codec id; the blob's
    fields say how it was merged and padded."""
    if blob.codec_name == INTERP:
        return interp_decompress(blob)
    if blob.codec_name == BLOCK:
        return block_decompress(blob)
    return stored_decompress(blob)
