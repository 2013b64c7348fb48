"""Block-local Lorenzo prediction, the classic 4x4x4 design.

Each block is coded independently: the predictor for a cell is the
inclusion-exclusion sum over its lower neighbors inside the block, with
zero standing in for anything outside, so the block corner is effectively
quantized against zero. All blocks of the same shape advance through their
64 cells in lockstep, which keeps the per-cell work vectorized across
blocks.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, ShapeError
from ..grid import Volume
from ..layout import MergedArray
from .blob import ARRANGE_NONE, CODEC_BLOCK, CompressedBlob, arrangement_code
from .entropy import LOSSLESS_NONE, entropy_decode, entropy_encode
from .policy import ErrorBoundPolicy
from .quantize import LITERAL_MARK, quantize_array

BLOCK_EDGE = 4


def _block_table(shape):
    """Partition a (nz, ny, nx) array into 4-blocks; returns a list of
    (origin_z, origin_y, origin_x, sz, sy, sx) in block-index order
    (x fastest) plus the flat code offset of every block."""
    nz, ny, nx = shape
    zs = [(o, min(BLOCK_EDGE, nz - o)) for o in range(0, nz, BLOCK_EDGE)]
    ys = [(o, min(BLOCK_EDGE, ny - o)) for o in range(0, ny, BLOCK_EDGE)]
    xs = [(o, min(BLOCK_EDGE, nx - o)) for o in range(0, nx, BLOCK_EDGE)]
    table = []
    for oz, sz in zs:
        for oy, sy in ys:
            for ox, sx in xs:
                table.append((oz, oy, ox, sz, sy, sx))
    sizes = np.array([t[3] * t[4] * t[5] for t in table], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return table, offsets


def _lorenzo_pred(w, z, y, x):
    """Inclusion-exclusion over lower neighbors; ``w`` carries a zero halo
    at index 0 of each block axis."""
    return (
        w[:, z + 1, y + 1, x]
        + w[:, z + 1, y, x + 1]
        + w[:, z, y + 1, x + 1]
        - w[:, z + 1, y, x]
        - w[:, z, y + 1, x]
        - w[:, z, y, x + 1]
        + w[:, z, y, x]
    )


def _groups(table):
    by_shape = {}
    for bi, t in enumerate(table):
        by_shape.setdefault(t[3:], []).append(bi)
    # deterministic group order: sorted by shape
    return [(shape, np.array(idx)) for shape, idx in sorted(by_shape.items())]


def _encode_array(arr: np.ndarray, policy: ErrorBoundPolicy):
    table, offsets = _block_table(arr.shape)
    codes = np.empty(offsets[-1], dtype=np.int32)
    lit_store = np.zeros(offsets[-1], dtype=np.float64)
    eb = policy.eb
    for (sz, sy, sx), members in _groups(table):
        stack = np.empty((members.size, sz, sy, sx), dtype=np.float64)
        for k, bi in enumerate(members):
            oz, oy, ox, *_ = table[bi]
            stack[k] = arr[oz : oz + sz, oy : oy + sy, ox : ox + sx]
        w = np.zeros((members.size, sz + 1, sy + 1, sx + 1), dtype=np.float64)
        grp_codes = np.empty((members.size, sz * sy * sx), dtype=np.int32)
        grp_lits = np.zeros((members.size, sz * sy * sx), dtype=np.float64)
        cell = 0
        for z in range(sz):
            for y in range(sy):
                for x in range(sx):
                    pred = _lorenzo_pred(w, z, y, x)
                    cc, recon, _ = quantize_array(pred, stack[:, z, y, x], eb)
                    w[:, z + 1, y + 1, x + 1] = recon
                    grp_codes[:, cell] = cc
                    grp_lits[:, cell] = np.where(
                        cc == LITERAL_MARK, stack[:, z, y, x], 0.0
                    )
                    cell += 1
        for k, bi in enumerate(members):
            codes[offsets[bi] : offsets[bi + 1]] = grp_codes[k]
            lit_store[offsets[bi] : offsets[bi + 1]] = grp_lits[k]
    lits = lit_store[codes == LITERAL_MARK]
    return codes, lits


def _decode_array(dims, policy: ErrorBoundPolicy, codes: np.ndarray, lits: np.ndarray):
    nx, ny, nz = dims
    shape = (nz, ny, nx)
    table, offsets = _block_table(shape)
    if codes.size != offsets[-1]:
        raise FormatError("code stream does not match the array size")
    marks = codes == LITERAL_MARK
    if int(marks.sum()) != lits.size:
        raise FormatError("literal block does not match the code stream")
    lit_store = np.zeros(codes.size, dtype=np.float64)
    lit_store[marks] = lits
    out = np.empty(shape, dtype=np.float64)
    eb = policy.eb
    for (sz, sy, sx), members in _groups(table):
        ncell = sz * sy * sx
        grp_codes = np.empty((members.size, ncell), dtype=np.int64)
        grp_lits = np.empty((members.size, ncell), dtype=np.float64)
        for k, bi in enumerate(members):
            grp_codes[k] = codes[offsets[bi] : offsets[bi + 1]]
            grp_lits[k] = lit_store[offsets[bi] : offsets[bi + 1]]
        w = np.zeros((members.size, sz + 1, sy + 1, sx + 1), dtype=np.float64)
        cell = 0
        for z in range(sz):
            for y in range(sy):
                for x in range(sx):
                    pred = _lorenzo_pred(w, z, y, x)
                    cc = grp_codes[:, cell]
                    recon = pred + (2.0 * eb) * cc
                    lit = cc == LITERAL_MARK
                    if lit.any():
                        recon[lit] = grp_lits[lit, cell]
                    w[:, z + 1, y + 1, x + 1] = recon
                    cell += 1
        for k, bi in enumerate(members):
            oz, oy, ox, bsz, bsy, bsx = table[bi]
            out[oz : oz + bsz, oy : oy + bsy, ox : ox + bsx] = w[
                k, 1 : bsz + 1, 1 : bsy + 1, 1 : bsx + 1
            ]
    return out


def block_compress(
    m: MergedArray | Volume,
    policy: ErrorBoundPolicy,
    lossless: str = LOSSLESS_NONE,
) -> CompressedBlob:
    if policy.adaptive:
        raise ShapeError("the block codec quantizes at a uniform bound")
    if isinstance(m, Volume):
        arr = m.data
        arrangement = ARRANGE_NONE
        u, order, padded = 0, (), False
    elif isinstance(m, MergedArray):
        arr = m.values
        arrangement = arrangement_code(m.arrangement)
        u, order, padded = m.u, m.order, m.padded
    else:
        raise ShapeError(f"cannot compress {type(m).__name__}")
    codes, lits = _encode_array(arr, policy)
    nz, ny, nx = arr.shape
    return CompressedBlob(
        codec=CODEC_BLOCK,
        dims=(nx, ny, nz),
        policy=policy,
        arrangement=arrangement,
        padded=padded,
        u=u,
        order=order,
        stream=entropy_encode(codes, lits, lossless),
        lossless=lossless,
    )


def block_decompress(blob: CompressedBlob) -> MergedArray | Volume:
    if blob.codec != CODEC_BLOCK:
        raise ShapeError(f"blob holds codec {blob.codec}, not block-Lorenzo")
    codes, lits, used = entropy_decode(blob.stream, blob.n_values, 0, blob.lossless)
    if used != len(blob.stream):
        raise FormatError("blob stream longer than its entropy stream")
    arr = _decode_array(blob.dims, blob.policy, codes.astype(np.int64), lits)
    if blob.arrangement == ARRANGE_NONE:
        return Volume(arr)
    return MergedArray(
        values=arr,
        order=blob.order,
        u=blob.u,
        arrangement=blob.arrangement_name,
        padded=blob.padded,
    )
