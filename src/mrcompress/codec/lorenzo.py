"""Block-local Lorenzo prediction, the classic 4x4x4 design.

Each block is coded independently: the predictor for a cell is the
inclusion-exclusion sum over its lower neighbors inside the block, with
zero standing in for anything outside, so the block corner is effectively
quantized against zero.

All M blocks advance through their cells in lockstep over a cell-major
working array ``w`` of shape (ez+1, ey+1, ex+1, M): block index last, a
zero halo at index 0 of each cell axis. Every ``w[z, y, x]`` is then one
contiguous row holding that cell of all M blocks. The block edge on an axis
is min(4, n), so a thin axis forms one short block instead of a padded one.

Ragged high faces are zero-padded to whole blocks, so one pass covers every
block. This is exact: a cell reads only its lower neighbors inside its own
block, so no cell of the array ever reads a padded one. The padded cells
are dropped from the stream with a (block, cell) validity mask, whose
row-major order is the stream order: blocks in (z, y, x) order, each
block's cells in (z, y, x) order.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..errors import FormatError, ShapeError
from .entropy import LOSSLESS_NONE, entropy_decode, entropy_encode
from .policy import ErrorBoundPolicy
from .quantize import LITERAL_MARK, quantize_array

BLOCK_EDGE = 4


class _Blocks:
    """The partition of a (nz, ny, nx) array into blocks of edge min(4, n)
    per axis, with the high faces padded to whole blocks."""

    def __init__(self, shape):
        self.edge = tuple(min(BLOCK_EDGE, max(n, 1)) for n in shape)
        self.count = tuple(-(-n // e) for n, e in zip(shape, self.edge))
        self.m, self.cells = math.prod(self.count), math.prod(self.edge)
        self.full = tuple(b * e for b, e in zip(self.count, self.edge))
        self.crop = tuple(slice(0, n) for n in shape)
        self.ragged = self.full != tuple(shape)

    def halo(self) -> np.ndarray:
        return np.zeros(tuple(e + 1 for e in self.edge) + (self.m,))

    def interior(self, w: np.ndarray) -> np.ndarray:
        """View of the interior of a halo array as (bz, ez, by, ey, bx, ex)."""
        return w.reshape(w.shape[:3] + self.count)[1:, 1:, 1:].transpose(3, 0, 4, 1, 5, 2)

    def padded(self, arr: np.ndarray) -> np.ndarray:
        """``arr`` zero-padded to whole blocks, as (bz, ez, by, ey, bx, ex)."""
        if self.ragged:
            full = np.zeros(self.full, arr.dtype)
            full[self.crop] = arr
            arr = full
        return arr.reshape([v for be in zip(self.count, self.edge) for v in be])

    @cached_property
    def valid(self) -> np.ndarray:
        """(M, cells) mask of the cells inside the array."""
        inside = self.padded(np.ones([s.stop for s in self.crop], dtype=bool))
        return inside.transpose(0, 2, 4, 1, 3, 5).reshape(self.m, self.cells)

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """The (nz, ny, nx) array in the interior of the halo array ``w``,
        C-contiguous: a crop of ragged x or y dims is copied."""
        return np.ascontiguousarray(np.ascontiguousarray(self.interior(w)).reshape(self.full)[self.crop])

    def to_stream(self, cm: np.ndarray) -> np.ndarray:
        """Cell-major (ez, ey, ex, M) values in stream order."""
        per_block = cm.reshape(self.cells, self.m).T
        return per_block[self.valid] if self.ragged else per_block.reshape(-1)

    def from_stream(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_stream`, with zeros in the padded cells."""
        cm = np.zeros((self.cells, self.m), dtype=values.dtype)
        if self.ragged:
            cm.T[self.valid] = values
        else:
            cm.T[...] = values.reshape(self.m, self.cells)
        return cm.reshape(self.edge + (self.m,))

    def locate(self, pos: np.ndarray):
        """(block, cell) of the stream positions ``pos``."""
        if self.ragged:
            pos = np.flatnonzero(self.valid)[pos]
        return np.divmod(pos, self.cells)


def _escapes():
    """Non-finite inputs travel as literals, and padded cells may predict
    from them; the arithmetic on them is expected, not an error."""
    return np.errstate(invalid="ignore", over="ignore")


def _lorenzo_pred(w, z, y, x):
    """Inclusion-exclusion over lower neighbors; ``w`` carries a zero halo
    at index 0 of each cell axis."""
    pred = w[z + 1, y + 1, x] + w[z + 1, y, x + 1]
    pred += w[z, y + 1, x + 1]
    pred -= w[z + 1, y, x]
    pred -= w[z, y + 1, x]
    pred -= w[z, y, x + 1]
    pred += w[z, y, x]
    return pred


def _encode_array(arr: np.ndarray, policy: ErrorBoundPolicy, recon: bool = False):
    """Returns (codes, literals, the reconstruction when ``recon``)."""
    blocks = _Blocks(arr.shape)
    w = blocks.halo()
    # the interior starts out as the input; each step replaces one cell row
    # by its reconstruction, which is all that later steps read
    blocks.interior(w)[...] = blocks.padded(arr)
    codes = np.empty(blocks.edge + (blocks.m,), dtype=np.int32)
    with _escapes():
        for z, y, x in np.ndindex(*blocks.edge):
            pred = _lorenzo_pred(w, z, y, x)
            cc, rec, _ = quantize_array(pred, w[z + 1, y + 1, x + 1], policy.eb)
            w[z + 1, y + 1, x + 1] = rec
            codes[z, y, x] = cc
    codes = blocks.to_stream(codes)
    # an escaped cell reconstructs to its exact input
    block, cell = blocks.locate(np.flatnonzero(codes == LITERAL_MARK))
    z, y, x = np.unravel_index(cell, blocks.edge)
    lits = w[z + 1, y + 1, x + 1, block]
    return codes, lits, blocks.scatter(w) if recon else None


def block_compress(arr: np.ndarray, policy: ErrorBoundPolicy, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Code the (z, y, x) array ``arr``: returns (entropy stream, the
    decoder's output when ``recon`` else None)."""
    if policy.adaptive:
        raise ShapeError("the block codec quantizes at a uniform bound")
    # the working state is freed before entropy coding unless it is returned
    codes, lits, rec = _encode_array(arr, policy, recon)
    return entropy_encode(codes, lits, lossless), rec


def block_decompress(blob) -> np.ndarray:
    """The (z, y, x) array a blob of this codec holds."""
    codes, lits = entropy_decode(blob.stream, blob.n_values, blob.lossless)
    nx, ny, nz = blob.dims
    blocks = _Blocks((nz, ny, nx))
    marks = np.flatnonzero(codes == LITERAL_MARK)
    if marks.size != lits.size:
        raise FormatError("literal block does not match the code stream")
    # literals grouped by cell, each group in block order
    block, cell = blocks.locate(marks)
    by_cell = np.argsort(cell, kind="stable")
    block, lits = block[by_cell], lits[by_cell]
    bounds = np.searchsorted(cell[by_cell], np.arange(blocks.cells + 1)).tolist()
    cm = blocks.from_stream(codes)
    step = 2.0 * blob.policy.eb
    w = blocks.halo()
    with _escapes():
        for c, (z, y, x) in enumerate(np.ndindex(*blocks.edge)):
            recon = _lorenzo_pred(w, z, y, x)
            recon += step * cm[z, y, x]
            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                recon[block[lo:hi]] = lits[lo:hi]
            w[z + 1, y + 1, x + 1] = recon
    # freed before the scatter, whose output would set the peak next to them;
    # freeing codes before the loop lowers it no further and ran slower
    del codes, cm
    return blocks.scatter(w)
