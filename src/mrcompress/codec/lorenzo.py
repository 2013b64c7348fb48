"""Block-local Lorenzo coding by dual quantization, the classic 4x4x4 design.

Each value is prequantized once, q = rint(x / 2eb), and the codes are the
integer Lorenzo residuals of q: for a cell, q minus the inclusion-exclusion
sum over its lower neighbors inside its own block, with zero standing in for
anything outside, so each block is coded independently. The residual is
three differences, along z, y and x, each restarting at a block start; the
decoder undoes them with three prefix sums and reconstructs 2eb*q. No
reconstruction error feeds back into a prediction, so there is no per-cell
step (cuSZ's dual quantization, Tian et al., PACT 2020). The block edge on
an axis is min(4, n), and a ragged high face forms shorter blocks. Both
directions run one block layer (up to 4 z-planes) at a time.

Codes are in the array's C order. A residual beyond CODE_CAP is coded
LITERAL_MARK with the residual as its literal. A value q does not carry
(not finite, |q| > 2^49, or rounded outside the bound) puts its whole block
on VALUE_MARK: the block's q are 0, so its residuals are 0, and each of its
cells' literal is the exact value. Literals follow their marks in code
order. With |q| <= 2^49 every residual and partial sum is an integer below
2^53, so both directions are exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, ShapeError
from .entropy import LOSSLESS_NONE, entropy_decode, entropy_encode
from .policy import ErrorBoundPolicy
from .quantize import CODE_CAP, LITERAL_MARK, quantize_array

BLOCK_EDGE = 4
VALUE_MARK = -LITERAL_MARK
_Q_MAX = 2.0**49
_RESID_MAX = 8 * _Q_MAX  # seven neighbors and the cell itself


def _per_block(a: np.ndarray, axis: int, op) -> None:
    """Differences (``np.subtract``) or their prefix sums (``np.add``)
    along ``axis`` of ``a``, in place, restarting at every block start."""
    v = np.moveaxis(a, axis, 0)
    e = min(BLOCK_EDGE, len(v))
    # differences run high to low, so each reads a neighbor not yet changed
    for j in range(e - 1, 0, -1) if op is np.subtract else range(1, e):
        hi = v[j::e]
        op(hi, v[j - 1 :: e][: len(hi)], out=hi)


def _value_blocks(q: np.ndarray, x: np.ndarray, eb: float):
    """The (ny, nx) mask of the blocks of one layer that hold a value q
    does not carry, or None when there is none."""
    ok = np.abs(q) <= _Q_MAX
    err = q * (2.0 * eb)
    err -= x
    np.abs(err, out=err)
    ok &= err <= eb  # NaN fails both tests
    if ok.all():
        return None
    by, bx = (np.arange(n) // min(BLOCK_EDGE, n) for n in q.shape[1:])
    bad = np.zeros((by[-1] + 1, bx[-1] + 1), dtype=bool)
    iy, ix = np.nonzero(~ok.all(axis=0))
    bad[by[iy], bx[ix]] = True
    return bad[np.ix_(by, bx)]


def _encode_array(arr: np.ndarray, policy: ErrorBoundPolicy, recon: bool = False):
    """Returns (codes, literals, the reconstruction when ``recon``)."""
    step = 2.0 * policy.eb
    codes = np.empty(arr.shape, dtype=np.int32)
    out = np.empty(arr.shape) if recon else None
    lits = []
    ez = min(BLOCK_EDGE, arr.shape[0])
    # non-finite inputs and huge quotients are expected and caught
    with np.errstate(invalid="ignore", over="ignore"):
        for z0 in range(0, arr.shape[0], ez):
            x = arr[z0 : z0 + ez]
            q = np.divide(x, step)
            np.rint(q, out=q)
            q += 0.0  # a zero is +0.0, never -0.0
            value = _value_blocks(q, x, policy.eb)
            if value is not None:
                q[:, value] = 0.0
            if recon:
                rec = np.multiply(q, step, out=out[z0 : z0 + ez])
                if value is not None:
                    rec[:, value] = x[:, value]
            for axis in range(3):
                _per_block(q, axis, np.subtract)
            c, _, resid_lits = quantize_array(0.0, q, 0.5)
            layer = codes[z0 : z0 + ez]
            layer[...] = c.reshape(q.shape)
            if value is None:
                lits.append(resid_lits)
                continue
            layer[:, value] = VALUE_MARK
            layer = layer.reshape(-1)
            marks = np.flatnonzero(np.abs(layer) == LITERAL_MARK)
            lits.append(np.where(layer[marks] == VALUE_MARK, x.reshape(-1)[marks], q.reshape(-1)[marks]))
    return codes.reshape(-1), np.concatenate(lits), out


def block_compress(arr: np.ndarray, policy: ErrorBoundPolicy, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Code the (z, y, x) array ``arr``: returns (entropy stream, the
    decoder's output when ``recon`` else None)."""
    if policy.adaptive:
        raise ShapeError("the block codec quantizes at a uniform bound")
    codes, lits, rec = _encode_array(arr, policy, recon)
    return entropy_encode(codes, lits, lossless), rec


def block_decompress(blob) -> np.ndarray:
    """The (z, y, x) array a blob of this codec holds."""
    codes, lits = entropy_decode(blob.stream, blob.n_values, blob.lossless)
    marks = np.flatnonzero(np.abs(codes) == LITERAL_MARK)
    if marks.size != lits.size:
        raise FormatError("literal block does not match the code stream")
    value = codes[marks] == VALUE_MARK
    resid = lits[~value]
    mag = np.abs(resid)
    if not np.all((resid == np.rint(resid)) & (mag > CODE_CAP) & (mag <= _RESID_MAX)):
        raise FormatError("a residual literal is not an integer beyond the code range")
    nx, ny, nz = blob.dims
    out = codes.astype(np.float64).reshape(nz, ny, nx)
    flat = out.reshape(-1)
    flat[marks] = np.where(value, 0.0, lits)
    step = 2.0 * blob.policy.eb
    ez = min(BLOCK_EDGE, nz)
    for z0 in range(0, nz, ez):
        layer = out[z0 : z0 + ez]
        for axis in range(3):
            _per_block(layer, axis, np.add)
        layer *= step
    flat[marks[value]] = lits[value]
    return out
