"""Interpolation-predicted compression of whole arrays.

The 3D traversal refines a product lattice level by level. Within one global
level the x, y, z axis passes run in that order; an axis pass predicts its
new positions against every combination of already-active positions on the
other two axes. Compressor and decompressor run the one traversal
(``_traverse``), which differs between them only in how a batch of targets
is reconstructed from its prediction (quantize or dequantize), so both walk
the identical pass sequence by construction. Predictors read only
previously reconstructed values, so the two working states never diverge.

Code-stream order within a pass: two-sided targets first, then one-sided,
each batch raveled in (z, y, x ascending) order.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from .entropy import LOSSLESS_NONE, entropy_decode, entropy_encode
from .policy import ErrorBoundPolicy, level_error_bound
from .quantize import LITERAL_MARK, dequantize_array, quantize_array
from .schedule import ENDPOINT, ONE_SIDED, TWO_SIDED, build_grid_schedule


def _walk(dims):
    """Yield the deterministic pass sequence for an array of ``dims``.

    Each item is (global level, axis, step, two_sided, one_sided, selectors)
    where selectors are the active position arrays (x, y, z) to combine with
    the target positions. Axis levels are consumed end-aligned: every axis
    finishes its stride-1 pass at the global maxlevel.
    """
    gs = build_grid_schedule(dims)
    maxlevel = gs.maxlevel
    active = [np.zeros(1, dtype=np.intp) for _ in range(3)]
    for g in range(1, maxlevel + 1):
        for ax in range(3):
            j = gs.axis_level(ax, g)
            if j is None:
                continue
            lvl = gs.axes[ax].levels[j]
            two = lvl.positions(TWO_SIDED)
            one = np.concatenate([lvl.positions(ONE_SIDED), lvl.positions(ENDPOINT)])
            one.sort()
            yield g, ax, lvl.step, two, one, (active[0], active[1], active[2])
            fresh = np.concatenate([active[ax], two, one])
            fresh.sort()
            active[ax] = fresh
    return


def _selector(ax, positions, act):
    act_x, act_y, act_z = act
    if ax == 0:
        return np.ix_(act_z, act_y, positions)
    if ax == 1:
        return np.ix_(act_z, positions, act_x)
    return np.ix_(positions, act_y, act_x)


def _maxlevel(dims) -> int:
    return build_grid_schedule(dims).maxlevel


def _traverse(work: np.ndarray, policy: ErrorBoundPolicy, visit) -> None:
    """Run the seed and every pass of :func:`_walk` over ``work`` (z, y, x).

    For each batch of targets, ``visit(pred, sel, eb)`` returns their
    reconstruction, which is stored in ``work`` for later passes to predict
    from. Encoder and decoder differ only in ``visit``.
    """
    nz, ny, nx = work.shape
    dims = (nx, ny, nz)
    maxlevel = _maxlevel(dims)
    seed = (slice(0, 1),) * 3
    work[seed] = visit(np.zeros((1, 1, 1)), seed, level_error_bound(policy, 0, maxlevel))
    for g, ax, step, two, one, act in _walk(dims):
        eb = level_error_bound(policy, g, maxlevel)
        if two.size:
            sel = _selector(ax, two, act)
            pred = 0.5 * (work[_selector(ax, two - step, act)] + work[_selector(ax, two + step, act)])
            work[sel] = visit(pred, sel, eb)
        if one.size:
            sel = _selector(ax, one, act)
            work[sel] = visit(work[_selector(ax, one - step, act)], sel, eb)


def _encode_array(arr: np.ndarray, policy: ErrorBoundPolicy, recon: bool = False):
    """Returns (codes, literals, the reconstruction when ``recon``); the
    working array ends up equal to the decoder's output."""
    work = np.zeros_like(arr)
    code_parts = []
    lit_parts = []

    def quantize(pred, sel, eb):
        codes, rec, lits = quantize_array(pred, arr[sel], eb)
        code_parts.append(codes.reshape(-1))
        lit_parts.append(lits)
        return rec

    _traverse(work, policy, quantize)
    return np.concatenate(code_parts), np.concatenate(lit_parts), work if recon else None


def interp_compress(arr: np.ndarray, policy: ErrorBoundPolicy, lossless: str = LOSSLESS_NONE, recon: bool = False):
    """Code the (z, y, x) array ``arr``: returns (entropy stream, the
    decoder's output when ``recon`` else None)."""
    # the working state is freed before entropy coding unless it is returned
    codes, lits, rec = _encode_array(arr, policy, recon)
    return entropy_encode(codes, lits, lossless), rec


def interp_decompress(blob) -> np.ndarray:
    """The (z, y, x) array a blob of this codec holds."""
    codes, lits = entropy_decode(blob.stream, blob.n_values, blob.lossless)
    nx, ny, nz = blob.dims
    work = np.zeros((nz, ny, nx), dtype=np.float64)
    cpos = 0
    lpos = 0

    def dequantize(pred, sel, eb):
        nonlocal cpos, lpos
        n = pred.size
        batch = codes[cpos : cpos + n]
        cpos += n
        k = int((batch == LITERAL_MARK).sum())
        if lpos + k > lits.size:
            raise FormatError("literal block shorter than the code stream demands")
        vals = lits[lpos : lpos + k]
        lpos += k
        return dequantize_array(pred.reshape(-1), batch, eb, vals).reshape(pred.shape)

    _traverse(work, blob.policy, dequantize)
    if lpos != lits.size:
        raise FormatError("literal block longer than the code stream demands")
    return work
