"""Interpolation-predicted compression of whole arrays.

One axis of n points is visited coarse to fine. Position 0 is the seed,
coded against a zero prediction. The first pass predicts n - 1 from 0.
Then one pass per stride S = 2^k, from the largest 2^k < n - 1 (at least 1)
down to 1, targets the odd multiples of S below n - 1. A target whose far
neighbor pos + S lies on the axis is interpolated two-sided from pos - S and
pos + S; otherwise it is extrapolated one-sided from pos - S. Every position
is a target exactly once, and every predictor reads only earlier passes. A
pass with no targets (the stride-1 pass of a 2-point axis) still counts
toward its axis's depth.

The 3D traversal refines a product lattice level by level. The axes are
aligned at the finishing end: every axis runs its stride-1 pass at the
global maxlevel (the depth of the deepest axis), so short axes start late
and their early, structure-bearing passes still land on tight adaptive
bounds. Within one global level the x, y, z axis passes run in that order;
an axis pass predicts its new positions against every combination of
already-active positions on the other two axes. Compressor and decompressor
run the one traversal (``_traverse``), which differs between them only in
how a batch of targets is reconstructed from its prediction (quantize or
dequantize), so both walk the identical pass sequence by construction.
Predictors read only previously reconstructed values, so the two working
states never diverge.

Code-stream order within a pass: two-sided targets first, then one-sided,
each batch raveled in (z, y, x ascending) order. After its stride-S pass an
axis is active at 0::S below n - 1 and at n - 1, and a pass's two-sided
targets are S::2S, so a batch is a product of at most two strided runs per
axis: it is gathered and scattered by basic slicing, in that same order.

The traversal visits each batch in z-slabs of about ``_SLAB_TARGETS``
targets, so the quantizer's temporaries stay cache-sized rather than
batch-sized. A slab cuts the z runs of the batch's selector, and of its
neighbors' selectors, to one range of z indices; since a batch ravels with
z outermost, its slabs in order emit the codes and literals in the batch's
ravel order, and the bytes do not depend on the slab size.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import FormatError
from .entropy import LOSSLESS_NONE, entropy_decode, entropy_encode
from .policy import ErrorBoundPolicy, level_error_bound
from .quantize import LITERAL_MARK, quantize_array

_SLAB_TARGETS = 1 << 15  # targets per slab, about; a slab holds at least one z plane


def _axis_passes(n: int) -> list:
    """One axis's passes after the seed, coarse to fine, as
    (step, two-sided positions, one-sided positions)."""
    if n < 2:
        return []
    passes = [(n - 1, np.zeros(0, dtype=np.intp), np.array([n - 1], dtype=np.intp))]
    step = 1 << max(0, (n - 2).bit_length() - 1)  # the largest 2^k < n - 1, at least 1
    while step >= 1:
        targets = np.arange(step, n - 1, 2 * step, dtype=np.intp)
        two_sided = targets + step <= n - 1
        passes.append((step, targets[two_sided], targets[~two_sided]))
        step //= 2
    return passes


def _walk(dims):
    """Yield (global level, axis, step, batches) for each pass over an array
    of ``dims`` (x, y, z), in order.

    A batch is (targets, neighbors): the selector of its targets and those
    of the one or two cells each is predicted from, at -step and (two-sided)
    +step along the axis. A selector holds each axis's runs, (z, y, x): its
    batch is the product of the runs' positions, raveled in that order.
    """
    axes = [_axis_passes(n) for n in dims]
    maxlevel = max(map(len, axes))
    active = [(slice(0, 1, 1),)] * 3
    for g in range(1, maxlevel + 1):
        for ax, passes in enumerate(axes):
            j = g - 1 - maxlevel + len(passes)
            if j < 0:
                continue
            step, two, one = passes[j]

            def selector(t, shift):
                runs = list(active)
                runs[ax] = (slice(int(t[0]) + shift, int(t[-1]) + shift + 1, 2 * step),)
                return runs[::-1]

            batches = [(selector(t, 0), [selector(t, -step), selector(t, step)][:k])
                       for t, k in ((two, 2), (one, 1)) if t.size]
            yield g, ax, step, batches
            # the axis is now active at 0::step below n - 1, and at n - 1
            n = dims[ax]
            active[ax] = (slice(0, n, step),) if (n - 1) % step == 0 else (slice(0, n - 1, step), slice(n - 1, n, 1))


def _run_len(r: slice) -> int:
    return len(range(r.start, r.stop, r.step))


def _blocks(sel):
    """The sub-blocks of a selector's batch, as (array index, batch index)
    pairs in ravel order, and the batch shape."""
    axes = []
    for runs in sel:
        ends = list(itertools.accumulate(map(_run_len, runs), initial=0))
        axes.append([(r, slice(lo, hi)) for r, lo, hi in zip(runs, ends, ends[1:])])
    shape = tuple(pairs[-1][1].stop for pairs in axes)
    return [tuple(zip(*combo)) for combo in itertools.product(*axes)], shape


def _cut_z(runs, lo: int, hi: int) -> tuple:
    """The z runs ``runs`` cut to the positions of index ``lo`` to ``hi``."""
    out = []
    for r in runs:
        pos = range(r.start, r.stop, r.step)
        cut = pos[max(lo, 0) : max(hi, 0)]
        if cut:
            out.append(slice(cut.start, cut.stop, cut.step))
        lo, hi = lo - len(pos), hi - len(pos)
    return tuple(out)


def _slabs(sel, neighbors):
    """The batch (``sel``, ``neighbors``) as z-slabs of about
    ``_SLAB_TARGETS`` targets, each a (targets, neighbors) pair cut to
    the same z indices, in ravel order."""
    nz = sum(map(_run_len, sel[0]))
    plane = sum(map(_run_len, sel[1])) * sum(map(_run_len, sel[2]))
    per = max(1, _SLAB_TARGETS // plane)
    for lo in range(0, nz, per):
        hi = min(lo + per, nz)
        yield [_cut_z(sel[0], lo, hi), *sel[1:]], [[_cut_z(nb[0], lo, hi), *nb[1:]] for nb in neighbors]


def _gather(a: np.ndarray, sel, hi=None) -> np.ndarray:
    """``a`` at ``sel``, or with ``hi`` the midpoint 0.5 * (a[sel] + a[hi]),
    as one batch. A batch of one sub-block is a view of ``a``; otherwise
    the sub-blocks are read through views into one new array."""
    blocks, shape = _blocks(sel)
    if hi is None and len(blocks) == 1:
        return a[blocks[0][0]]
    out = np.empty(shape, dtype=a.dtype)
    if hi is None:
        for src, dst in blocks:
            out[dst] = a[src]
        return out
    for (src, dst), (src_hi, _) in zip(blocks, _blocks(hi)[0]):
        np.add(a[src], a[src_hi], out=out[dst])
    out *= 0.5
    return out


def _scatter(a: np.ndarray, sel, values: np.ndarray) -> None:
    """Write the batch ``values`` into ``a`` at ``sel`` through views."""
    for dst, src in _blocks(sel)[0]:
        a[dst] = values[src]


def _traverse(work: np.ndarray, policy: ErrorBoundPolicy, visit) -> None:
    """Run the seed and every pass of :func:`_walk` over ``work`` (z, y, x).

    For each z-slab of each batch of targets, ``visit(pred, sel, eb)``
    returns their reconstruction, which is stored in ``work`` for later
    passes to predict from. Encoder and decoder differ only in ``visit``.
    """
    nz, ny, nx = work.shape
    dims = (nx, ny, nz)
    maxlevel = max(len(_axis_passes(n)) for n in dims)
    seed = [(slice(0, 1, 1),)] * 3
    _scatter(work, seed, visit(np.zeros((1, 1, 1)), seed, level_error_bound(policy, 0, maxlevel)))
    for g, _, _, batches in _walk(dims):
        eb = level_error_bound(policy, g, maxlevel)
        for batch in batches:
            for sel, neighbors in _slabs(*batch):
                _scatter(work, sel, visit(_gather(work, *neighbors), sel, eb))


def _encode_array(arr: np.ndarray, policy: ErrorBoundPolicy, recon: bool = False):
    """Returns (codes, literals, the reconstruction when ``recon``); the
    working array ends up equal to the decoder's output."""
    work = np.zeros_like(arr)
    code_parts = []
    lit_parts = []

    def quantize(pred, sel, eb):
        codes, rec, lits = quantize_array(pred, _gather(arr, sel), eb)
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
    # one scan finds every literal mark; each slab places the ones in its
    # code range, in order
    marks = np.flatnonzero(codes == LITERAL_MARK)
    if marks.size != lits.size:
        raise FormatError("literal block does not match the code stream")
    cpos = 0

    def dequantize(pred, sel, eb):
        nonlocal cpos
        end = cpos + pred.size
        rec = np.multiply(codes[cpos:end].reshape(pred.shape), 2.0 * eb)
        rec += pred
        lo, hi = np.searchsorted(marks, (cpos, end))
        rec.reshape(-1)[marks[lo:hi] - cpos] = lits[lo:hi]
        cpos = end
        return rec

    _traverse(work, blob.policy, dequantize)
    return work
