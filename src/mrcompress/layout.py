"""Arranging unit blocks into compressible arrays.

A multi-resolution level holds its small cubic blocks as one (k, u, u, u)
array. Compressors want one dense 3D array, so the blocks are either
stacked along z ("linear", the default) or packed into a near-cubic grid of
slots ("stacked"). Linear arrangements may additionally grow a single
extrapolated layer on the high-x and high-y faces, which removes one-sided
interpolation targets at the cost of (u+1)^2 / u^2 extra samples; the
pipeline decides when that pays off.

The decoder's :func:`unpad` and :func:`unmerge` take a plain array and the
layout its blob records. :func:`check_merge` states which dims a merge can
have, for MergedArray and the blob parser alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .grid import Dims, _is_pow2, block_view, scalar_array

LINEAR = "linear"
STACKED = "stacked"


def check_merge(dims: Dims, k: int, u: int, arrangement: str, padded: bool) -> None:
    """Raise ShapeError unless k u-blocks merged in ``arrangement`` (and
    padded when ``padded``) can make an array of ``dims`` (x, y, z)."""
    if not _is_pow2(u):
        raise ShapeError(f"unit size must be a power of two, got {u}")
    if k < 1:
        raise ShapeError("a merge holds at least one block")
    dx, dy, dz = dims
    if arrangement == LINEAR:
        want_xy = u + 1 if padded else u
        if (dx, dy, dz) != (want_xy, want_xy, u * k):
            raise ShapeError(f"linear merge of {k} u={u} blocks cannot have dims ({dx}, {dy}, {dz})")
    elif arrangement == STACKED:
        if padded:
            raise ShapeError("stacked arrangements are never padded")
        if dx % u or dy % u or dz % u:
            raise ShapeError(f"stacked dims ({dx}, {dy}, {dz}) not a u={u} grid")
        if (dx // u) * (dy // u) * (dz // u) < k:
            raise ShapeError(f"stacked grid too small for {k} blocks")
    else:
        raise ShapeError(f"unknown arrangement {arrangement!r}")


@dataclass(frozen=True)
class MergedArray:
    """Dense array produced by merging k unit blocks, plus enough
    bookkeeping to take it apart again; of the blocks' scalar type."""

    values: np.ndarray  # shape (dz, dy, dx)
    k: int  # block count
    u: int
    arrangement: str
    padded: bool = False

    def __post_init__(self):
        arr = scalar_array(self.values)
        if arr.ndim != 3:
            raise ShapeError("merged payload must be 3D")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        check_merge(arr.shape[::-1], self.k, self.u, self.arrangement, self.padded)

    @property
    def dims(self) -> Dims:
        return self.values.shape[::-1]


def _block_array(blocks) -> np.ndarray:
    """``blocks`` as a contiguous (k, u, u, u) array, k >= 1, of its
    scalar type."""
    arr = scalar_array(blocks)
    if arr.ndim != 4 or not len(arr) or not arr.shape[1] == arr.shape[2] == arr.shape[3]:
        raise ShapeError(f"expected a nonempty (k, u, u, u) block array, got shape {arr.shape}")
    return arr


def linear_merge(blocks: np.ndarray) -> MergedArray:
    """Stack the (k, u, u, u) block array along z into a (u, u, u*k) array,
    a reshape of it."""
    arr = _block_array(blocks)
    k, u = arr.shape[:2]
    return MergedArray(values=arr.reshape(k * u, u, u), k=k, u=u, arrangement=LINEAR)


def _stack_grid(k: int) -> tuple[int, int, int]:
    """Smallest slot grid holding k blocks: minimize the longest edge, then
    the total slot count; the largest factor goes to z."""
    m = 1
    while m * m * m < k:
        m += 1
    best = None
    for gx in range(1, m + 1):
        for gy in range(gx, m + 1):
            for gz in range(gy, m + 1):
                if max(gx, gy, gz) != m or gx * gy * gz < k:
                    continue
                cand = (gx * gy * gz, gx, gy, gz)
                if best is None or cand < best:
                    best = cand
    assert best is not None
    return (best[1], best[2], best[3])


def stack_merge(blocks: np.ndarray) -> MergedArray:
    """Pack the (k, u, u, u) block array into a near-cubic grid of u-cube
    slots.

    Slots are filled row-major (x fastest); leftover slots hold the mean of
    the last block, taken in float64 and rounded to the blocks' type, so
    they compress to almost nothing.
    """
    arr = _block_array(blocks)
    k, u = arr.shape[:2]
    gx, gy, gz = _stack_grid(k)
    slots = np.full((gz * gy * gx, u, u, u), arr[-1].mean(dtype=np.float64), dtype=arr.dtype)
    slots[:k] = arr
    values = np.empty((gz * u, gy * u, gx * u), dtype=arr.dtype)
    block_view(values, u)[...] = slots.reshape(gz, gy, gx, u, u, u)
    return MergedArray(values=values, k=k, u=u, arrangement=STACKED)


def _extrapolate_layer(values: np.ndarray, axis: int) -> np.ndarray:
    """Append one layer along ``axis`` continuing the last two layers
    linearly; with a single layer available, replicate it."""
    n = values.shape[axis]
    last = np.take(values, [n - 1], axis=axis)
    if n < 2:
        new = last
    else:
        prev = np.take(values, [n - 2], axis=axis)
        new = 2.0 * last - prev
    return np.concatenate([values, new], axis=axis)


def pad_linear(m: MergedArray) -> MergedArray:
    """Grow one extrapolated layer on the high-x and high-y faces of a
    linear merge.

    The x face is extended first, then the y face including the fresh x
    layer, so the corner line extrapolates from already-padded values.
    """
    if m.arrangement != LINEAR:
        raise ShapeError("padding applies to linear arrangements only")
    if m.padded:
        raise ShapeError("array is already padded")
    values = _extrapolate_layer(m.values, axis=2)
    values = _extrapolate_layer(values, axis=1)
    return replace(m, values=values, padded=True)


def unpad(values: np.ndarray) -> np.ndarray:
    """The padded linear merge ``values`` without its extrapolated x and y
    layers: a view."""
    return values[:, :-1, :-1]


def unmerge(values: np.ndarray, u: int, k: int) -> np.ndarray:
    """Split the unpadded merged array ``values`` of k u-blocks back into
    its (k, u, u, u) block array, filler slots dropped."""
    # a linear merge is a (k, 1, 1) slot grid, so both split the same way
    # and the linear one stays a view
    return block_view(values, u).reshape(-1, u, u, u)[:k]
