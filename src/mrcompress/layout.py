"""Arranging unit blocks into compressible arrays.

Multi-resolution levels are bags of small cubic blocks. Compressors want one
dense array, so blocks are either concatenated along z ("linear", the default)
or packed into a near-cubic grid of slots ("stacked"). Linear arrangements may
additionally grow a single extrapolated layer on the high-x and high-y faces,
which removes one-sided interpolation targets at the cost of
(u+1)^2 / u^2 extra samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError, StateError
from .grid import BlockCoord, Dims, _is_pow2, block_view

LINEAR = "linear"
STACKED = "stacked"
PAD_MIN_U = 4  # padding pays off only above this unit-block edge


@dataclass(frozen=True)
class UnitBlock:
    """One cubic tile of a level, u cells on a side."""

    coord: BlockCoord
    u: int
    data: np.ndarray  # shape (u, u, u), z-major like Volume.data

    def __post_init__(self):
        if not _is_pow2(self.u):
            raise ShapeError(f"unit size must be a power of two, got {self.u}")
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.shape != (self.u, self.u, self.u):
            raise ShapeError(
                f"block payload shape {arr.shape} does not match u={self.u}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class MergedArray:
    """Dense array produced by merging unit blocks, plus enough bookkeeping
    to take it apart again."""

    values: np.ndarray  # shape (dz, dy, dx)
    order: tuple[BlockCoord, ...]
    u: int
    arrangement: str
    padded: bool = False

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError("merged payload must be 3D")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "order", tuple(self.order))
        if not _is_pow2(self.u):
            raise ShapeError(f"unit size must be a power of two, got {self.u}")
        if self.arrangement not in (LINEAR, STACKED):
            raise ShapeError(f"unknown arrangement {self.arrangement!r}")
        dz, dy, dx = arr.shape
        k = len(self.order)
        if self.arrangement == LINEAR:
            want_xy = self.u + 1 if self.padded else self.u
            if (dx, dy, dz) != (want_xy, want_xy, self.u * k):
                raise ShapeError(
                    f"linear merge of {k} u={self.u} blocks cannot have dims "
                    f"({dx}, {dy}, {dz})"
                )
        else:
            if self.padded:
                raise ShapeError("stacked arrangements are never padded")
            if dx % self.u or dy % self.u or dz % self.u:
                raise ShapeError(f"stacked dims ({dx}, {dy}, {dz}) not a u={self.u} grid")
            if (dx // self.u) * (dy // self.u) * (dz // self.u) < k:
                raise ShapeError(f"stacked grid too small for {k} blocks")

    @property
    def dims(self) -> Dims:
        dz, dy, dx = self.values.shape
        return (dx, dy, dz)

    @property
    def n_blocks(self) -> int:
        return len(self.order)


def _check_blocks(blocks) -> int:
    if not blocks:
        raise ShapeError("cannot merge an empty block list")
    u = blocks[0].u
    for blk in blocks:
        if blk.u != u:
            raise ShapeError(f"mixed unit sizes {u} and {blk.u} in one merge")
    return u


def _sorted_blocks(blocks):
    return sorted(blocks, key=lambda blk: (blk.coord.bz, blk.coord.by, blk.coord.bx))


def linear_merge(blocks: list[UnitBlock]) -> MergedArray:
    """Concatenate k unit blocks along z into a (u, u, u*k) array.

    Blocks are ordered by (bz, by, bx) ascending so the layout is a pure
    function of the block set.
    """
    u = _check_blocks(blocks)
    ordered = _sorted_blocks(blocks)
    stacked = np.concatenate([blk.data for blk in ordered], axis=0)
    return MergedArray(
        values=stacked,
        order=tuple(blk.coord for blk in ordered),
        u=u,
        arrangement=LINEAR,
    )


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


def stack_merge(blocks: list[UnitBlock]) -> MergedArray:
    """Pack blocks into a near-cubic grid of u-cube slots.

    Slots are filled row-major (x fastest); leftover slots hold the mean of
    the last real block so they compress to almost nothing.
    """
    u = _check_blocks(blocks)
    ordered = _sorted_blocks(blocks)
    gx, gy, gz = _stack_grid(len(ordered))
    slots = np.full((gz, gy, gx, u, u, u), float(ordered[-1].data.mean()))
    np.stack([blk.data for blk in ordered], out=slots.reshape(-1, u, u, u)[: len(ordered)])
    values = np.empty((gz * u, gy * u, gx * u), dtype=np.float64)
    block_view(values, u)[...] = slots
    return MergedArray(
        values=values,
        order=tuple(blk.coord for blk in ordered),
        u=u,
        arrangement=STACKED,
    )


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
    """Grow one extrapolated layer on the high-x and high-y faces.

    Padding pays off only for unit sizes above ``PAD_MIN_U``; at or below
    that the array is returned unchanged with ``padded`` still False.
    The x face is extended first, then the y face including the fresh x
    layer, so the corner line extrapolates from already-padded values.
    """
    if m.arrangement != LINEAR:
        raise StateError("padding applies to linear arrangements only")
    if m.padded:
        raise StateError("array is already padded")
    if m.u <= PAD_MIN_U:
        return m
    values = _extrapolate_layer(m.values, axis=2)
    values = _extrapolate_layer(values, axis=1)
    return replace(m, values=values, padded=True)


def unpad(m: MergedArray) -> MergedArray:
    """Drop the extrapolated x and y layers again."""
    if not m.padded:
        raise StateError("array is not padded")
    dz, dy, dx = m.values.shape
    return replace(m, values=m.values[:, : dy - 1, : dx - 1], padded=False)


def unmerge(m: MergedArray) -> list[UnitBlock]:
    """Split a merged array back into its unit blocks, filler slots dropped."""
    if m.padded:
        raise StateError("unpad before unmerging")
    # a linear merge is a (k, 1, 1) slot grid, so both split the same way
    # and the linear one stays a view
    slots = block_view(m.values, m.u).reshape(-1, m.u, m.u, m.u)
    return [UnitBlock(coord, m.u, data) for coord, data in zip(m.order, slots)]


def padding_overhead(u: int) -> float:
    """Size ratio padded/unpadded for a linear merge of u-blocks."""
    return (u + 1) ** 2 / u**2
