"""Synthetic fields and small utilities shared across the test suite."""

import numpy as np
from scipy.special import ndtr

from mrcompress.errors import ShapeError, StateError
from mrcompress.grid import BlockCoord, Dims, Volume, block_grid, downsample2x, upsample2x
from mrcompress.layout import (
    LINEAR,
    STACKED,
    MergedArray,
    UnitBlock,
    _check_blocks,
    _sorted_blocks,
    _stack_grid,
)
from mrcompress.roi import Level, MultiResDataset, RoiConfig, _coverage_check, _mask_grid
from mrcompress.uncertainty import ErrorModel


def coords(dims):
    nx, ny, nz = dims
    return np.meshgrid(
        np.arange(nz, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nx, dtype=np.float64),
        indexing="ij",
    )


def smooth_field(dims, seed=0, noise=0.0) -> Volume:
    zz, yy, xx = coords(dims)
    nx, ny, nz = dims
    data = (
        np.sin(2.6 * np.pi * xx / max(nx, 2))
        * np.cos(1.7 * np.pi * yy / max(ny, 2))
        + 0.5 * np.sin(2.1 * np.pi * zz / max(nz, 2))
    )
    if noise:
        rng = np.random.default_rng(seed)
        data = data + noise * rng.standard_normal(data.shape)
    return Volume(data)


def noisy_field(dims, seed=0, scale=1.0) -> Volume:
    rng = np.random.default_rng(seed)
    nz, ny, nx = dims[2], dims[1], dims[0]
    return Volume(scale * rng.standard_normal((nz, ny, nx)))


def gaussian_bumps(dims, centers, widths, amps, background=0.0) -> Volume:
    """Sum of Gaussians; centers in (x, y, z) order."""
    zz, yy, xx = coords(dims)
    data = np.full(zz.shape, background, dtype=np.float64)
    for (cx, cy, cz), w, a in zip(centers, widths, amps):
        data += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2) / (2.0 * w**2))
    return Volume(data)


def sum_of_gaussians(dims, n=6, seed=0) -> Volume:
    rng = np.random.default_rng(seed)
    nx, ny, nz = dims
    centers = np.column_stack(
        [rng.uniform(0, nx, n), rng.uniform(0, ny, n), rng.uniform(0, nz, n)]
    )
    widths = rng.uniform(min(dims) / 12, min(dims) / 5, n)
    amps = rng.uniform(0.5, 1.5, n)
    return gaussian_bumps(dims, centers, widths, amps)


def max_abs_err(a: Volume, b: Volume) -> float:
    return float(np.abs(a.data - b.data).max())


def signed_zero_field(dims, seed=0) -> Volume:
    """A smooth field whose low-z half is -0.0 and next two planes +0.0,
    with spikes no code reaches (their neighbors store -0.0 as literals)
    and -1e-13 specks that quantize to 0 against -0.0 predictions."""
    data = smooth_field(dims, seed=seed, noise=0.01).data.copy()
    half = data.shape[0] // 2
    data[:half] = -0.0
    data[half : half + 2] = 0.0
    flat = data.reshape(-1)
    flat[::13] = 1e4
    flat[5::7] = -1e-13
    return Volume(data)


def tile_volume(vol: Volume, u: int) -> list:
    """Split a volume into unit blocks covering it exactly."""
    if u < 1:
        raise ShapeError(f"unit-block edge must be >= 1, got {u}")
    nx, ny, nz = vol.dims
    if nx % u or ny % u or nz % u:
        raise ShapeError(f"dims {vol.dims} not divisible by unit-block edge {u}")
    blocks = []
    for bz in range(nz // u):
        for by in range(ny // u):
            for bx in range(nx // u):
                sub = vol.data[
                    bz * u : (bz + 1) * u,
                    by * u : (by + 1) * u,
                    bx * u : (bx + 1) * u,
                ]
                blocks.append(UnitBlock(coord=BlockCoord(bx, by, bz, u), u=u, data=sub))
    return blocks


def assemble_volume(blocks, dims: Dims) -> Volume:
    """Place unit blocks back onto a full grid of the given dims."""
    if not blocks:
        raise ShapeError("no blocks to assemble")
    nx, ny, nz = dims
    out = np.zeros((nz, ny, nx), dtype=np.float64)
    seen = np.zeros((nz, ny, nx), dtype=bool)
    for b in blocks:
        u = b.u
        c = b.coord
        if (c.bx + 1) * u > nx or (c.by + 1) * u > ny or (c.bz + 1) * u > nz:
            raise ShapeError(f"block {c} outside dims {dims}")
        sl = (
            slice(c.bz * u, (c.bz + 1) * u),
            slice(c.by * u, (c.by + 1) * u),
            slice(c.bx * u, (c.bx + 1) * u),
        )
        if seen[sl].any():
            raise ShapeError(f"block {c} overlaps previously placed data")
        out[sl] = b.data
        seen[sl] = True
    if not seen.all():
        raise ShapeError("blocks do not cover the requested dims")
    return Volume(out)


def _below_probability(values, isovalue: float, model: ErrorModel) -> np.ndarray:
    """P(corner true value < isovalue) per corner."""
    centered = np.asarray(values, dtype=np.float64) + model.mu
    if model.sigma2 > 0.0:
        return ndtr((isovalue - centered) / model.sigma)
    return (centered < isovalue).astype(np.float64)


def cell_crossing_probability(corners, isovalue: float, model: ErrorModel) -> float:
    """Probability that the isosurface crosses a cell with the given eight
    decompressed corner values."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1)
    if corners.size != 8:
        raise ShapeError(f"a cell has 8 corners, got {corners.size}")
    q = _below_probability(corners, isovalue, model)
    p = 1.0 - np.prod(q) - np.prod(1.0 - q)
    return float(min(max(p, 0.0), 1.0))


# ------------------------------------------------------------ per-block references
# The block cutting, merging, splitting and pasting of mrcompress as it was
# before blocks went through ``grid.block_view``, kept verbatim (bar the
# names) so the view-based code can be checked against it byte for byte.


def _block_slices(c: BlockCoord) -> tuple[slice, slice, slice]:
    """(z, y, x) slices of the block's footprint in a volume array."""
    return (
        slice(c.bz * c.b, (c.bz + 1) * c.b),
        slice(c.by * c.b, (c.by + 1) * c.b),
        slice(c.bx * c.b, (c.bx + 1) * c.b),
    )


def build_adaptive_per_block(v: Volume, mask: np.ndarray, cfg: RoiConfig) -> MultiResDataset:
    """Two-level dataset: masked blocks verbatim at u=b, the rest downsampled
    once into u=b/2 blocks on the half-resolution grid."""
    grid = block_grid(v.dims, cfg.b)
    m3 = _mask_grid(np.asarray(mask, dtype=bool).reshape(-1), grid)
    fine_blocks = []
    coarse_blocks = []
    cu = cfg.b // 2
    gx, gy, gz = grid
    for bz in range(gz):
        for by in range(gy):
            for bx in range(gx):
                coord = BlockCoord(bx, by, bz, cfg.b)
                sub = v.data[_block_slices(coord)]
                if m3[bz, by, bx]:
                    fine_blocks.append(UnitBlock(BlockCoord(bx, by, bz, cfg.b), cfg.b, sub))
                else:
                    down = downsample2x(Volume(sub))
                    coarse_blocks.append(
                        UnitBlock(BlockCoord(bx, by, bz, cu), cu, down.data)
                    )
    nx, ny, nz = v.dims
    fine = Level(dims=v.dims, u=cfg.b, blocks=tuple(fine_blocks))
    coarse = Level(dims=(nx // 2, ny // 2, nz // 2), u=cu, blocks=tuple(coarse_blocks))
    return MultiResDataset(levels=(fine, coarse), roi_mask=m3.reshape(-1))


def reconstruct_uniform_per_block(ds: MultiResDataset) -> Volume:
    """Paste every level back onto the finest grid, upsampling coarse blocks
    by their level's scale."""
    _coverage_check(ds)
    nx, ny, nz = ds.fine_dims
    out = np.empty((nz, ny, nx), dtype=np.float64)
    for li, lv in enumerate(ds.levels):
        scale = ds.level_scale(li)
        fp = lv.u * scale
        for blk in lv.blocks:
            data = blk.data
            if scale > 1:
                v = Volume(data)
                for _ in range(int(np.log2(scale))):
                    v = upsample2x(v)
                data = v.data
            c = blk.coord
            out[
                c.bz * fp:(c.bz + 1) * fp,
                c.by * fp:(c.by + 1) * fp,
                c.bx * fp:(c.bx + 1) * fp,
            ] = data
    return Volume(out)


def stack_merge_per_block(blocks: list[UnitBlock]) -> MergedArray:
    """Pack blocks into a near-cubic grid of u-cube slots.

    Slots are filled row-major (x fastest); leftover slots hold the mean of
    the last real block so they compress to almost nothing.
    """
    u = _check_blocks(blocks)
    ordered = _sorted_blocks(blocks)
    k = len(ordered)
    gx, gy, gz = _stack_grid(k)
    values = np.empty((gz * u, gy * u, gx * u), dtype=np.float64)
    filler = float(ordered[-1].data.mean())
    for slot in range(gx * gy * gz):
        sx = slot % gx
        sy = (slot // gx) % gy
        sz = slot // (gx * gy)
        dest = values[sz * u:(sz + 1) * u, sy * u:(sy + 1) * u, sx * u:(sx + 1) * u]
        if slot < k:
            dest[:] = ordered[slot].data
        else:
            dest[:] = filler
    return MergedArray(
        values=values,
        order=tuple(blk.coord for blk in ordered),
        u=u,
        arrangement=STACKED,
    )


def unmerge_per_block(m: MergedArray) -> list[UnitBlock]:
    """Split a merged array back into its unit blocks, filler slots dropped."""
    if m.padded:
        raise StateError("unpad before unmerging")
    u = m.u
    _, dy, dx = m.values.shape
    blocks = []
    # MergedArray guarantees the linear dims and the stacked u-grid
    if m.arrangement == LINEAR:
        for i, coord in enumerate(m.order):
            blocks.append(UnitBlock(coord, u, m.values[i * u:(i + 1) * u]))
    else:
        gx, gy = dx // u, dy // u
        for slot, coord in enumerate(m.order):
            sx = slot % gx
            sy = (slot // gx) % gy
            sz = slot // (gx * gy)
            data = m.values[
                sz * u:(sz + 1) * u, sy * u:(sy + 1) * u, sx * u:(sx + 1) * u
            ]
            blocks.append(UnitBlock(coord, u, data))
    return blocks
