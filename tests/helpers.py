"""Synthetic fields and small utilities shared across the test suite."""

from collections import namedtuple

import numpy as np
from scipy.special import ndtr

from mrcompress.errors import ShapeError
from mrcompress.grid import Volume, block_grid, block_view, downsample2x, upsample2x
from mrcompress.layout import LINEAR, STACKED, MergedArray, _stack_grid
from mrcompress.postprocess import _AXIS_ORDER, IntensityConfig
from mrcompress.roi import Level, RoiConfig
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


def padding_overhead(u: int) -> float:
    """Size ratio padded/unpadded for a linear merge of u-blocks."""
    return (u + 1) ** 2 / u**2


def postprocess_allowance(shape, blocksize: int, cfg: IntensityConfig) -> np.ndarray:
    """Per-point worst-case total adjustment of the post filter in units of
    eb: the sum of the axis intensities whose passes may touch the point.
    Zero away from boundaries."""
    allow = np.zeros(shape, dtype=np.float64)
    for a, axis in zip(cfg.chosen, _AXIS_ORDER):
        # the last point of every block that has a next-block neighbor
        pos = np.arange(blocksize - 1, shape[axis] - 1, blocksize) if blocksize > 1 else []
        sl = [slice(None)] * 3
        sl[axis] = pos
        allow[tuple(sl)] += a
    return allow


def downsample2x_mean(a: np.ndarray) -> np.ndarray:
    """2x pooling of a (z, y, x) array as numpy's mean over the cell axes
    of the 6-D reshape: the formula ``grid.downsample2x`` must match bit
    for bit."""
    nz, ny, nx = a.shape
    return a.reshape(nz // 2, 2, ny // 2, 2, nx // 2, 2).mean(axis=(1, 3, 5))


def block_ranges_6d(a: np.ndarray, b: int) -> np.ndarray:
    """Per-block max - min of a (z, y, x) array over the 6-D
    ``block_view``, flat in block-index order: the formula
    ``grid.block_ranges`` must match bit for bit."""
    cells = block_view(a, b)
    return (cells.max(axis=(3, 4, 5)) - cells.min(axis=(3, 4, 5))).reshape(-1)


def max_abs_err(a, b) -> float:
    """Largest |a - b| over two Volumes or (z, y, x) arrays of one shape."""
    a, b = (np.asarray(x.data if isinstance(x, Volume) else x, dtype=np.float64) for x in (a, b))
    assert a.shape == b.shape, f"shapes differ: {a.shape} vs {b.shape}"
    return float(np.abs(a - b).max())


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


# One unit block of the per-block references below: its position (bx, by, bz)
# on its level's u-grid, its edge and its (u, u, u) values.
RefBlock = namedtuple("RefBlock", "coord u data")


def tile_blocks(vol: Volume, u: int) -> list:
    """Split a volume into per-block references covering it exactly, in
    block-index order."""
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
                blocks.append(RefBlock((bx, by, bz), u, sub))
    return blocks


def tile_volume(vol: Volume, u: int) -> Level:
    """The level of u-blocks covering a volume exactly."""
    blocks = tile_blocks(vol, u)
    gx, gy, gz = block_grid(vol.dims, u)
    return Level(vol.dims, u, np.ones((gz, gy, gx), dtype=bool), np.stack([b.data for b in blocks]))


def assemble_volume(level: Level) -> Volume:
    """Paste a level's blocks onto its grid, which they must cover."""
    nx, ny, nz = level.dims
    u = level.u
    if not level.occupancy.all():
        raise ShapeError("blocks do not cover the level's dims")
    out = np.zeros((nz, ny, nx), dtype=np.float64)
    for (bz, by, bx), data in zip(np.argwhere(level.occupancy), level.blocks):
        out[bz * u : (bz + 1) * u, by * u : (by + 1) * u, bx * u : (bx + 1) * u] = data
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
# before levels became occupancy grids with one block array, one RefBlock per
# block, so the array-based code can be checked against it byte for byte. A
# reference level is (dims, u, blocks) with its blocks in block-index order.


def _block_slices(coord, b: int) -> tuple[slice, slice, slice]:
    """(z, y, x) slices of the footprint of block ``coord`` of edge b."""
    bx, by, bz = coord
    return (
        slice(bz * b, (bz + 1) * b),
        slice(by * b, (by + 1) * b),
        slice(bx * b, (bx + 1) * b),
    )


def sorted_blocks(blocks) -> list:
    """Reference blocks in block-index order."""
    return sorted(blocks, key=lambda blk: blk.coord[::-1])


def build_adaptive_per_block(v: Volume, mask: np.ndarray, cfg: RoiConfig):
    """Two-level reference: masked blocks verbatim at u=b, the rest
    downsampled once into u=b/2 blocks on the half-resolution grid. Returns
    the levels and the (gz, gy, gx) mask."""
    gx, gy, gz = block_grid(v.dims, cfg.b)
    m3 = np.asarray(mask, dtype=bool).reshape(gz, gy, gx)
    fine_blocks = []
    coarse_blocks = []
    cu = cfg.b // 2
    for bz in range(gz):
        for by in range(gy):
            for bx in range(gx):
                sub = v.data[_block_slices((bx, by, bz), cfg.b)]
                if m3[bz, by, bx]:
                    fine_blocks.append(RefBlock((bx, by, bz), cfg.b, sub))
                else:
                    coarse_blocks.append(RefBlock((bx, by, bz), cu, downsample2x(sub)))
    nx, ny, nz = v.dims
    levels = [(v.dims, cfg.b, fine_blocks), ((nx // 2, ny // 2, nz // 2), cu, coarse_blocks)]
    return levels, m3


def reconstruct_uniform_per_block(levels) -> Volume:
    """Paste every reference level back onto the finest grid, upsampling
    coarse blocks by their level's scale."""
    nx, ny, nz = levels[0][0]
    out = np.empty((nz, ny, nx), dtype=np.float64)
    for li, (_, u, blocks) in enumerate(levels):
        scale = 2**li
        for blk in blocks:
            data = blk.data
            for _ in range(int(np.log2(scale))):
                data = upsample2x(data)
            out[_block_slices(blk.coord, u * scale)] = data
    return Volume(out)


def stack_merge_per_block(blocks) -> MergedArray:
    """Pack reference blocks into a near-cubic grid of u-cube slots.

    Slots are filled row-major (x fastest); leftover slots hold the mean of
    the last real block so they compress to almost nothing.
    """
    ordered = sorted_blocks(blocks)
    u = ordered[0].u
    k = len(ordered)
    gx, gy, gz = _stack_grid(k)
    values = np.empty((gz * u, gy * u, gx * u), dtype=np.float64)
    filler = float(np.ascontiguousarray(ordered[-1].data).mean())
    for slot in range(gx * gy * gz):
        sx = slot % gx
        sy = (slot // gx) % gy
        sz = slot // (gx * gy)
        dest = values[sz * u:(sz + 1) * u, sy * u:(sy + 1) * u, sx * u:(sx + 1) * u]
        if slot < k:
            dest[:] = ordered[slot].data
        else:
            dest[:] = filler
    return MergedArray(values=values, k=k, u=u, arrangement=STACKED)


def unmerge_per_block(m: MergedArray) -> list:
    """Split a merged array back into the (u, u, u) values of its blocks,
    filler slots dropped."""
    if m.padded:
        raise ShapeError("unpad before unmerging")
    u = m.u
    _, dy, dx = m.values.shape
    blocks = []
    # MergedArray guarantees the linear dims and the stacked u-grid
    if m.arrangement == LINEAR:
        for i in range(m.k):
            blocks.append(m.values[i * u:(i + 1) * u])
    else:
        gx, gy = dx // u, dy // u
        for slot in range(m.k):
            sx = slot % gx
            sy = (slot // gx) % gy
            sz = slot // (gx * gy)
            blocks.append(m.values[sz * u:(sz + 1) * u, sy * u:(sy + 1) * u, sx * u:(sx + 1) * u])
    return blocks


def same_level(level: Level, dims, u: int, blocks) -> None:
    """Assert that ``level`` holds exactly the reference ``blocks``, in
    block-index order, byte for byte."""
    assert (level.dims, level.u) == (tuple(dims), u)
    assert [tuple(c) for c in np.argwhere(level.occupancy)[:, ::-1].tolist()] == [b.coord for b in blocks]
    assert level.blocks.tobytes() == b"".join(np.ascontiguousarray(b.data).tobytes() for b in blocks)
