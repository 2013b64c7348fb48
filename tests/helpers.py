"""Synthetic fields and small utilities shared across the test suite."""

import numpy as np
from scipy.special import ndtr

from mrcompress.errors import ShapeError
from mrcompress.grid import BlockCoord, Dims, Volume
from mrcompress.layout import UnitBlock
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
