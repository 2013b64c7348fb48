"""Region-of-interest selection and two-level adaptive datasets.

The selector ranks b-cube blocks by their value range and keeps the top
x percent at full resolution; everything else is downsampled once. The result
is a block-structured dataset that can be reassembled into a uniform grid, and
externally produced AMR level sets can be ingested into the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, ShapeError
from .grid import (
    BlockCoord,
    Dims,
    Volume,
    _is_pow2,
    block_grid,
    block_ranges,
    block_view,
    downsample2x,
    upsample2x,
)
from .layout import UnitBlock, _sorted_blocks


@dataclass(frozen=True)
class RoiConfig:
    """Block partition and selection quota for ROI picking."""

    b: int
    x_percent: float

    def __post_init__(self):
        if not _is_pow2(self.b) or self.b < 8:
            raise ShapeError(f"ROI block edge must be a power of two >= 8, got {self.b}")
        if not (0.0 < self.x_percent <= 100.0):
            raise ShapeError(f"x_percent must be in (0, 100], got {self.x_percent}")


@dataclass(frozen=True)
class Level:
    """One resolution level: a bag of u-blocks on a grid of ``dims`` cells."""

    dims: Dims
    u: int
    blocks: tuple[UnitBlock, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        grid = block_grid(self.dims, self.u)
        for blk in self.blocks:
            if blk.u != self.u:
                raise ShapeError(f"block u={blk.u} in level with u={self.u}")
            c = blk.coord
            if not (c.bx < grid[0] and c.by < grid[1] and c.bz < grid[2]):
                raise ShapeError(f"block {c} outside level grid {grid}")


@dataclass(frozen=True)
class MultiResDataset:
    """Levels ordered fine to coarse with refinement ratio 2 between
    neighbors: level li's dims times 2**li are the finest dims. ``roi_mask``
    flags which finest-grid blocks are stored at full resolution (flat,
    block-index order)."""

    levels: tuple[Level, ...]
    roi_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ShapeError("dataset needs at least one level")
        fine = tuple(self.fine_dims)
        for li, lv in enumerate(self.levels):
            if tuple(d * 2**li for d in lv.dims) != fine:
                raise ShapeError(f"level {li} dims {tuple(lv.dims)} break the 2x refinement chain from {fine}")
        mask = np.asarray(self.roi_mask, dtype=bool).reshape(-1).copy()
        mask.flags.writeable = False
        object.__setattr__(self, "roi_mask", mask)

    @property
    def fine_dims(self) -> Dims:
        return self.levels[0].dims

    def level_scale(self, li: int) -> int:
        """Cell edge of level li measured in finest-grid cells."""
        return 2**li

    def densities(self) -> list[float]:
        """Fraction of the domain carried by each level; sums to 1 when the
        dataset covers the domain exactly once."""
        nx, ny, nz = self.fine_dims
        total = nx * ny * nz
        out = []
        for li, lv in enumerate(self.levels):
            scale = self.level_scale(li)
            covered = len(lv.blocks) * (lv.u * scale) ** 3
            out.append(covered / total)
        return out


def select_roi(v: Volume, cfg: RoiConfig) -> np.ndarray:
    """Boolean mask (flat, block-index order) of the top x percent of blocks
    by value range. Ties go to the lower block index, and the quota is
    ceil(x/100 * block count), so at least one block is always chosen."""
    grid = block_grid(v.dims, cfg.b)
    ranges = block_ranges(v, cfg.b)
    n_blocks = ranges.size
    quota = int(np.ceil(cfg.x_percent / 100.0 * n_blocks))
    quota = max(1, min(quota, n_blocks))
    # stable sort on descending range keeps equal-range blocks in index order
    order = np.argsort(-ranges, kind="stable")
    mask = np.zeros(n_blocks, dtype=bool)
    mask[order[:quota]] = True
    return mask


def _mask_grid(mask: np.ndarray, grid: Dims) -> np.ndarray:
    gx, gy, gz = grid
    if mask.size != gx * gy * gz:
        raise ShapeError(f"mask of {mask.size} bits does not match grid {grid}")
    return mask.reshape(gz, gy, gx)


def _cut(cubes: np.ndarray, keep: np.ndarray, u: int) -> tuple[UnitBlock, ...]:
    """The u-blocks of the block view ``cubes`` where the (gz, gy, gx) mask
    ``keep`` is set, in block-index order."""
    return tuple(
        UnitBlock(BlockCoord(bx, by, bz, u), u, cubes[bz, by, bx])
        for bz, by, bx in np.argwhere(keep).tolist()
    )


def build_adaptive(v: Volume, mask: np.ndarray, cfg: RoiConfig) -> MultiResDataset:
    """Two-level dataset: masked blocks verbatim at u=b, the rest downsampled
    once into u=b/2 blocks on the half-resolution grid."""
    m3 = _mask_grid(np.asarray(mask, dtype=bool).reshape(-1), block_grid(v.dims, cfg.b))
    cu = cfg.b // 2
    nx, ny, nz = v.dims
    fine = Level(dims=v.dims, u=cfg.b, blocks=_cut(block_view(v.data, cfg.b), m3, cfg.b))
    coarse = Level(dims=(nx // 2, ny // 2, nz // 2), u=cu,
                   blocks=_cut(block_view(downsample2x(v).data, cu), ~m3, cu))
    return MultiResDataset(levels=(fine, coarse), roi_mask=m3.reshape(-1))


def _coverage_check(ds: MultiResDataset) -> None:
    """Verify every finest-grid cell is owned by exactly one block.

    Runs on a lattice coarsened to the smallest block footprint, so the
    counter stays tiny even for large domains.
    """
    nx, ny, nz = ds.fine_dims
    footprints = [lv.u * ds.level_scale(li) for li, lv in enumerate(ds.levels)]
    # checked before the lattice is allocated, for dims read from a corrupt file
    covered = sum(len(lv.blocks) * fp**3 for lv, fp in zip(ds.levels, footprints))
    if covered != nx * ny * nz:
        raise CoverageError(f"levels cover {covered} cells of a {nx * ny * nz}-cell domain")
    g = int(np.gcd.reduce(np.array(footprints + [nx, ny, nz], dtype=np.int64)))
    counter = np.zeros((nz // g, ny // g, nx // g), dtype=np.int32)
    for lv, fp in zip(ds.levels, footprints):
        cells = block_view(counter, fp // g)
        for blk in lv.blocks:
            cells[blk.coord.bz, blk.coord.by, blk.coord.bx] += 1
    if (counter != 1).any():
        over = int((counter > 1).sum())
        gaps = int((counter == 0).sum())
        raise CoverageError(
            f"levels do not tile the domain: {over} overlapping and {gaps} "
            f"uncovered lattice cells"
        )


def reconstruct_uniform(ds: MultiResDataset) -> Volume:
    """Paste every level back onto the finest grid, upsampling coarse blocks
    by their level's scale."""
    _coverage_check(ds)
    nx, ny, nz = ds.fine_dims
    out = np.empty((nz, ny, nx), dtype=np.float64)
    for li, lv in enumerate(ds.levels):
        cells = block_view(out, lv.u * ds.level_scale(li))
        # one block at a time: upsampling a whole level at once raises the peak
        for blk in lv.blocks:
            data = blk.data
            if li:
                v = Volume(data)
                for _ in range(li):
                    v = upsample2x(v)
                data = v.data
            cells[blk.coord.bz, blk.coord.by, blk.coord.bx] = data
    return Volume(out)


def ingest_amr(levels: list[tuple[Dims, int, list[UnitBlock]]]) -> MultiResDataset:
    """Adopt an externally produced AMR hierarchy.

    ``levels`` is ordered fine to coarse as (dims, u, blocks) with dims halving
    between neighbors. Blocks are re-sorted into canonical (bz, by, bx) order
    and the refinement chain and disjoint-coverage invariants are enforced.
    """
    if not levels:
        raise ShapeError("need at least one level")
    norm = tuple(
        Level(dims=tuple(dims), u=u, blocks=tuple(_sorted_blocks(blocks)))
        for dims, u, blocks in levels
    )
    gx, gy, gz = block_grid(norm[0].dims, norm[0].u)
    mask = np.zeros((gz, gy, gx), dtype=bool)
    for blk in norm[0].blocks:
        mask[blk.coord.bz, blk.coord.by, blk.coord.bx] = True
    ds = MultiResDataset(levels=norm, roi_mask=mask)
    _coverage_check(ds)
    return ds
