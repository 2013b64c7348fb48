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
    block_slices,
    downsample2x,
    upsample2x,
)
from .layout import UnitBlock


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
    neighbors. ``roi_mask`` flags which finest-grid blocks are stored at
    full resolution (flat, block-index order)."""

    levels: tuple[Level, ...]
    roi_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ShapeError("dataset needs at least one level")
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


def build_adaptive(v: Volume, mask: np.ndarray, cfg: RoiConfig) -> MultiResDataset:
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
                sub = v.data[block_slices(coord)]
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
    for li, lv in enumerate(ds.levels):
        fp = footprints[li]
        step = fp // g
        for blk in lv.blocks:
            c = blk.coord
            counter[
                c.bz * step:(c.bz + 1) * step,
                c.by * step:(c.by + 1) * step,
                c.bx * step:(c.bx + 1) * step,
            ] += 1
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


def ingest_amr(levels: list[tuple[Dims, int, list[UnitBlock]]]) -> MultiResDataset:
    """Adopt an externally produced AMR hierarchy.

    ``levels`` is ordered fine to coarse as (dims, u, blocks) with dims halving
    between neighbors. Blocks are re-sorted into canonical (bz, by, bx) order
    and the disjoint-coverage invariant is enforced.
    """
    if not levels:
        raise ShapeError("need at least one level")
    norm = []
    prev_dims = None
    for dims, u, blocks in levels:
        if prev_dims is not None:
            want = (prev_dims[0] // 2, prev_dims[1] // 2, prev_dims[2] // 2)
            if tuple(dims) != want:
                raise ShapeError(
                    f"level dims {tuple(dims)} break the 2x refinement chain "
                    f"(expected {want})"
                )
        ordered = sorted(blocks, key=lambda blk: (blk.coord.bz, blk.coord.by, blk.coord.bx))
        norm.append(Level(dims=tuple(dims), u=u, blocks=tuple(ordered)))
        prev_dims = tuple(dims)
    fine = norm[0]
    grid = block_grid(fine.dims, fine.u)
    mask = np.zeros(grid[0] * grid[1] * grid[2], dtype=bool)
    for blk in fine.blocks:
        c = blk.coord
        mask[c.bx + grid[0] * (c.by + grid[1] * c.bz)] = True
    ds = MultiResDataset(levels=tuple(norm), roi_mask=mask)
    _coverage_check(ds)
    return ds
