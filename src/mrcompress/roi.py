"""Region-of-interest selection and two-level adaptive datasets.

The selector ranks b-cube blocks by their value range and keeps the top
x percent at full resolution, as the fine level's (gz, gy, gx) occupancy
grid; everything else is downsampled once. The result is a block-structured
dataset that is reassembled into a uniform grid coarsest level first, and
externally produced AMR level sets can be ingested into the same shape.
Volumes enter through the selector and leave through the reassembly;
levels hold plain arrays.
:func:`check_tiling` states how levels fit together; a dataset checks its
levels with it, and the container reader checks a file's level records with
it before it decodes any payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, ShapeError
from .grid import (
    Dims,
    Volume,
    _is_pow2,
    block_grid,
    block_ranges,
    block_view,
    downsample2x,
    scalar_array,
    upsample2x,
)


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
    """One resolution level: the u-blocks of a ``dims`` grid that
    ``occupancy``, a (gz, gy, gx) bool array, flags, held as one
    (k, u, u, u) array in ``np.argwhere(occupancy)`` order, of the scalar
    type :func:`~mrcompress.grid.scalar_array` keeps."""

    dims: Dims
    u: int
    occupancy: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        if not _is_pow2(self.u):
            raise ShapeError(f"unit size must be a power of two, got {self.u}")
        gx, gy, gz = block_grid(self.dims, self.u)
        occ = np.array(self.occupancy, dtype=bool)
        if occ.shape != (gz, gy, gx):
            raise ShapeError(f"occupancy of shape {occ.shape} on a ({gz}, {gy}, {gx}) block grid")
        blocks = scalar_array(self.blocks)
        want = (int(occ.sum()),) + (self.u,) * 3
        if blocks.shape != want:
            raise ShapeError(f"blocks of shape {blocks.shape} for {want[0]} occupied u={self.u} cells")
        occ.flags.writeable = blocks.flags.writeable = False
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True)
class MultiResDataset:
    """Levels ordered fine to coarse with refinement ratio 2 between
    neighbors: level li's dims times 2**li are the finest dims. The levels'
    blocks tile the finest grid exactly once."""

    levels: tuple[Level, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ShapeError("dataset needs at least one level")
        check_tiling(self.levels)

    def densities(self) -> list[float]:
        """Fraction of the domain carried by each level; they sum to 1."""
        nx, ny, nz = self.levels[0].dims
        total = nx * ny * nz
        return [len(lv.blocks) * (lv.u * 2**li) ** 3 / total
                for li, lv in enumerate(self.levels)]


def select_roi(v: Volume, cfg: RoiConfig) -> np.ndarray:
    """The (gz, gy, gx) occupancy grid of the top x percent of blocks by
    value range. Ties go to the lower block index, and the quota is
    ceil(x/100 * block count), so at least one block is always chosen."""
    gx, gy, gz = block_grid(v.dims, cfg.b)
    ranges = block_ranges(v.data, cfg.b)
    quota = max(1, min(int(np.ceil(cfg.x_percent / 100.0 * ranges.size)), ranges.size))
    # stable sort on descending range keeps equal-range blocks in index order
    order = np.argsort(-ranges, kind="stable")
    occupancy = np.zeros((gz, gy, gx), dtype=bool)
    occupancy.reshape(-1)[order[:quota]] = True
    return occupancy


def build_adaptive(v: Volume, occupancy: np.ndarray, cfg: RoiConfig) -> MultiResDataset:
    """Two-level dataset from the (gz, gy, gx) ROI ``occupancy``: occupied
    blocks verbatim at u=b, the rest downsampled once into u=b/2 blocks on
    the half-resolution grid, both of the volume's scalar type."""
    gx, gy, gz = block_grid(v.dims, cfg.b)
    occ = np.asarray(occupancy, dtype=bool)
    if occ.shape != (gz, gy, gx):
        raise ShapeError(f"ROI occupancy of shape {occ.shape} on a ({gz}, {gy}, {gx}) block grid")
    cu = cfg.b // 2
    nx, ny, nz = v.dims
    fine = Level(v.dims, cfg.b, occ, block_view(v.data, cfg.b)[occ])
    coarse = Level((nx // 2, ny // 2, nz // 2), cu, ~occ, block_view(downsample2x(v.data), cu)[~occ])
    return MultiResDataset(levels=(fine, coarse))


def check_tiling(levels) -> None:
    """Check that ``levels``, ordered fine to coarse, fit together: each
    is tiled (u > 0), level li's dims times 2**li are the finest dims
    (else ShapeError), and the occupied blocks own every finest-grid cell
    exactly once (else CoverageError).

    A level needs only ``dims``, ``u`` and ``occupancy``, so the container
    reader checks its level records with this before it decodes a payload.
    Cells are counted on a lattice coarsened to the smallest block
    footprint: the occupancy grid of the level with that footprint, so the
    counter is no larger than an array the caller already holds.
    """
    fine = tuple(levels[0].dims)
    for li, lv in enumerate(levels):
        if not lv.u:
            raise ShapeError(f"level {li} is a whole volume, not a tiled level")
        if tuple(d * 2**li for d in lv.dims) != fine:
            raise ShapeError(f"level {li} dims {tuple(lv.dims)} break the 2x refinement chain from {fine}")
    nx, ny, nz = fine
    footprints = [lv.u * 2**li for li, lv in enumerate(levels)]
    covered = sum(int(lv.occupancy.sum()) * fp**3 for lv, fp in zip(levels, footprints))
    if covered != nx * ny * nz:
        raise CoverageError(f"levels cover {covered} cells of a {nx * ny * nz}-cell domain")
    g = min(footprints)
    counter = np.zeros((nz // g, ny // g, nx // g), dtype=np.int32)
    for lv, fp in zip(levels, footprints):
        # each occupancy cell spreads over its footprint's lattice cells
        block_view(counter, fp // g)[...] += lv.occupancy[..., None, None, None]
    if (counter != 1).any():
        over = int((counter > 1).sum())
        gaps = int((counter == 0).sum())
        raise CoverageError(
            f"levels do not tile the domain: {over} overlapping and {gaps} "
            f"uncovered lattice cells"
        )


def reconstruct_uniform(ds: MultiResDataset) -> Volume:
    """Expand the levels onto the finest grid, coarsest first: the coarsest
    level pastes its blocks into a grid of its dims, zeroed unless it is the
    finest, and each finer one doubles the grid with ``upsample2x`` and
    pastes its blocks with one masked write. The levels tile the grid, so
    every cell ends up with the value of the level that owns it, replicated
    exactly, in the levels' scalar type. The finest grid is allocated before
    the coarser ones: allocated after them, it took fresh pages and raised
    the cli-roi chain's peak RSS by 2 MB. The result is checked for
    finiteness once, as it is adopted."""
    dtype = np.result_type(*(lv.blocks for lv in ds.levels))
    out = np.empty(ds.levels[0].dims[::-1], dtype=dtype)
    grid = None
    for lv in reversed(ds.levels):
        dest = out if lv is ds.levels[0] else np.zeros(lv.dims[::-1], dtype=dtype)
        grid = dest if grid is None else upsample2x(grid, dest)
        block_view(grid, lv.u)[lv.occupancy] = lv.blocks
    return Volume._adopt(out)


def ingest_amr(levels) -> MultiResDataset:
    """Adopt an externally produced AMR hierarchy.

    ``levels`` is ordered fine to coarse as (dims, u, coords, data) with
    dims halving between neighbors: ``coords`` is a (k, 3) array of block
    positions (bx, by, bz) on the level's u-grid and ``data`` the (k, u, u, u)
    block values in the same order (k may be 0), kept float32 when they are
    4-byte floats and float64 otherwise. Blocks are re-sorted into
    block-index order, and the refinement chain and disjoint-coverage
    invariants are enforced.
    """
    if not levels:
        raise ShapeError("need at least one level")
    norm = []
    for dims, u, coords, data in levels:
        grid = block_grid(dims, u)
        xyz = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        blocks = scalar_array(data)
        if len(blocks) != len(xyz):
            raise ShapeError(f"{len(xyz)} block coords for {len(blocks)} blocks")
        if ((xyz < 0) | (xyz >= grid)).any():
            raise ShapeError(f"a block coord lies outside the level grid {grid}")
        flat = np.ravel_multi_index(xyz[:, ::-1].T, grid[::-1])
        if np.unique(flat).size != flat.size:
            raise CoverageError("two blocks of one level share a coord")
        occupancy = np.zeros(grid[::-1], dtype=bool)
        occupancy.reshape(-1)[flat] = True
        norm.append(Level(dims, u, occupancy, blocks[np.argsort(flat)]))
    return MultiResDataset(levels=tuple(norm))
