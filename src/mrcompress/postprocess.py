"""Quadratic Bezier smoothing of block-boundary artifacts.

Block-partitioned codecs predict poorly at partition boundaries. For every
boundary-adjacent point d4 (last point of a block that has a next-block
neighbor d5 and an in-block neighbor d3), the midpoint of the Bezier curve
through (d3, d4, d5) replaces d4, clamped to d4 +- a*eb so the pointwise
guarantee degrades by at most the chosen intensity a. Axes are processed
x, y, z in turn, each reading the previous axis's output.

The intensity is picked per axis by coordinate descent over a small
family-specific candidate set, scored by L2 error against original values on
a few sampled block-aligned regions (at most 5 percent of the data).
Every function here takes and returns plain (z, y, x) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplingError, ShapeError

FAMILY_SZ = "sz"
FAMILY_ZFP = "zfp"

_CANDIDATES = {
    FAMILY_SZ: tuple(i / 20.0 for i in range(1, 11)),  # 0.05 .. 0.50
    FAMILY_ZFP: tuple(i / 200.0 for i in range(1, 11)),  # 0.005 .. 0.050
}


def family_candidates(family: str) -> tuple[float, ...]:
    if family not in _CANDIDATES:
        raise ShapeError(f"unknown post-processing family {family!r}")
    return _CANDIDATES[family]


@dataclass(frozen=True)
class IntensityConfig:
    """Clamp intensities chosen for the three axis passes."""

    family: str
    chosen: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple(self.chosen))
        if len(self.chosen) != 3:
            raise ShapeError("chosen intensities must cover the three axes")
        for a in self.chosen:
            if a not in self.candidates:
                raise ShapeError(f"intensity {a} is not one of the candidates")

    @property
    def candidates(self) -> tuple[float, ...]:
        return family_candidates(self.family)


def bezier_mid(d3, d4, d5):
    """Midpoint of the quadratic Bezier curve with control points d3, d4, d5."""
    return 0.25 * d3 + 0.5 * d4 + 0.25 * d5


def clamp_to_band(value, center, a: float, eb: float):
    """Clamp ``value`` into [center - a*eb, center + a*eb]."""
    band = a * eb
    return np.minimum(np.maximum(value, center - band), center + band)


def _axis_pass(arr: np.ndarray, axis: int, blocksize: int, a: float, eb: float) -> None:
    """Adjust boundary points along one array axis, in place. With b the
    blocksize, d4 is every b-th point from b - 1 on that has a next point;
    d3, d4 and d5 are strided basic slices of the axis swapped to the front."""
    b = blocksize
    if b < 2:
        return
    v = arr.swapaxes(0, axis)
    d4 = v[b - 1 : -1 : b]
    v[b - 1 : -1 : b] = clamp_to_band(bezier_mid(v[b - 2 : -2 : b], d4, v[b::b]), d4, a, eb)


# array axes in x, y, z processing order for (z, y, x)-shaped storage
_AXIS_ORDER = (2, 1, 0)


def apply_postprocess(decomp: np.ndarray, eb: float, blocksize: int, cfg: IntensityConfig) -> np.ndarray:
    """Run the three axis passes on a copy of the (z, y, x) array
    ``decomp`` and return it."""
    if blocksize < 1:
        raise ShapeError(f"blocksize must be positive, got {blocksize}")
    arr = np.array(decomp, dtype=np.float64)
    for a, axis in zip(cfg.chosen, _AXIS_ORDER):
        _axis_pass(arr, axis, blocksize, a, eb)
    return arr


@dataclass(frozen=True)
class SamplingPlan:
    """Block-aligned sample regions drawn without replacement from a
    disjoint tiling; total volume stays at or below the rate cap."""

    i: int
    j: int
    seed: int
    edges: tuple[int, int, int]  # (ex, ey, ez)
    origins: tuple[tuple[int, int, int], ...]  # (ox, oy, oz)
    achieved_rate: float


def plan_sampling(dims, blocksize: int, max_rate: float = 0.05, seed: int = 0) -> SamplingPlan:
    """Choose i^3 sample regions of roughly (2*blocksize)^3 cells.

    On arrays thinner than 2*blocksize along some axis the region shrinks to
    the largest block multiple that fits, so merged arrays sample a run of
    consecutive unit blocks instead of a cube.
    """
    nx, ny, nz = dims
    ncells = nx * ny * nz
    if blocksize < 1:
        raise ShapeError(f"blocksize must be positive, got {blocksize}")
    if not (0.0 < max_rate <= 1.0):
        raise ShapeError(f"sample rate cap must be in (0, 1], got {max_rate}")
    for j in (2, 1):  # the region edge in blocks
        edges = tuple(blocksize * min(j, d // blocksize) for d in (nx, ny, nz))
        if min(edges) == 0:
            continue
        region = edges[0] * edges[1] * edges[2]
        tiles = (nx // edges[0], ny // edges[1], nz // edges[2])
        n_tiles = tiles[0] * tiles[1] * tiles[2]
        budget = int(max_rate * ncells / region)
        i = 0
        while (i + 1) ** 3 <= min(budget, n_tiles):
            i += 1
        if i == 0:
            continue
        rng = np.random.default_rng(seed)
        picks = np.sort(rng.choice(n_tiles, size=i**3, replace=False))
        # a tile number is x-fastest, so sorted picks are (oz, oy, ox) order
        tz, ty, tx = np.unravel_index(picks, tiles[::-1])
        origins = zip((tx * edges[0]).tolist(), (ty * edges[1]).tolist(), (tz * edges[2]).tolist())
        return SamplingPlan(
            i=i,
            j=j,
            seed=seed,
            edges=edges,
            origins=tuple(origins),
            achieved_rate=i**3 * region / ncells,
        )
    raise SamplingError(
        f"no block-aligned region of blocksize {blocksize} fits dims {tuple(dims)} "
        f"under a {max_rate:.0%} sampling cap"
    )


def extract_regions(arr: np.ndarray, plan: SamplingPlan) -> list[np.ndarray]:
    """Copies of the plan's regions of the (z, y, x) array ``arr``."""
    ex, ey, ez = plan.edges
    return [np.array(arr[oz : oz + ez, oy : oy + ey, ox : ox + ex]) for ox, oy, oz in plan.origins]


def select_intensity(
    orig_sample: list[np.ndarray],
    decomp_sample: list[np.ndarray],
    eb: float,
    blocksize: int,
    family: str,
) -> IntensityConfig:
    """Coordinate descent, one sweep per axis in x, y, z order; each axis
    keeps the candidate with the lowest sampled L2 error, ties going to the
    smaller intensity."""
    cands = family_candidates(family)
    if len(orig_sample) != len(decomp_sample) or not orig_sample:
        raise SamplingError("need matched, nonempty original and decompressed samples")
    work = [np.array(r, dtype=np.float64) for r in decomp_sample]
    orig = [np.asarray(r, dtype=np.float64) for r in orig_sample]
    chosen = []
    for axis in _AXIS_ORDER:
        best_a = None
        best_err = np.inf
        for a in cands:
            err = 0.0
            for o, w in zip(orig, work):
                trial = w.copy()
                _axis_pass(trial, axis, blocksize, a, eb)
                err += float(((trial - o) ** 2).sum())
            if err < best_err:
                best_err = err
                best_a = a
        for w in work:
            _axis_pass(w, axis, blocksize, best_a, eb)
        chosen.append(best_a)
    # chosen was collected in x, y, z pass order already
    return IntensityConfig(family=family, chosen=tuple(chosen))
