import numpy as np
import pytest

from mrcompress.errors import CoverageError, ShapeError
from mrcompress.grid import BlockCoord, Volume, downsample2x, upsample2x
from mrcompress.layout import UnitBlock
from mrcompress.roi import (
    Level,
    MultiResDataset,
    RoiConfig,
    build_adaptive,
    ingest_amr,
    reconstruct_uniform,
    select_roi,
)

from helpers import gaussian_bumps, noisy_field


def _ranged_volume(ranges, b=8):
    """One row of blocks along x whose value ranges are the given list."""
    n = len(ranges)
    data = np.zeros((b, b, n * b))
    for i, r in enumerate(ranges):
        data[0, 0, i * b] = r
    return Volume(data)


def test_config_validation():
    RoiConfig(b=8, x_percent=15.0)
    with pytest.raises(ShapeError):
        RoiConfig(b=12, x_percent=15.0)
    with pytest.raises(ShapeError):
        RoiConfig(b=4, x_percent=15.0)
    with pytest.raises(ShapeError):
        RoiConfig(b=8, x_percent=0.0)
    with pytest.raises(ShapeError):
        RoiConfig(b=8, x_percent=101.0)


def test_select_top_quarter():
    v = _ranged_volume([5.0, 1.0, 3.0, 2.0])
    mask = select_roi(v, RoiConfig(b=8, x_percent=25.0))
    assert mask.tolist() == [True, False, False, False]


def test_select_all():
    v = _ranged_volume([5.0, 1.0, 3.0, 2.0])
    mask = select_roi(v, RoiConfig(b=8, x_percent=100.0))
    assert mask.all()


def test_tie_break_prefers_low_index():
    v = _ranged_volume([1.0] * 8)
    mask = select_roi(v, RoiConfig(b=8, x_percent=50.0))
    assert mask.tolist() == [True] * 4 + [False] * 4


def test_quota_ceil_keeps_at_least_one():
    v = _ranged_volume([1.0, 2.0, 3.0, 4.0])
    mask = select_roi(v, RoiConfig(b=8, x_percent=1.0))
    assert int(mask.sum()) == 1
    assert mask.tolist() == [False, False, False, True]


def test_mask_scale_equivariant():
    v = noisy_field((16, 16, 16), seed=5)
    cfg = RoiConfig(b=8, x_percent=37.0)
    m1 = select_roi(v, cfg)
    m2 = select_roi(Volume(3.5 * v.data), cfg)
    assert np.array_equal(m1, m2)


def test_build_adaptive_all_ones():
    v = noisy_field((16, 16, 16), seed=1)
    cfg = RoiConfig(b=8, x_percent=100.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    assert len(ds.levels[0].blocks) == 8
    assert len(ds.levels[1].blocks) == 0
    assert reconstruct_uniform(ds) == v


def test_build_adaptive_all_zeros_matches_downsample():
    v = noisy_field((16, 16, 16), seed=2)
    cfg = RoiConfig(b=8, x_percent=50.0)
    ds = build_adaptive(v, np.zeros(8, dtype=bool), cfg)
    assert len(ds.levels[0].blocks) == 0
    coarse = ds.levels[1]
    assert coarse.u == 4 and coarse.dims == (8, 8, 8)
    down = downsample2x(v)
    for blk in coarse.blocks:
        c = blk.coord
        sub = down.data[
            c.bz * 4 : (c.bz + 1) * 4, c.by * 4 : (c.by + 1) * 4, c.bx * 4 : (c.bx + 1) * 4
        ]
        assert np.array_equal(blk.data, sub)


def test_reconstruct_mixed_mask_per_block_oracle():
    v = noisy_field((16, 16, 32), seed=3)
    cfg = RoiConfig(b=8, x_percent=50.0)
    mask = select_roi(v, cfg)
    ds = build_adaptive(v, mask, cfg)
    rec = reconstruct_uniform(ds)
    m3 = mask.reshape(4, 2, 2)  # (gz, gy, gx)
    for bz in range(4):
        for by in range(2):
            for bx in range(2):
                sl = (
                    slice(bz * 8, bz * 8 + 8),
                    slice(by * 8, by * 8 + 8),
                    slice(bx * 8, bx * 8 + 8),
                )
                block = Volume(v.data[sl])
                if m3[bz, by, bx]:
                    assert np.array_equal(rec.data[sl], v.data[sl])
                else:
                    expect = upsample2x(downsample2x(block))
                    assert np.array_equal(rec.data[sl], expect.data)


def test_densities_sum_to_one():
    v = gaussian_bumps((32, 32, 32), [(8, 8, 8)], [4.0], [2.0], background=0.1)
    cfg = RoiConfig(b=8, x_percent=20.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    d = ds.densities()
    assert abs(sum(d) - 1.0) < 1e-12
    assert abs(d[0] - 0.203125) < 1e-12  # 13 of 64 blocks


def test_level_block_sorting_enforced_by_build():
    v = noisy_field((16, 16, 16), seed=4)
    cfg = RoiConfig(b=8, x_percent=50.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    for lv in ds.levels:
        keys = [(b.coord.bz, b.coord.by, b.coord.bx) for b in lv.blocks]
        assert keys == sorted(keys)


def _tile(v, u, keep=None):
    gx, gy, gz = v.nx // u, v.ny // u, v.nz // u
    out = []
    for bz in range(gz):
        for by in range(gy):
            for bx in range(gx):
                if keep is not None and not keep(bx, by, bz):
                    continue
                sub = v.data[bz * u : (bz + 1) * u, by * u : (by + 1) * u, bx * u : (bx + 1) * u]
                out.append(UnitBlock(BlockCoord(bx, by, bz, u), u, sub))
    return out


def test_ingest_single_level():
    v = noisy_field((16, 16, 16), seed=6)
    ds = ingest_amr([(v.dims, 8, _tile(v, 8))])
    assert reconstruct_uniform(ds) == v


def test_ingest_two_level_densities():
    # fine level keeps the z < 8 half; coarse covers the rest
    fine_v = noisy_field((32, 32, 32), seed=7)
    coarse_v = downsample2x(fine_v)
    fine_blocks = _tile(fine_v, 8, keep=lambda bx, by, bz: bz < 2)
    coarse_blocks = _tile(coarse_v, 4, keep=lambda bx, by, bz: bz >= 2)
    ds = ingest_amr([(fine_v.dims, 8, fine_blocks), (coarse_v.dims, 4, coarse_blocks)])
    d = ds.densities()
    assert abs(d[0] - 0.5) < 1e-12 and abs(d[1] - 0.5) < 1e-12
    rec = reconstruct_uniform(ds)
    assert np.array_equal(rec.data[:16], fine_v.data[:16])


def test_ingest_three_level_chain():
    f0 = noisy_field((32, 32, 32), seed=8)
    f1 = downsample2x(f0)
    f2 = downsample2x(f1)
    l0 = _tile(f0, 8, keep=lambda bx, by, bz: bz == 0)
    l1 = _tile(f1, 4, keep=lambda bx, by, bz: bz == 1)
    l2 = _tile(f2, 2, keep=lambda bx, by, bz: bz >= 2)
    ds = ingest_amr([(f0.dims, 8, l0), (f1.dims, 4, l1), (f2.dims, 2, l2)])
    d = ds.densities()
    assert abs(sum(d) - 1.0) < 1e-12
    assert d == [0.25, 0.25, 0.5]
    reconstruct_uniform(ds)


def test_ingest_rejects_bad_chain():
    v = noisy_field((16, 16, 16), seed=9)
    with pytest.raises(ShapeError):
        ingest_amr([(v.dims, 8, _tile(v, 8)), ((9, 8, 8), 4, [])])
    # every level is a valid grid, but the third is not the second halved
    with pytest.raises(ShapeError):
        ingest_amr([(v.dims, 8, []), ((8, 8, 8), 4, []), ((4, 4, 8), 2, [])])


def test_dataset_rejects_a_broken_refinement_chain():
    blocks = tuple(_tile(noisy_field((16, 16, 16), seed=9), 8))
    fine = Level(dims=(16, 16, 16), u=8, blocks=blocks[:4])
    for dims in ((16, 16, 16), (8, 8, 16), (4, 4, 4)):
        with pytest.raises(ShapeError):
            MultiResDataset(levels=(fine, Level(dims=dims, u=4)), roi_mask=np.ones(8, dtype=bool))


def test_coverage_gap_and_overlap_raise():
    v = noisy_field((16, 16, 16), seed=10)
    blocks = _tile(v, 8)
    cases = [
        (v.dims, blocks[:-1]),  # a gap
        (v.dims, blocks + [blocks[0]]),  # an overlap
        (v.dims, blocks[:-1] + [blocks[0]]),  # both, at the domain's volume
        ((2**40, 16, 16), blocks),  # dims whose lattice would not fit in memory
    ]
    for dims, bag in cases:
        with pytest.raises(CoverageError):
            reconstruct_uniform(
                MultiResDataset(
                    levels=(Level(dims=dims, u=8, blocks=tuple(bag)),),
                    roi_mask=np.ones(8, dtype=bool),
                )
            )
