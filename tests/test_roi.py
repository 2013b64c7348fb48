import numpy as np
import pytest

from mrcompress.errors import CoverageError, ShapeError
from mrcompress.grid import Volume, block_view, downsample2x, upsample2x
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
    assert mask.tolist() == [[[True, False, False, False]]]


def test_select_all():
    v = _ranged_volume([5.0, 1.0, 3.0, 2.0])
    mask = select_roi(v, RoiConfig(b=8, x_percent=100.0))
    assert mask.all()


def test_tie_break_prefers_low_index():
    v = _ranged_volume([1.0] * 8)
    mask = select_roi(v, RoiConfig(b=8, x_percent=50.0))
    assert mask.tolist() == [[[True] * 4 + [False] * 4]]


def test_quota_ceil_keeps_at_least_one():
    v = _ranged_volume([1.0, 2.0, 3.0, 4.0])
    mask = select_roi(v, RoiConfig(b=8, x_percent=1.0))
    assert int(mask.sum()) == 1
    assert mask.tolist() == [[[False, False, False, True]]]


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
    ds = build_adaptive(v, np.zeros((2, 2, 2), dtype=bool), cfg)
    assert len(ds.levels[0].blocks) == 0
    coarse = ds.levels[1]
    assert coarse.u == 4 and coarse.dims == (8, 8, 8)
    assert coarse.occupancy.all()
    down = downsample2x(v.data)
    for (bz, by, bx), data in zip(np.argwhere(coarse.occupancy), coarse.blocks):
        sub = down[bz * 4 : (bz + 1) * 4, by * 4 : (by + 1) * 4, bx * 4 : (bx + 1) * 4]
        assert np.array_equal(data, sub)


def test_reconstruct_mixed_mask_per_block_oracle():
    v = noisy_field((16, 16, 32), seed=3)
    cfg = RoiConfig(b=8, x_percent=50.0)
    mask = select_roi(v, cfg)
    ds = build_adaptive(v, mask, cfg)
    rec = reconstruct_uniform(ds)
    m3 = mask
    assert m3.shape == (4, 2, 2)  # (gz, gy, gx)
    for bz in range(4):
        for by in range(2):
            for bx in range(2):
                sl = (
                    slice(bz * 8, bz * 8 + 8),
                    slice(by * 8, by * 8 + 8),
                    slice(bx * 8, bx * 8 + 8),
                )
                if m3[bz, by, bx]:
                    assert np.array_equal(rec.data[sl], v.data[sl])
                else:
                    expect = upsample2x(downsample2x(v.data[sl]))
                    assert np.array_equal(rec.data[sl], expect)


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
    mask = select_roi(v, cfg)
    ds = build_adaptive(v, mask, cfg)
    fine, coarse = ds.levels
    assert np.array_equal(fine.occupancy, mask) and np.array_equal(coarse.occupancy, ~mask)
    # blocks follow their level's occupancy in block-index order
    assert fine.blocks.tobytes() == block_view(v.data, 8)[fine.occupancy].tobytes()
    assert coarse.blocks.tobytes() == block_view(downsample2x(v.data), 4)[coarse.occupancy].tobytes()


def test_select_roi_returns_the_fine_occupancy():
    v = noisy_field((32, 16, 24), seed=13)
    cfg = RoiConfig(b=8, x_percent=30.0)
    mask = select_roi(v, cfg)
    fine = build_adaptive(v, mask, cfg).levels[0]
    assert mask.dtype == bool and mask.shape == fine.occupancy.shape == (3, 2, 4)
    assert mask.tobytes() == fine.occupancy.tobytes()


def test_build_adaptive_takes_only_the_occupancy_grid():
    v = noisy_field((32, 16, 24), seed=14)
    cfg = RoiConfig(b=8, x_percent=30.0)
    mask = select_roi(v, cfg)
    for bad in (mask.reshape(-1), mask.reshape(2, 3, 4), mask[:, :, :3]):
        with pytest.raises(ShapeError, match="occupancy"):
            build_adaptive(v, bad, cfg)


def _tile(v, u, keep=None):
    """(dims, u, coords, data) of the u-blocks of ``v`` that ``keep`` picks,
    in block-index order."""
    coords, data = [], []
    nx, ny, nz = v.dims
    for bz in range(nz // u):
        for by in range(ny // u):
            for bx in range(nx // u):
                if keep is None or keep(bx, by, bz):
                    coords.append((bx, by, bz))
                    data.append(v.data[bz * u : (bz + 1) * u, by * u : (by + 1) * u, bx * u : (bx + 1) * u])
    return v.dims, u, np.array(coords, dtype=np.int64).reshape(-1, 3), np.array(data).reshape(-1, u, u, u)


def test_ingest_single_level():
    v = noisy_field((16, 16, 16), seed=6)
    ds = ingest_amr([_tile(v, 8)])
    assert reconstruct_uniform(ds) == v


def test_ingest_two_level_densities():
    # fine level keeps the z < 8 half; coarse covers the rest
    fine_v = noisy_field((32, 32, 32), seed=7)
    coarse_v = Volume(downsample2x(fine_v.data))
    fine = _tile(fine_v, 8, keep=lambda bx, by, bz: bz < 2)
    coarse = _tile(coarse_v, 4, keep=lambda bx, by, bz: bz >= 2)
    ds = ingest_amr([fine, coarse])
    d = ds.densities()
    assert abs(d[0] - 0.5) < 1e-12 and abs(d[1] - 0.5) < 1e-12
    rec = reconstruct_uniform(ds)
    assert np.array_equal(rec.data[:16], fine_v.data[:16])


def test_ingest_three_level_chain():
    f0 = noisy_field((32, 32, 32), seed=8)
    f1 = Volume(downsample2x(f0.data))
    f2 = Volume(downsample2x(f1.data))
    l0 = _tile(f0, 8, keep=lambda bx, by, bz: bz == 0)
    l1 = _tile(f1, 4, keep=lambda bx, by, bz: bz == 1)
    l2 = _tile(f2, 2, keep=lambda bx, by, bz: bz >= 2)
    ds = ingest_amr([l0, l1, l2])
    d = ds.densities()
    assert abs(sum(d) - 1.0) < 1e-12
    assert d == [0.25, 0.25, 0.5]
    reconstruct_uniform(ds)


def test_ingest_reorders_shuffled_blocks():
    f0 = noisy_field((32, 32, 32), seed=11)
    f1 = Volume(downsample2x(f0.data))
    levels = [_tile(f0, 8, keep=lambda bx, by, bz: (bx + by + bz) % 2 == 0),
              _tile(f1, 4, keep=lambda bx, by, bz: (bx + by + bz) % 2 == 1)]
    rng = np.random.default_rng(11)
    shuffled = []
    for dims, u, coords, data in levels:
        perm = rng.permutation(len(coords))
        shuffled.append((dims, u, coords[perm], data[perm]))
    got, want = ingest_amr(shuffled), ingest_amr(levels)
    for g, w in zip(got.levels, want.levels):
        assert np.array_equal(g.occupancy, w.occupancy)
        assert g.blocks.tobytes() == w.blocks.tobytes()
    assert reconstruct_uniform(got) == reconstruct_uniform(want)


def test_ingest_rejects_duplicate_and_out_of_grid_coords():
    v = noisy_field((16, 16, 16), seed=12)
    dims, u, coords, data = _tile(v, 8)
    dup = coords.copy()
    dup[1] = dup[0]
    with pytest.raises(CoverageError):
        ingest_amr([(dims, u, dup, data)])
    for bad in ((2, 0, 0), (0, 0, -1)):
        outside = coords.copy()
        outside[-1] = bad
        with pytest.raises(ShapeError):
            ingest_amr([(dims, u, outside, data)])
    with pytest.raises(ShapeError):
        ingest_amr([(dims, u, coords[:-1], data)])


def test_ingest_rejects_bad_chain():
    v = noisy_field((16, 16, 16), seed=9)
    with pytest.raises(ShapeError):
        ingest_amr([_tile(v, 8), ((9, 8, 8), 4, [], np.empty((0, 4, 4, 4)))])
    # every level is a valid grid, but the third is not the second halved
    with pytest.raises(ShapeError, match="refinement chain"):
        ingest_amr([_tile(v, 8), ((8, 8, 8), 4, [], np.empty((0, 4, 4, 4))),
                    ((4, 4, 8), 2, [], np.empty((0, 2, 2, 2)))])


def _level(dims, u, occupancy, value=0.0):
    occupancy = np.asarray(occupancy, dtype=bool)
    return Level(dims, u, occupancy, np.full((int(occupancy.sum()), u, u, u), value))


def test_level_validates_its_grid():
    occ = np.ones((2, 2, 2), dtype=bool)
    _level((16, 16, 16), 8, occ)
    with pytest.raises(ShapeError):
        _level((16, 16, 16), 8, np.ones((2, 2, 1), dtype=bool))  # the wrong grid
    with pytest.raises(ShapeError):
        Level((16, 16, 16), 8, occ, np.zeros((7, 8, 8, 8)))  # a block count off the occupancy
    with pytest.raises(ShapeError):
        Level((16, 16, 16), 8, occ, np.zeros((8, 4, 4, 4)))  # blocks of another u
    with pytest.raises(ShapeError):
        _level((12, 12, 12), 6, np.ones((2, 2, 2), dtype=bool))  # u not a power of two


def test_dataset_rejects_a_broken_refinement_chain():
    fine = _level((16, 16, 16), 8, np.arange(8).reshape(2, 2, 2) < 4)
    for dims in ((16, 16, 16), (8, 8, 16), (4, 4, 4)):
        gx, gy, gz = (d // 4 for d in dims)
        with pytest.raises(ShapeError):
            MultiResDataset(levels=(fine, _level(dims, 4, np.zeros((gz, gy, gx), dtype=bool))))


def test_coverage_gap_and_overlap_raise():
    full = np.ones((2, 2, 2), dtype=bool)
    half = np.arange(8).reshape(2, 2, 2) < 4
    swap = np.zeros(8, dtype=bool)
    swap[[0, 7]] = True  # one fine cell and one coarse cell
    cases = [
        (half, np.zeros((2, 2, 2), dtype=bool)),  # a gap
        (half, full),  # an overlap
        (half, ~half ^ swap.reshape(2, 2, 2)),  # both, at the domain's volume
    ]
    for fine, coarse in cases:
        with pytest.raises(CoverageError):
            MultiResDataset(levels=(_level((16, 16, 16), 8, fine), _level((8, 8, 8), 4, coarse)))
