import numpy as np
import pytest

from mrcompress.errors import DataError, ShapeError
from mrcompress.grid import (
    Volume,
    block_ranges,
    block_view,
    downsample2x,
    read_raw_volume,
    upsample2x,
    write_raw_volume,
)

from helpers import noisy_field


def test_volume_basic_properties():
    v = Volume(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    assert v.dims == (4, 3, 2)
    assert v.nx == 4 and v.ny == 3 and v.nz == 2
    assert v.size == 24
    # x-fastest flat order
    assert v.values[1] == 1.0
    assert v.values[4] == v.data[0, 1, 0]


def test_volume_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(DataError):
        Volume(np.array([[[np.nan]]]))
    with pytest.raises(DataError):
        Volume(np.array([[[np.inf]]]))
    with pytest.raises(ShapeError):
        Volume(np.zeros((2, 2)))


def test_volume_immutable():
    v = Volume(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0


def test_volume_copies_the_callers_array():
    arr = np.zeros((2, 3, 4))
    v = Volume(arr)
    assert arr.flags.writeable and not np.shares_memory(arr, v.data)
    arr[1, 2, 3] = 5.0
    assert v.data[1, 2, 3] == 0.0


def test_adopt_freezes_without_a_copy(tmp_path):
    arr = np.zeros((2, 3, 4))
    assert Volume._adopt(arr).data is arr and not arr.flags.writeable
    with pytest.raises(DataError):
        Volume._adopt(np.full((1, 1, 2), np.nan))
    with pytest.raises(ShapeError):
        Volume._adopt(np.zeros((2, 2)))
    crop = np.zeros((3, 3, 3))[:, :2, :2]
    with pytest.raises(ShapeError):  # not C-contiguous
        Volume._adopt(crop)
    assert crop.flags.writeable
    up = upsample2x(Volume(np.arange(8.0).reshape(2, 2, 2)))
    write_raw_volume(up, tmp_path / "up.f64", "f64")
    for v in (up, read_raw_volume(tmp_path / "up.f64", up.dims, "f64")):
        assert v.data.flags.c_contiguous and not v.data.flags.writeable


def test_block_ranges_matches_bruteforce():
    v = noisy_field((16, 8, 8), seed=11)
    ranges = block_ranges(v, 4)
    grid = (4, 2, 2)  # gx, gy, gz
    k = 0
    for bz in range(grid[2]):
        for by in range(grid[1]):
            for bx in range(grid[0]):
                sub = v.data[bz * 4 : (bz + 1) * 4, by * 4 : (by + 1) * 4, bx * 4 : (bx + 1) * 4]
                assert ranges[k] == sub.max() - sub.min()
                k += 1


def test_block_view_is_a_writable_view_in_block_index_order():
    arr = np.arange(8 * 4 * 12, dtype=np.float64).reshape(8, 4, 12)
    cells = block_view(arr, 4)
    assert cells.shape == (2, 1, 3, 4, 4, 4)
    for k, (bz, by, bx) in enumerate(np.ndindex(2, 1, 3)):
        sub = arr[bz * 4 : (bz + 1) * 4, by * 4 : (by + 1) * 4, bx * 4 : (bx + 1) * 4]
        assert np.array_equal(cells.reshape(-1, 4, 4, 4)[k], sub)
    cells[1, 0, 2] = -1.0
    assert (arr[4:, :, 8:] == -1.0).all() and (arr[:4] >= 0).all()
    with pytest.raises(ShapeError):
        block_view(arr, 8)  # 4 cells along y


def test_downsample_constant():
    v = Volume(np.full((4, 4, 4), 7.0))
    d = downsample2x(v)
    assert d.dims == (2, 2, 2)
    assert np.all(d.data == 7.0)


def test_downsample_mean_of_octant():
    v = Volume(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    d = downsample2x(v)
    assert d.dims == (1, 1, 1)
    assert d.data[0, 0, 0] == 3.5


def test_downsample_ramp_along_x():
    zz, yy, xx = np.meshgrid(np.arange(4), np.arange(4), np.arange(4), indexing="ij")
    d = downsample2x(Volume(xx.astype(np.float64)))
    assert np.allclose(d.data[:, :, 0], 0.5)
    assert np.allclose(d.data[:, :, 1], 2.5)


def test_downsample_rejects_odd_dims():
    with pytest.raises(ShapeError):
        downsample2x(Volume(np.zeros((3, 4, 4))))


def test_upsample_replicates():
    v = Volume(np.array([[[5.0]]]))
    u = upsample2x(v)
    assert u.dims == (2, 2, 2)
    assert np.all(u.data == 5.0)


def test_upsample_octants():
    v = Volume(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    u = upsample2x(v)
    assert u.dims == (4, 4, 4)
    for z in range(2):
        for y in range(2):
            for x in range(2):
                oct_ = u.data[2 * z : 2 * z + 2, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
                assert np.all(oct_ == v.data[z, y, x])


def test_down_up_round_trip_identity():
    for seed in range(5):
        v = noisy_field((8, 6, 4), seed=seed)
        assert downsample2x(upsample2x(v)) == v


def test_raw_file_round_trip(tmp_path):
    v = noisy_field((6, 5, 4), seed=2)
    p64 = tmp_path / "v.f64"
    write_raw_volume(v, p64, "f64")
    assert read_raw_volume(p64, v.dims, "f64") == v
    p32 = tmp_path / "v.f32"
    write_raw_volume(v, p32, "f32")
    back = read_raw_volume(p32, v.dims, "f32")
    assert np.allclose(back.data, v.data, atol=1e-6)
    with pytest.raises(ShapeError):
        read_raw_volume(p64, (6, 5, 5), "f64")
