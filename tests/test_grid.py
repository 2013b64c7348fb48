import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from helpers import block_ranges_6d, downsample2x_mean, noisy_field


def test_volume_basic_properties():
    v = Volume(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    assert v.dims == (4, 3, 2)
    # x-fastest flat order
    assert v.data.reshape(-1)[1] == 1.0
    assert v.data.reshape(-1)[4] == v.data[0, 1, 0]


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
    up = Volume._adopt(upsample2x(np.arange(8.0).reshape(2, 2, 2)))
    write_raw_volume(up, tmp_path / "up.f64", "f64")
    for v in (up, read_raw_volume(tmp_path / "up.f64", up.dims, "f64")):
        assert v.data.flags.c_contiguous and not v.data.flags.writeable


def test_block_ranges_matches_bruteforce():
    v = noisy_field((16, 8, 8), seed=11)
    ranges = block_ranges(v.data, 4)
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
    d = downsample2x(np.full((4, 4, 4), 7.0))
    assert d.shape == (2, 2, 2)
    assert np.all(d == 7.0)


def test_downsample_mean_of_octant():
    d = downsample2x(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    assert d.shape == (1, 1, 1)
    assert d[0, 0, 0] == 3.5


def test_downsample_ramp_along_x():
    zz, yy, xx = np.meshgrid(np.arange(4), np.arange(4), np.arange(4), indexing="ij")
    d = downsample2x(xx.astype(np.float64))
    assert np.allclose(d[:, :, 0], 0.5)
    assert np.allclose(d[:, :, 1], 2.5)


def test_downsample_rejects_odd_dims():
    with pytest.raises(ShapeError):
        downsample2x(np.zeros((3, 4, 4)))


def test_upsample_replicates():
    u = upsample2x(np.array([[[5.0]]]))
    assert u.shape == (2, 2, 2)
    assert np.all(u == 5.0)


def test_upsample_octants():
    a = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    u = upsample2x(a)
    assert u.shape == (4, 4, 4)
    for z in range(2):
        for y in range(2):
            for x in range(2):
                oct_ = u[2 * z : 2 * z + 2, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
                assert np.all(oct_ == a[z, y, x])


@pytest.mark.parametrize("shape", [(3, 5, 7), (2, 1, 6), (1, 4, 3), (1, 1, 9), (5, 2, 1)])
def test_upsample_equals_repeat_along_every_axis(shape):
    a = noisy_field(shape[::-1], seed=sum(shape)).data
    u = upsample2x(a)
    assert u.flags.c_contiguous
    assert u.shape == tuple(2 * n for n in shape)
    assert u.tobytes() == a.repeat(2, axis=0).repeat(2, axis=1).repeat(2, axis=2).tobytes()
    dest = np.full(u.shape, np.nan)
    assert upsample2x(a, dest) is dest
    assert dest.tobytes() == u.tobytes()


def test_upsample_fills_a_strided_output_in_place():
    # splitting axes never needs a copy, so any output layout is written through
    a = noisy_field((2, 3, 2), seed=1).data
    dest = np.full((4, 6, 8), np.nan)
    upsample2x(a, dest[:, :, ::2])
    assert np.array_equal(dest[:, :, ::2], upsample2x(a))
    assert np.isnan(dest[:, :, 1::2]).all()


def test_down_up_round_trip_identity():
    for seed in range(5):
        a = noisy_field((8, 6, 4), seed=seed).data
        assert np.array_equal(downsample2x(upsample2x(a)), a)


def test_kernels_take_and_return_plain_arrays():
    a = noisy_field((8, 6, 4), seed=4).data
    for out in (downsample2x(a), upsample2x(a), block_ranges(a, 2)):
        assert type(out) is np.ndarray and out.dtype == np.float64


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


def _wide_field(shape, seed) -> np.ndarray:
    """Mixed signs over magnitudes e^-30 to e^30, with whole 2x2x2 cells of
    -0.0 and scattered +0.0 and -0.0 values."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    nz, ny, nx = shape
    cells = block_view(data[: nz // 2 * 2, : ny // 2 * 2, : nx // 2 * 2], 2)
    cells[rng.random(cells.shape[:3]) < 0.1] = -0.0
    data[rng.random(shape) < 0.05] = 0.0
    data[rng.random(shape) < 0.05] = -0.0
    return data


_HALF_EDGES = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))


# half-x from 2: at nx = 2 numpy coalesces the y- and x-pairs of a cell into
# one run and sums it in another order, so there the pooling is the mean
# only to rounding (test_downsample_of_two_wide_volumes_is_the_cell_mean)
@settings(max_examples=80, deadline=None)
@given(_HALF_EDGES.filter(lambda half: half[2] >= 2), st.integers(0, 2**32 - 1))
@example((1, 1, 2), 0)
@example((3, 1, 4), 0)
@example((1, 5, 2), 0)
def test_downsample_is_numpys_mean_bit_for_bit(half, seed):
    v = _wide_field(tuple(2 * n for n in half), seed)
    assert downsample2x(v).tobytes() == downsample2x_mean(v).tobytes()


@pytest.mark.parametrize("ny", [2, 6])
def test_downsample_of_two_wide_volumes_is_the_cell_mean(ny):
    v = _wide_field((4, ny, 2), seed=ny)
    np.testing.assert_allclose(downsample2x(v), downsample2x_mean(v), rtol=1e-15, atol=0)


@settings(max_examples=60, deadline=None)
@given(_HALF_EDGES, st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**32 - 1))
def test_block_ranges_equal_the_6d_formula(grid, b, seed):
    # grid counts blocks per axis; halved so that b = 8 stays small
    v = _wide_field(tuple(b * max(1, n // 2) for n in grid), seed)
    assert block_ranges(v, b).tobytes() == block_ranges_6d(v, b).tobytes()


@pytest.mark.parametrize("shape", [(6, 40, 1026), (32, 32, 32)])
def test_kernels_match_their_formulas_on_wide_fields(shape):
    v = _wide_field(shape, seed=sum(shape))
    assert downsample2x(v).tobytes() == downsample2x_mean(v).tobytes()
    assert block_ranges(v, 2).tobytes() == block_ranges_6d(v, 2).tobytes()


@pytest.mark.parametrize("nx", [2, 4])
def test_downsample_refuses_a_cell_sum_that_overflows(nx):
    data = np.full((4, 4, nx), 1.0)
    data[2:, 2:, :2] = np.finfo(np.float64).max / 4  # finite, but eight of them are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow raises no RuntimeWarning
        with pytest.raises(DataError, match="coarse level"):
            downsample2x(data)


def _peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_downsample_peak_is_its_output_and_one_scratch():
    # plus the output's finiteness mask (an eighth) and numpy's fixed-size buffers
    out, peak = _peak(downsample2x, noisy_field((128, 128, 64), seed=12).data)
    assert peak <= 2.5 * out.nbytes


def test_block_ranges_peak_is_far_below_an_input_copy():
    v = noisy_field((64, 64, 64), seed=13)
    _, peak = _peak(block_ranges, v.data, 16)
    assert peak <= v.data.nbytes / 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_read_raw_refuses_nonfinite_values(tmp_path, bad, dtype):
    arr = np.zeros((2, 3, 4), dtype="<f4" if dtype == "f32" else "<f8")
    arr[1, 2, 3] = bad
    arr.tofile(tmp_path / "v.raw")
    with pytest.raises(DataError):
        read_raw_volume(tmp_path / "v.raw", (4, 3, 2), dtype)


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_read_raw_keeps_the_file_type_bit_for_bit(tmp_path, dtype):
    p = tmp_path / "v.raw"
    noisy_field((6, 5, 4), seed=3).data.astype(dtype).tofile(p)
    got = read_raw_volume(p, (6, 5, 4), "f32" if dtype == "<f4" else "f64")
    assert got.data.dtype == np.dtype(dtype) and got.data.tobytes() == p.read_bytes()
    assert got.data.flags.c_contiguous and not got.data.flags.writeable


def test_write_raw_widens_f32_exactly_and_narrows_back(tmp_path):
    noisy_field((6, 5, 4), seed=3).data.astype("<f4").tofile(tmp_path / "v.f32")
    v = read_raw_volume(tmp_path / "v.f32", (6, 5, 4), "f32")
    write_raw_volume(v, tmp_path / "w.f64", "f64")
    assert (tmp_path / "w.f64").read_bytes() == v.data.astype("<f8").tobytes()
    wide = read_raw_volume(tmp_path / "w.f64", (6, 5, 4), "f64")
    write_raw_volume(wide, tmp_path / "back.f32", "f32")
    assert (tmp_path / "back.f32").read_bytes() == (tmp_path / "v.f32").read_bytes()
