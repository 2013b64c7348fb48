import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mrcompress.codec import ErrorBoundPolicy
from mrcompress.container import ContainerFile, ContainerLevel, container_from_dataset, encode_container
from mrcompress.errors import ShapeError
from mrcompress.grid import Volume
from mrcompress.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_STRIDE,
    SSIM_WINDOW,
    RateDistortionPoint,
    _block_moments,
    _block_sum,
    _corners,
    _paired,
    _SLAB_BLOCKS,
    _window_comoment,
    psnr,
    rd_sweep,
    ssim,
    write_jsonl,
)
from mrcompress.pipeline import compress_volume
from mrcompress.roi import RoiConfig, build_adaptive, select_roi

from helpers import noisy_field, smooth_field, sum_of_gaussians


# -------------------------------------------------------------------- psnr


def test_psnr_identical_is_infinite():
    v = smooth_field((8, 8, 8), seed=0)
    assert psnr(v, v) == math.inf


def test_psnr_constant_original_mismatch_is_negative_infinity():
    o = Volume(np.full((8, 8, 8), 3.0))
    r = Volume(np.full((8, 8, 8), 3.5))
    assert psnr(o, r) == -math.inf


def test_psnr_twenty_db_vector():
    # range 1, uniform absolute error 0.1 -> 20*log10(1/0.1) = 20 dB
    o = np.zeros((8, 8, 8))
    o[0, 0, 0] = 1.0
    r = o + 0.1
    assert psnr(o, r) == pytest.approx(20.0, abs=1e-9)


def test_psnr_against_two_pass_oracle():
    o = smooth_field((16, 16, 16), seed=1)
    r = Volume(o.data + 0.01 * np.sin(np.arange(16**3)).reshape(16, 16, 16))
    rmse = np.sqrt(np.mean((o.data - r.data) ** 2))
    want = 20.0 * np.log10((o.data.max() - o.data.min()) / rmse)
    assert psnr(o, r) == pytest.approx(want, rel=1e-12)


# several chunks of x-rows with a short last one; rows longer than a chunk
@pytest.mark.parametrize("shape", [(40, 30, 50), (3, 2, 40_000)])
def test_psnr_chunks_cover_every_row(shape):
    rng = np.random.default_rng(22)
    o = rng.standard_normal(shape)
    r = o + 1e-3 * rng.standard_normal(shape)
    want = 20.0 * np.log10((o.max() - o.min()) / np.sqrt(np.mean((o - r) ** 2)))
    assert psnr(o, r) == pytest.approx(want, rel=1e-12)


def test_psnr_allocates_a_fraction_of_one_input():
    o = smooth_field((64, 64, 64)).data
    r = o + 1e-3 * np.random.default_rng(22).standard_normal(o.shape)
    tracemalloc.start()
    try:
        psnr(o, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-volume difference peaks at one input
    assert peak < 0.25 * o.nbytes


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(np.zeros((4, 4, 4)), np.zeros((4, 4, 5)))


# -------------------------------------------------------------------- ssim


def test_ssim_identical_is_exactly_one():
    v = noisy_field((16, 16, 16), seed=2)
    assert ssim(v, v) == 1.0


def test_ssim_tiny_noise_stays_near_one():
    o = smooth_field((24, 24, 24), seed=3)
    rng = np.random.default_rng(4)
    r = Volume(o.data + 1e-4 * rng.standard_normal(o.data.shape))
    s = ssim(o, r)
    assert 0.99 < s < 1.0


def test_ssim_negated_structure_is_negative():
    # period-8 sinusoid: every 8^3 window has zero mean, so negation flips
    # the covariance while luminance stays neutral
    zz, yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), np.arange(16.0), indexing="ij")
    o = Volume(np.sin(np.pi * xx / 4.0) + np.sin(np.pi * yy / 4.0))
    r = Volume(-o.data)
    assert ssim(o, r) < -0.9


def test_ssim_degrades_with_noise():
    o = smooth_field((24, 24, 24), seed=5)
    rng = np.random.default_rng(6)
    small = Volume(o.data + 0.01 * rng.standard_normal(o.data.shape))
    large = Volume(o.data + 0.3 * rng.standard_normal(o.data.shape))
    assert ssim(o, large) < ssim(o, small) < 1.0


def test_ssim_window_too_small():
    with pytest.raises(ShapeError):
        ssim(np.zeros((4, 8, 8)), np.zeros((4, 8, 8)))


def test_ssim_constant_pair_is_one():
    o = Volume(np.full((8, 8, 8), 2.5))
    assert ssim(o, o) == 1.0


def _sliding_window_ssim(o, r):
    """Reference: materialize every 8^3 window at stride 4 and take its
    centered moments directly."""
    L = float(o.max() - o.min()) or 1.0
    c1 = (SSIM_K1 * L) ** 2
    c2 = (SSIM_K2 * L) ** 2
    w = (SSIM_WINDOW,) * 3
    ow = sliding_window_view(o, w)[::SSIM_STRIDE, ::SSIM_STRIDE, ::SSIM_STRIDE]
    rw = sliding_window_view(r, w)[::SSIM_STRIDE, ::SSIM_STRIDE, ::SSIM_STRIDE]
    ax = (-3, -2, -1)
    mu_o = ow.mean(axis=ax)
    mu_r = rw.mean(axis=ax)
    do = ow - mu_o[..., None, None, None]
    dr = rw - mu_r[..., None, None, None]
    var_o = (do * do).mean(axis=ax)
    var_r = (dr * dr).mean(axis=ax)
    cov = (do * dr).mean(axis=ax)
    num = (2.0 * mu_o * mu_r + c1) * (2.0 * cov + c2)
    den = (mu_o**2 + mu_r**2 + c1) * (var_o + var_r + c2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("shape", [(8, 8, 8), (9, 13, 17), (33, 20, 12), (48, 40, 36)])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_ssim_matches_sliding_window_reference(shape, offset):
    nz, ny, nx = shape
    o = smooth_field((nx, ny, nz)).data + offset
    rng = np.random.default_rng(11)
    r = o + 1e-4 * rng.standard_normal(o.shape)
    assert ssim(o, r) == pytest.approx(_sliding_window_ssim(o, r), abs=1e-12)
    assert ssim(o, o) == 1.0


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_ssim_matches_reference_far_from_one(offset):
    # heavy noise keeps the structure term far from 1, so a first-order
    # error in the merged window variances would show
    o = sum_of_gaussians((20, 33, 12), seed=12).data * 40.0 + offset
    rng = np.random.default_rng(13)
    r = o + 2.0 * rng.standard_normal(o.shape)
    want = _sliding_window_ssim(o, r)
    assert want < 0.9
    assert ssim(o, r) == pytest.approx(want, abs=1e-12)


def test_ssim_allocates_little_beyond_its_inputs():
    o = smooth_field((64, 64, 64)).data
    r = o + 1e-3 * np.random.default_rng(14).standard_normal(o.shape)
    tracemalloc.start()
    try:
        ssim(o, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * o.nbytes


def _reference_ssim(orig, recon):
    """Whole-volume block moments: every centered temporary spans the
    volume. The slabbed ssim must return exactly its value."""
    o, r = _paired(orig, recon)
    if min(o.shape) < SSIM_WINDOW:
        raise ShapeError(f"volume {o.shape} smaller than the {SSIM_WINDOW}^3 ssim window")
    L = float(o.max() - o.min())
    if L == 0.0:
        L = 1.0
    c1 = (SSIM_K1 * L) ** 2
    c2 = (SSIM_K2 * L) ** 2
    blocks = [(n - SSIM_WINDOW) // SSIM_STRIDE + 2 for n in o.shape]
    crop = tuple(slice(0, SSIM_STRIDE * b) for b in blocks)
    xo, xr = np.ascontiguousarray(o[crop]), np.ascontiguousarray(r[crop])
    do, dr = np.empty_like(xo), np.empty_like(xr)
    mo, so = _block_moments(xo, do, None)
    mr, sr = _block_moments(xr, dr, None)
    vo = _block_sum(do, do)
    vr = _block_sum(dr, dr)
    cor = _block_sum(do, dr)
    mu_o = sum(_corners(mo)) / 8.0
    mu_r = sum(_corners(mr)) / 8.0
    n = float(SSIM_WINDOW**3)
    var_o = _window_comoment(mo, so, mu_o, mo, so, mu_o, vo) / n
    var_r = _window_comoment(mr, sr, mu_r, mr, sr, mu_r, vr) / n
    cov = _window_comoment(mo, so, mu_o, mr, sr, mu_r, cor) / n
    num = (2.0 * mu_o * mu_r + c1) * (2.0 * cov + c2)
    den = (mu_o**2 + mu_r**2 + c1) * (var_o + var_r + c2)
    return float(np.mean(num / den))


# z block counts below, at and around one and two slabs
@pytest.mark.parametrize("blocks_z", [3, 4, 5, 8, 9])
@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_ssim_slabs_match_whole_volume_moments(blocks_z, offset):
    assert _SLAB_BLOCKS == 4
    nz = SSIM_STRIDE * blocks_z
    o = sum_of_gaussians((19, 14, nz), seed=17).data + offset
    r = o + 1e-3 * np.random.default_rng(18).standard_normal(o.shape)
    assert repr(ssim(o, r)) == repr(_reference_ssim(o, r))


def test_ssim_memory_is_bounded_by_the_slab():
    o = smooth_field((64, 64, 128)).data
    r = o + 1e-3 * np.random.default_rng(19).standard_normal(o.shape)
    tracemalloc.start()
    try:
        ssim(o, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole-volume block moments peak at about 2.25 times the input
    assert peak < o.nbytes


def _einsum_block_sum(a, b=None):
    """Oracle: the per-block sum as one 6-D einsum over a
    (bz, 4, by, 4, bx, 4) view."""
    if b is None:
        return np.einsum("aibjck->abc", a)
    return np.einsum("aibjck,aibjck->abc", a, b)


def _einsum_block_moments(x6):
    m = _einsum_block_sum(x6) / SSIM_STRIDE**3
    d = x6 - m[:, None, :, None, :, None]
    return m, d, _einsum_block_sum(d)


# x extents 33 and 9 are not multiples of 4: the slab is cropped and copied
@pytest.mark.parametrize("shape", [(33, 20, 12), (9, 13, 17)])
@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_block_moments_match_einsum_oracle(shape, offset):
    rng = np.random.default_rng(21)
    o = sum_of_gaussians(shape, seed=20).data + 0.1 * rng.standard_normal(shape[::-1]) + offset
    r = o + 1e-3 * rng.standard_normal(o.shape)
    blocks = [n // SSIM_STRIDE for n in o.shape]
    crop = tuple(slice(0, SSIM_STRIDE * b) for b in blocks)
    shape6 = (blocks[0], SSIM_STRIDE, blocks[1], SSIM_STRIDE, blocks[2], SSIM_STRIDE)
    assert not o[crop].flags.c_contiguous
    p, do, dr = (np.empty(o[crop].shape) for _ in range(3))
    mo, so = _block_moments(o[crop], do, p)
    mr, sr = _block_moments(r[crop], dr, p)
    vo, vr, cor = _block_sum(do, do, p), _block_sum(dr, dr, p), _block_sum(do, dr, p)
    want_mo, want_do, want_so = _einsum_block_moments(o[crop].reshape(shape6))
    want_mr, want_dr, want_sr = _einsum_block_moments(r[crop].reshape(shape6))
    want_vo = _einsum_block_sum(want_do, want_do)
    want_vr = _einsum_block_sum(want_dr, want_dr)

    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    # a residual sum is rounding noise: it is held to the size of its terms
    for x, m, s, want_m, want_s in ((o, mo, so, want_mo, want_so), (r, mr, sr, want_mr, want_sr)):
        abs_sum = _einsum_block_sum(np.abs(x[crop]).reshape(shape6))
        close(m, want_m, abs_sum / SSIM_STRIDE**3)
        close(s, want_s, abs_sum)
    close(vo, want_vo, want_vo)
    close(vr, want_vr, want_vr)
    close(cor, _einsum_block_sum(want_do, want_dr), np.sqrt(want_vo * want_vr))
    assert ssim(o, o) == 1.0


# ---------------------------------------------------------------- rd sweep


def test_rd_single_point_arithmetic():
    v = sum_of_gaussians((16, 16, 16), seed=7)
    (pt,) = rd_sweep(v, [1e-3])
    assert pt.eb == 1e-3
    assert pt.original_bytes == 16**3 * 8
    assert pt.cr == pytest.approx(pt.original_bytes / pt.compressed_bytes)
    assert pt.cr > 1.0
    assert np.isfinite(pt.psnr_db) and pt.psnr_db > 40.0
    assert 0.9 < pt.ssim <= 1.0


def test_rd_quality_tracks_bound():
    v = sum_of_gaussians((16, 16, 16), seed=8)
    pts = rd_sweep(v, [1e-1, 1e-2, 1e-3, 1e-4])
    crs = [p.cr for p in pts]
    psnrs = [p.psnr_db for p in pts]
    assert crs == sorted(crs, reverse=True)
    assert psnrs == sorted(psnrs)


def test_rd_sweep_block_codec():
    v = sum_of_gaussians((16, 16, 16), seed=9)
    (pt,) = rd_sweep(v, [1e-2], codec="block")
    assert pt.cr > 1.0 and pt.psnr_db > 30.0


def test_rd_sweep_over_dataset():
    v = sum_of_gaussians((32, 32, 32), seed=10)
    cfg = RoiConfig(b=8, x_percent=25.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    (pt,) = rd_sweep(ds, [1e-3], reference=v)
    assert pt.original_bytes == 32**3 * 8
    assert pt.cr > 1.0
    assert np.isfinite(pt.psnr_db)
    with pytest.raises(ShapeError):
        rd_sweep(ds, [1e-3])


def test_rd_sweep_over_dataset_counts_the_whole_file():
    # the container headers and the post filter's sample sidecars count too
    v = sum_of_gaussians((32, 32, 32), seed=10)
    cfg = RoiConfig(b=8, x_percent=25.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    policy = ErrorBoundPolicy(eb=1e-3)
    whole = ContainerFile(levels=(ContainerLevel(archive=compress_volume(v, policy, post_family="sz")),))
    for source, c in ((ds, container_from_dataset(ds, policy, post_family="sz")), (v, whole)):
        (pt,) = rd_sweep(source, [1e-3], post_family="sz", reference=v)
        assert any(lv.archive.samples is not None for lv in c.levels)
        assert pt.compressed_bytes == len(encode_container(c))
        assert pt.compressed_bytes > sum(lv.archive.size_bytes() for lv in c.levels)
        assert pt.original_bytes == v.data.size * 8


def test_rd_sweep_over_fully_fine_dataset():
    # a 100% ROI leaves the coarse level empty
    v = sum_of_gaussians((32, 32, 32), seed=11)
    cfg = RoiConfig(b=8, x_percent=100.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    assert len(ds.levels[1].blocks) == 0
    (pt,) = rd_sweep(ds, [1e-3], reference=v)
    assert pt.original_bytes == 32**3 * 8
    assert pt.cr > 1.0 and pt.psnr_db > 40.0


def test_rd_sweep_rejects_unknown_source():
    with pytest.raises(ShapeError):
        rd_sweep({"not": "a volume"}, [1e-3])


# ----------------------------------------------------------------- writers


def _points():
    return [
        RateDistortionPoint(1e-2, 100, 800, 8.0, 35.5, 0.97),
        RateDistortionPoint(1e-3, 200, 800, 4.0, math.inf, 1.0),
        RateDistortionPoint(1e-4, 400, 800, 2.0, -math.inf, 0.5),
    ]


def test_write_jsonl_encodes_infinities_as_strings(tmp_path):
    path = tmp_path / "sweep.jsonl"
    write_jsonl(_points(), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3
    assert rows[0]["psnr_db"] == pytest.approx(35.5)
    assert rows[1]["psnr_db"] == "inf"
    assert rows[2]["psnr_db"] == "-inf"
    assert rows[0]["cr"] == 8.0
    assert rows[0]["compressed_bytes"] == 100
