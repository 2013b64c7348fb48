"""Blocks are cut, merged, split and pasted as one (k, u, u, u) array per
level, with the same bytes as the per-block slicing in ``helpers``."""

import tracemalloc

import numpy as np
import pytest

from mrcompress import roi
from mrcompress.errors import DataError
from mrcompress.grid import Volume, downsample2x, upsample2x
from mrcompress.layout import linear_merge, pad_linear, stack_merge, unmerge, unpad
from mrcompress.roi import RoiConfig, build_adaptive, ingest_amr, reconstruct_uniform, select_roi

from helpers import (
    RefBlock,
    build_adaptive_per_block,
    noisy_field,
    reconstruct_uniform_per_block,
    same_level,
    smooth_field,
    sorted_blocks,
    stack_merge_per_block,
    sum_of_gaussians,
    tile_blocks,
    unmerge_per_block,
)


def _same_dataset(got, want_levels, want_mask):
    assert got.levels[0].occupancy.shape == want_mask.shape
    assert got.levels[0].occupancy.tobytes() == want_mask.tobytes()
    assert len(got.levels) == len(want_levels)
    for lv, (dims, u, blocks) in zip(got.levels, want_levels):
        same_level(lv, dims, u, blocks)


FIELDS = {
    "gaussians": lambda dims: sum_of_gaussians(dims, seed=3),
    "noise": lambda dims: noisy_field(dims, seed=4),
    "smooth": lambda dims: smooth_field(dims, seed=5, noise=0.01),
}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("b", [8, 16, 32])
@pytest.mark.parametrize("percent", [1.0, 20.0, 100.0])
def test_build_and_reconstruct_match_per_block(field, b, percent):
    v = FIELDS[field]((96, 32, 64))
    cfg = RoiConfig(b=b, x_percent=percent)
    mask = select_roi(v, cfg)
    ds = build_adaptive(v, mask, cfg)
    levels, ref_mask = build_adaptive_per_block(v, mask, cfg)
    _same_dataset(ds, levels, ref_mask)
    assert reconstruct_uniform(ds).data.tobytes() == reconstruct_uniform_per_block(levels).data.tobytes()


def _blocks(k, u, seed):
    """k reference blocks at scattered coords, handed over out of order."""
    rng = np.random.default_rng(seed)
    cells = rng.permutation(6 * 5 * 4)[:k]
    return [RefBlock((int(c % 6), int(c // 6 % 5), int(c // 30)), u,
                     rng.standard_normal((u, u, u))) for c in cells]


def _same_split(got, want):
    assert got.shape[0] == len(want)
    assert got.tobytes() == b"".join(w.tobytes() for w in want)


@pytest.mark.parametrize("k", [1, 5, 9, 28])
@pytest.mark.parametrize("u", [2, 8])
def test_merges_and_splits_match_per_block(k, u):
    ref = _blocks(k, u, seed=k + u)
    blocks = np.stack([b.data for b in sorted_blocks(ref)])
    stacked = stack_merge(blocks)
    want = stack_merge_per_block(ref)
    assert stacked.values.tobytes() == want.values.tobytes()
    assert (stacked.k, stacked.u, stacked.arrangement) == (want.k, want.u, want.arrangement)
    _same_split(unmerge(stacked.values, u, k), unmerge_per_block(want))
    linear = linear_merge(blocks)
    _same_split(unmerge(linear.values, u, k), unmerge_per_block(linear))
    padded = pad_linear(linear)
    _same_split(unmerge(unpad(padded.values), u, k), unmerge_per_block(linear))


def test_unmerge_of_a_linear_merge_is_a_view():
    m = linear_merge(np.random.default_rng(1).standard_normal((5, 4, 4, 4)))
    assert np.shares_memory(unmerge(m.values, 4, 5), m.values)


def _three_levels(dims, seed):
    """Fine, half and quarter grids of one field with u = 8, 4, 2; the fine
    level keeps the bz = 0 slab, the half level the bz = 1 slab."""
    f0 = noisy_field(dims, seed=seed)
    f1 = Volume(downsample2x(f0.data))
    f2 = Volume(downsample2x(f1.data))
    l0 = [blk for blk in tile_blocks(f0, 8) if blk.coord[2] == 0]
    l1 = [blk for blk in tile_blocks(f1, 4) if blk.coord[2] == 1]
    l2 = [blk for blk in tile_blocks(f2, 2) if blk.coord[2] >= 2]
    return f0, [(f0.dims, 8, l0[::-1]), (f1.dims, 4, l1[::-1]), (f2.dims, 2, l2[::-1])]


def _check_three_level_ingest(dims):
    f0, levels = _three_levels(dims, seed=sum(dims))
    ds = ingest_amr([(d, u, [b.coord for b in blocks], np.stack([b.data for b in blocks]))
                     for d, u, blocks in levels])
    ref = [(d, u, sorted_blocks(blocks)) for d, u, blocks in levels]
    for lv, (d, u, blocks) in zip(ds.levels, ref):
        same_level(lv, d, u, blocks)
    want = np.zeros((dims[2] // 8, dims[1] // 8, dims[0] // 8), dtype=bool)
    want[0] = True  # the bz = 0 slab
    assert np.array_equal(ds.levels[0].occupancy, want)
    rec = reconstruct_uniform(ds)
    assert rec.data.tobytes() == reconstruct_uniform_per_block(ref).data.tobytes()
    assert np.array_equal(rec.data[:8], f0.data[:8])


@pytest.mark.parametrize("dims", [(32, 16, 48), (16, 32, 64)])
def test_three_level_ingest_matches_per_block(dims):
    _check_three_level_ingest(dims)


@pytest.mark.parametrize("dims", [(32, 16, 48), (16, 32, 64)])
def test_three_level_ingest_in_partial_chunks_matches_per_block(dims, monkeypatch):
    # every level pastes 8-cubes, three to a chunk: the scale-2 level's 8
    # blocks end on a partial chunk, and so do the scale-4 level's 32 on (32, 16, 48)
    monkeypatch.setattr(roi, "_PASTE_CHUNK_BYTES", 3 * 8 * 8**3)
    _check_three_level_ingest(dims)


@pytest.fixture(scope="module")
def cli_roi():
    """The benchmark's cli-roi input: 12 Gaussian bumps on 128^3, read back
    from f32, ROI blocks of 16 at 20%."""
    v = Volume(sum_of_gaussians((128, 128, 128), n=12, seed=5).data.astype(np.float32))
    cfg = RoiConfig(b=16, x_percent=20.0)
    return v, cfg, select_roi(v, cfg)


def test_build_adaptive_downsamples_once(cli_roi, monkeypatch):
    v, cfg, mask = cli_roi
    calls = []
    monkeypatch.setattr(roi, "downsample2x", lambda a: calls.append(a.shape) or downsample2x(a))
    ds = build_adaptive(v, mask, cfg)
    assert calls == [v.data.shape]
    assert len(ds.levels[1].blocks) == 409


def test_reconstruct_uniform_pastes_chunks_like_per_block(cli_roi, monkeypatch):
    # 409 coarse blocks upsample to 16-cubes, 64 to a chunk: 6 full chunks and a partial one
    v, cfg, mask = cli_roi
    ds = build_adaptive(v, mask, cfg)
    levels, _ = build_adaptive_per_block(v, mask, cfg)
    calls, views = [], []

    def upsample(a):
        calls.append(a.shape[::-1])
        views.append(np.shares_memory(a, ds.levels[1].blocks))
        return upsample2x(a)

    monkeypatch.setattr(roi, "upsample2x", upsample)
    got = reconstruct_uniform(ds)
    assert calls == [(8, 8, 64 * 8)] * 6 + [(8, 8, 25 * 8)]
    assert all(views)  # each chunk is upsampled from a view of the level's blocks, not a copy
    assert got.data.tobytes() == reconstruct_uniform_per_block(levels).data.tobytes()


def test_reconstruct_uniform_peak_stays_near_the_output(cli_roi):
    # the output is filled in place and adopted; the rest is one chunk's
    # upsampling scratch (about 3 MB) and the output's finiteness mask
    v, cfg, mask = cli_roi
    ds = build_adaptive(v, mask, cfg)
    tracemalloc.start()
    try:
        out = reconstruct_uniform(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * out.data.nbytes


@pytest.mark.parametrize("li", [0, 2])
def test_reconstruct_uniform_refuses_a_nan(li):
    f0, levels = _three_levels((32, 16, 48), seed=9)
    blocks = [np.stack([b.data for b in blk]) for _, _, blk in levels]
    blocks[li][-1, 1, 0, 1] = np.nan
    ds = ingest_amr([(d, u, [b.coord for b in blk], data)
                     for (d, u, blk), data in zip(levels, blocks)])
    with pytest.raises(DataError):
        reconstruct_uniform(ds)
