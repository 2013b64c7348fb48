from dataclasses import replace

import numpy as np
import pytest

from mrcompress.codec import ErrorBoundPolicy
from mrcompress.errors import FormatError, ShapeError
from mrcompress.grid import BlockCoord, Volume
from mrcompress.layout import STACKED, UnitBlock
from mrcompress.pipeline import (
    LevelArchive,
    SampleSet,
    assemble_volume,
    compress_level,
    compress_volume,
    decode_level,
    decompress_level,
    decompress_volume,
    level_sample_pairs,
    tile_volume,
)
from mrcompress.postprocess import plan_sampling, postprocess_allowance

from helpers import max_abs_err, noisy_field, sum_of_gaussians


# ------------------------------------------------------------------ tiling


def test_tile_volume_counts_and_content():
    v = noisy_field((16, 8, 24), seed=0)
    blocks = tile_volume(v, 8)
    assert len(blocks) == 2 * 1 * 3
    for b in blocks:
        c = b.coord
        assert np.array_equal(
            b.data,
            v.data[
                c.bz * 8 : (c.bz + 1) * 8,
                c.by * 8 : (c.by + 1) * 8,
                c.bx * 8 : (c.bx + 1) * 8,
            ],
        )


def test_tile_volume_validation():
    v = noisy_field((12, 12, 12), seed=1)
    with pytest.raises(ShapeError):
        tile_volume(v, 8)
    with pytest.raises(ShapeError):
        tile_volume(v, 0)


def test_assemble_inverts_tile():
    v = noisy_field((16, 16, 32), seed=2)
    assert assemble_volume(tile_volume(v, 8), v.dims) == v


def test_assemble_rejects_gaps_overlaps_and_strays():
    v = noisy_field((16, 16, 16), seed=3)
    blocks = tile_volume(v, 8)
    with pytest.raises(ShapeError):
        assemble_volume(blocks[:-1], v.dims)
    with pytest.raises(ShapeError):
        assemble_volume(blocks + [blocks[0]], v.dims)
    stray = UnitBlock(BlockCoord(9, 0, 0, 8), 8, np.zeros((8, 8, 8)))
    with pytest.raises(ShapeError):
        assemble_volume(blocks + [stray], v.dims)
    with pytest.raises(ShapeError):
        assemble_volume([], v.dims)


# ------------------------------------------------------------- level round trips


@pytest.mark.parametrize("codec", ["interp", "block"])
@pytest.mark.parametrize("arrangement", ["linear", "stacked"])
def test_level_round_trip_within_bound(codec, arrangement):
    v = sum_of_gaussians((16, 16, 16), seed=4)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, v.dims, 8, ErrorBoundPolicy(eb=1e-3),
                          codec=codec, arrangement=arrangement)
    out = assemble_volume(decompress_level(arch), v.dims)
    assert max_abs_err(v, out) <= 1e-3


def test_nan_in_a_tiled_level_is_a_format_error():
    # levels are coded from finite data, so a NaN literal means corruption
    data = sum_of_gaussians((16, 16, 16), seed=6).data.copy()
    data[3, 4, 5] = 1e6  # forces literals, which the stream stores last
    v = Volume(data)
    arch = compress_level(tile_volume(v, 8), v.dims, 8, ErrorBoundPolicy(eb=1e-3))
    assert int.from_bytes(arch.blob.stream[:8], "little") > 0  # the literal count
    stream = arch.blob.stream[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    with pytest.raises(FormatError):
        decode_level(replace(arch, blob=replace(arch.blob, stream=stream)))


def test_pad_auto_rules():
    v = sum_of_gaussians((16, 16, 16), seed=5)
    p = ErrorBoundPolicy(eb=1e-3)

    def padded(u, **kw):
        blocks = tile_volume(v, u)
        return compress_level(blocks, v.dims, u, p, **kw).blob.padded

    assert padded(8)  # interp + linear + u > 4
    assert not padded(4)  # at the threshold, padding never pays
    assert not padded(8, codec="block")
    assert not padded(8, arrangement=STACKED)
    assert not padded(8, pad="off")
    with pytest.raises(ShapeError):
        padded(8, pad="maybe")


def test_empty_level_rejected():
    with pytest.raises(ShapeError):
        compress_level([], (8, 8, 8), 8, ErrorBoundPolicy(eb=1e-3))


def test_level_u_must_match_its_blocks():
    v = sum_of_gaussians((32, 32, 32), seed=5)
    with pytest.raises(ShapeError):
        compress_level(tile_volume(v, 16), v.dims, 8, ErrorBoundPolicy(eb=1e-3), post_family="sz")


def test_volume_round_trip_and_dispatch_guards():
    v = sum_of_gaussians((12, 12, 12), seed=6)
    arch = compress_volume(v, ErrorBoundPolicy(eb=1e-4))
    assert arch.u == 0
    assert max_abs_err(v, decompress_volume(arch)) <= 1e-4
    with pytest.raises(ShapeError):
        decompress_level(arch)

    blocks = tile_volume(v, 4)
    larch = compress_level(blocks, v.dims, 4, ErrorBoundPolicy(eb=1e-4))
    with pytest.raises(ShapeError):
        decompress_volume(larch)


# ---------------------------------------------------------- post-processing


def test_post_fit_populates_archive():
    v = sum_of_gaussians((32, 32, 32), seed=7)
    blocks = tile_volume(v, 8)
    eb = 1e-3
    arch = compress_level(blocks, v.dims, 8, ErrorBoundPolicy(eb=eb), post_family="sz")
    assert arch.post is not None and arch.post.family == "sz"
    assert isinstance(arch.samples, SampleSet)
    assert arch.post_blocksize == 8
    assert arch.samples.plan.achieved_rate <= 0.05

    # smoothing must stay inside its declared band around the plain decode
    plain = LevelArchive(dims=arch.dims, blob=arch.blob)
    base = assemble_volume(decompress_level(plain), v.dims)
    post = assemble_volume(decompress_level(arch), v.dims)
    merged_dims = arch.blob.dims
    if arch.blob.padded:
        merged_dims = (merged_dims[0] - 1, merged_dims[1] - 1, merged_dims[2])
    allow = postprocess_allowance(
        (merged_dims[2], merged_dims[1], merged_dims[0]), 8, arch.post
    ).max()
    assert max_abs_err(base, post) <= allow * eb + 1e-12
    assert max_abs_err(v, post) <= (1.0 + allow) * eb + 1e-12


@pytest.mark.parametrize("codec, arrangement", [("interp", "linear"), ("interp", STACKED), ("block", "linear")])
def test_post_fit_decodes_nothing(monkeypatch, codec, arrangement):
    import mrcompress.pipeline as pipeline

    v = sum_of_gaussians((32, 32, 32), seed=12)
    p = ErrorBoundPolicy(eb=1e-3)
    decompress = pipeline.decompress
    calls = []
    monkeypatch.setattr(pipeline, "decompress", lambda blob: calls.append(blob) or decompress(blob))
    arch = compress_level(tile_volume(v, 8), v.dims, 8, p, codec=codec,
                          arrangement=arrangement, post_family="sz")
    varch = compress_volume(v, p, codec=codec, post_family="zfp")
    assert calls == []
    # the same choice as a fit on the decoded blob
    post, samples = pipeline._fit_intensity(v.data, decompress(varch.blob), 1e-3, 4, "zfp", 0, 0.05)
    assert (post, samples.plan) == (varch.post, varch.samples.plan)
    assert arch.blob.padded == (codec == "interp" and arrangement == "linear")
    level = assemble_volume(decompress_level(arch), v.dims)
    assert max_abs_err(v, level) <= (1.0 + 3 * 0.5) * 1e-3 + 1e-12


def test_post_blocksize_fallback_for_block_codec():
    v = sum_of_gaussians((32, 32, 32), seed=8)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, v.dims, 8, ErrorBoundPolicy(eb=1e-3),
                          codec="block", post_family="zfp")
    assert arch.post_blocksize == 4
    assert arch.post.family == "zfp"

    varch = compress_volume(v, ErrorBoundPolicy(eb=1e-3), post_family="sz")
    assert varch.post_blocksize == 4


def test_stored_samples_pair_with_decoded_regions():
    v = sum_of_gaussians((32, 32, 32), seed=9)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, v.dims, 8, ErrorBoundPolicy(eb=1e-2), post_family="sz")
    orig_regions, dec_regions = level_sample_pairs(arch)
    assert len(orig_regions) == len(dec_regions) == len(arch.samples.plan.origins)
    for o, d in zip(orig_regions, dec_regions):
        assert o.shape == d.shape
        assert np.abs(o - d).max() <= (1.0 + 3 * 0.5) * 1e-2 + 1e-12

    plain = compress_volume(v, ErrorBoundPolicy(eb=1e-2))
    with pytest.raises(ShapeError):
        level_sample_pairs(plain)


def test_sample_rate_forwarded():
    v = sum_of_gaussians((64, 64, 64), seed=10)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, v.dims, 8, ErrorBoundPolicy(eb=1e-3),
                          post_family="sz", sample_rate=0.01)
    assert arch.samples.plan.achieved_rate <= 0.01


def test_compression_is_deterministic():
    v = sum_of_gaussians((32, 32, 32), seed=11)
    blocks = tile_volume(v, 8)
    p = ErrorBoundPolicy(eb=1e-3)
    a = compress_level(blocks, v.dims, 8, p, post_family="sz", seed=5)
    b = compress_level(blocks, v.dims, 8, p, post_family="sz", seed=5)
    assert a.blob.to_bytes() == b.blob.to_bytes()
    assert a.post == b.post
    assert a.samples.plan == b.samples.plan


def test_sample_set_validates_region_count():
    plan = plan_sampling((32, 32, 32), 4, seed=0)
    regions = [np.zeros(plan.edges[::-1]) for _ in plan.origins]
    SampleSet(plan=plan, regions=tuple(regions))
    with pytest.raises(ShapeError):
        SampleSet(plan=plan, regions=tuple(regions[:-1]))
