import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mrcompress.codec import ErrorBoundPolicy
from mrcompress.errors import FormatError, ShapeError
from mrcompress.grid import Volume
from mrcompress.layout import STACKED
from mrcompress.pipeline import (
    SampleSet,
    compress_level,
    compress_volume,
    decode_level,
    decompress_level,
    decompress_volume,
    level_sample_pairs,
)
from mrcompress.postprocess import plan_sampling
from mrcompress.roi import Level

from helpers import (
    assemble_volume,
    max_abs_err,
    noisy_field,
    postprocess_allowance,
    smooth_field,
    sum_of_gaussians,
    tile_blocks,
    tile_volume,
)


# ------------------------------------------------------------------ tiling


def test_tile_volume_counts_and_content():
    v = noisy_field((16, 8, 24), seed=0)
    level = tile_volume(v, 8)
    assert level.occupancy.shape == (3, 1, 2) and level.occupancy.all()
    assert len(level.blocks) == 2 * 1 * 3
    for (bz, by, bx), data in zip(np.argwhere(level.occupancy), level.blocks):
        assert np.array_equal(
            data,
            v.data[
                bz * 8 : (bz + 1) * 8,
                by * 8 : (by + 1) * 8,
                bx * 8 : (bx + 1) * 8,
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
    assert assemble_volume(tile_volume(v, 8)) == v


def test_assemble_rejects_gaps_overlaps_and_strays():
    v = noisy_field((16, 16, 16), seed=3)
    level = tile_volume(v, 8)
    gap = level.occupancy.copy()
    gap[-1, -1, -1] = False
    with pytest.raises(ShapeError):
        assemble_volume(Level(v.dims, 8, gap, level.blocks[:-1]))
    # an occupancy grid holds each block once and only on the grid, so an
    # overlapping or stray block leaves more blocks than occupied cells
    blocks = np.stack([b.data for b in tile_blocks(v, 8)])
    for extra in (blocks[:1], np.zeros((1, 8, 8, 8))):
        with pytest.raises(ShapeError):
            Level(v.dims, 8, level.occupancy, np.concatenate([blocks, extra]))


# ------------------------------------------------------------- level round trips


@pytest.mark.parametrize("codec", ["interp", "block"])
@pytest.mark.parametrize("arrangement", ["linear", "stacked"])
def test_level_round_trip_within_bound(codec, arrangement):
    v = sum_of_gaussians((16, 16, 16), seed=4)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, ErrorBoundPolicy(eb=1e-3), codec=codec, arrangement=arrangement)
    out = assemble_volume(decompress_level(arch))
    assert max_abs_err(v, out) <= 1e-3


def test_nan_in_a_tiled_level_is_a_format_error():
    # levels are coded from finite data, so a NaN literal means corruption
    data = sum_of_gaussians((16, 16, 16), seed=6).data.copy()
    data[3, 4, 5] = 1e6  # forces literals, which the stream stores last
    v = Volume(data)
    arch = compress_level(tile_volume(v, 8), ErrorBoundPolicy(eb=1e-3))
    assert int.from_bytes(arch.blob.stream[:8], "little") > 0  # the literal count
    stream = arch.blob.stream[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    with pytest.raises(FormatError):
        decode_level(replace(arch, blob=replace(arch.blob, stream=stream)))


def test_whole_volume_decode_checks_finiteness_once(monkeypatch):
    data = sum_of_gaussians((16, 12, 10), seed=6).data.copy()
    data[3, 4, 5] = 1e6  # forces a literal, which the stream stores last
    arch = compress_volume(Volume(data), ErrorBoundPolicy(eb=1e-3))
    stream = arch.blob.stream[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    with pytest.raises(FormatError):
        decompress_volume(replace(arch, blob=replace(arch.blob, stream=stream)))
    checked, isfinite = [], np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        checked.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    v = decompress_volume(arch)
    assert [n for n in checked if n == data.size] == [data.size]
    assert max_abs_err(data, v) <= 1e-3


def test_pad_auto_rules():
    v = sum_of_gaussians((16, 16, 16), seed=5)
    p = ErrorBoundPolicy(eb=1e-3)

    def padded(u, **kw):
        blocks = tile_volume(v, u)
        return compress_level(blocks, p, **kw).blob.padded

    assert padded(8)  # interp + linear + u > 4
    assert not padded(4)  # at the threshold, padding never pays
    assert not padded(8, codec="block")
    assert not padded(8, arrangement=STACKED)
    assert not padded(8, pad="off")
    with pytest.raises(ShapeError):
        padded(8, pad="maybe")


def test_empty_level_rejected():
    empty = Level((8, 8, 8), 8, np.zeros((1, 1, 1), dtype=bool), np.zeros((0, 8, 8, 8)))
    with pytest.raises(ShapeError):
        compress_level(empty, ErrorBoundPolicy(eb=1e-3))


def test_level_u_must_match_its_blocks():
    v = sum_of_gaussians((32, 32, 32), seed=5)
    with pytest.raises(ShapeError):
        Level(v.dims, 8, np.ones((4, 4, 4), dtype=bool), tile_volume(v, 16).blocks)


def test_volume_round_trip_and_dispatch_guards():
    v = sum_of_gaussians((12, 12, 12), seed=6)
    arch = compress_volume(v, ErrorBoundPolicy(eb=1e-4))
    assert arch.u == 0
    assert max_abs_err(v, decompress_volume(arch)) <= 1e-4
    with pytest.raises(ShapeError):
        decompress_level(arch)

    larch = compress_level(tile_volume(v, 4), ErrorBoundPolicy(eb=1e-4))
    with pytest.raises(ShapeError):
        decompress_volume(larch)


def test_interp_volume_peaks_stay_near_the_volume():
    # the traversal quantizes z-slabs of about 32k targets, not whole
    # batches of up to 1M: compress reads 2.0x its input (3.1x with
    # batch-sized temporaries). Decompress reads 1.66x its output: the
    # coder's peak, since the Volume adopts the decoded array (2.17x when
    # it was copied)
    v = smooth_field((128, 128, 128), seed=5, noise=1e-3)
    p = ErrorBoundPolicy(eb=1e-3)
    tracemalloc.start()
    try:
        arch = compress_volume(v, p)
        compress_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = decompress_volume(arch)
        decompress_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_abs_err(v, out) <= 1e-3
    assert compress_peak < 2.4 * v.data.nbytes
    assert decompress_peak < 1.8 * out.data.nbytes


# sha256 of the decompressed volume's bytes for ragged dims, where the block
# codec forms shorter blocks at the high faces
RAGGED_VOLUME_DIGESTS = {
    ((37, 18, 23), "interp"): "f755a1e0a04c8617cddd312d145d8b0cad36775a3cf77403b7ba478e15a959c9",
    ((37, 18, 23), "block"): "d328503ddc7cce113926b1c89f752635c65eed83636cb50eb5b31afc88d9be74",
    ((130, 70, 9), "interp"): "0cc434cd4f26b27d4acdafb9a04f9670b130a5cf7f9d5882a2e1370dcabcf730",
    ((130, 70, 9), "block"): "5d717467901f11763d0412ef4da6a0a2b5bce2e9a5502fa357248fbb5ffa07e1",
}


@pytest.mark.parametrize("dims, codec", sorted(RAGGED_VOLUME_DIGESTS))
def test_decompressed_volume_is_contiguous_and_frozen(dims, codec):
    # the Volume adopts the decoded array, so the decoder must hand back
    # a C-contiguous one of its own
    v = smooth_field(dims, seed=sum(dims), noise=1e-3)
    out = decompress_volume(compress_volume(v, ErrorBoundPolicy(eb=1e-4), codec=codec))
    assert out.data.flags.c_contiguous and not out.data.flags.writeable
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == RAGGED_VOLUME_DIGESTS[dims, codec]


# ---------------------------------------------------------- post-processing


def test_post_fit_populates_archive():
    v = sum_of_gaussians((32, 32, 32), seed=7)
    blocks = tile_volume(v, 8)
    eb = 1e-3
    arch = compress_level(blocks, ErrorBoundPolicy(eb=eb), post_family="sz")
    assert arch.post is not None and arch.post.family == "sz"
    assert isinstance(arch.samples, SampleSet)
    assert arch.post_blocksize == 8
    assert arch.samples.plan.achieved_rate <= 0.05

    # smoothing must stay inside its declared band around the plain decode
    plain = replace(arch, post=None, samples=None)
    base = assemble_volume(decompress_level(plain))
    post = assemble_volume(decompress_level(arch))
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
    arch = compress_level(tile_volume(v, 8), p, codec=codec,
                          arrangement=arrangement, post_family="sz")
    varch = compress_volume(v, p, codec=codec, post_family="zfp")
    assert calls == []
    # the same choice as a fit on the decoded blob
    post, samples = pipeline._fit_intensity(v.data, decompress(varch.blob), 1e-3, 4, "zfp", 0, 0.05)
    assert (post, samples.plan) == (varch.post, varch.samples.plan)
    assert arch.blob.padded == (codec == "interp" and arrangement == "linear")
    level = assemble_volume(decompress_level(arch))
    assert max_abs_err(v, level) <= (1.0 + 3 * 0.5) * 1e-3 + 1e-12


def test_post_blocksize_fallback_for_block_codec():
    v = sum_of_gaussians((32, 32, 32), seed=8)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, ErrorBoundPolicy(eb=1e-3),
                          codec="block", post_family="zfp")
    assert arch.post_blocksize == 4
    assert arch.post.family == "zfp"

    varch = compress_volume(v, ErrorBoundPolicy(eb=1e-3), post_family="sz")
    assert varch.post_blocksize == 4


def test_stored_samples_pair_with_decoded_regions():
    v = sum_of_gaussians((32, 32, 32), seed=9)
    blocks = tile_volume(v, 8)
    arch = compress_level(blocks, ErrorBoundPolicy(eb=1e-2), post_family="sz")
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
    arch = compress_level(blocks, ErrorBoundPolicy(eb=1e-3),
                          post_family="sz", sample_rate=0.01)
    assert arch.samples.plan.achieved_rate <= 0.01


def test_compression_is_deterministic():
    v = sum_of_gaussians((32, 32, 32), seed=11)
    blocks = tile_volume(v, 8)
    p = ErrorBoundPolicy(eb=1e-3)
    a = compress_level(blocks, p, post_family="sz", seed=5)
    b = compress_level(blocks, p, post_family="sz", seed=5)
    assert a.blob.to_bytes() == b.blob.to_bytes()
    assert a.post == b.post
    assert a.samples.plan == b.samples.plan


def test_sample_set_validates_region_count():
    plan = plan_sampling((32, 32, 32), 4, seed=0)
    regions = [np.zeros(plan.edges[::-1]) for _ in plan.origins]
    SampleSet(plan=plan, regions=tuple(regions))
    with pytest.raises(ShapeError):
        SampleSet(plan=plan, regions=tuple(regions[:-1]))
