import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrcompress.codec import ErrorBoundPolicy
from mrcompress.container import (
    ContainerFile,
    ContainerLevel,
    container_from_dataset,
    dataset_from_container,
    decode_container,
    encode_container,
    read_container,
    write_container,
)
from mrcompress.errors import FormatError, ShapeError
from mrcompress.pipeline import SampleSet, compress_level, compress_volume
from mrcompress.roi import (
    Level,
    MultiResDataset,
    RoiConfig,
    build_adaptive,
    ingest_amr,
    reconstruct_uniform,
    select_roi,
)

from helpers import max_abs_err, sum_of_gaussians, tile_volume


def _dataset(dims=(32, 32, 32), percent=25.0, seed=0):
    v = sum_of_gaussians(dims, seed=seed)
    cfg = RoiConfig(b=8, x_percent=percent)
    return v, cfg, build_adaptive(v, select_roi(v, cfg), cfg)


def _single_level_container(post_family=None, seed=1):
    v = sum_of_gaussians((32, 32, 32), seed=seed)
    arch = compress_level(tile_volume(v, 8), ErrorBoundPolicy(eb=1e-3), post_family=post_family)
    return ContainerFile(levels=(ContainerLevel(archive=arch),)), v


def _two_level_sz_container():
    # 64^3 so both merged levels are big enough for the 5 percent sample cap
    v = sum_of_gaussians((64, 64, 64), seed=6)
    cfg = RoiConfig(b=8, x_percent=25.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    return container_from_dataset(ds, policy=ErrorBoundPolicy(eb=1e-3), post_family="sz",
                                  roi_b=cfg.b, roi_x_percent=cfg.x_percent)


# -------------------------------------------------------------- round trips


def test_stored_dataset_round_trips_bit_exactly():
    v, cfg, ds = _dataset()
    c = container_from_dataset(ds, roi_b=cfg.b, roi_x_percent=cfg.x_percent)
    back = decode_container(encode_container(c))
    assert back.roi_b == 8 and back.roi_x_percent == 25.0
    assert np.array_equal(back.roi_mask, ds.levels[0].occupancy)
    ds2 = dataset_from_container(back)
    assert len(ds2.levels) == len(ds.levels)
    for la, lb in zip(ds.levels, ds2.levels):
        assert la.dims == lb.dims and la.u == lb.u
        assert np.array_equal(la.occupancy, lb.occupancy)
        assert la.blocks.tobytes() == lb.blocks.tobytes()
    assert reconstruct_uniform(ds2) == reconstruct_uniform(ds)


def test_compressed_dataset_honors_bound_per_level():
    v, cfg, ds = _dataset(seed=2)
    eb = 1e-3
    c = container_from_dataset(ds, policy=ErrorBoundPolicy(eb=eb))
    ds2 = dataset_from_container(decode_container(encode_container(c)))
    for la, lb in zip(ds.levels, ds2.levels):
        assert np.array_equal(la.occupancy, lb.occupancy)
        assert np.abs(la.blocks - lb.blocks).max() <= eb


def test_fully_fine_roi_drops_the_empty_coarse_level():
    v, cfg, ds = _dataset(percent=100.0, seed=3)
    assert len(ds.levels[1].blocks) == 0
    c = container_from_dataset(ds, roi_b=cfg.b, roi_x_percent=100.0)
    assert c.n_levels == 1
    ds2 = dataset_from_container(decode_container(encode_container(c)))
    fine_occupancy = ds2.levels[0].occupancy
    assert np.array_equal(fine_occupancy, ds.levels[0].occupancy) and fine_occupancy.all()
    assert reconstruct_uniform(ds2) == v


@pytest.mark.parametrize("policy", [None, ErrorBoundPolicy(eb=1e-2)])
def test_an_empty_fine_level_is_refused_not_dropped(policy):
    # an empty 16^3 fine level over a full 8^3 coarse one once became an
    # 8^3 file that decoded to the half-resolution grid without an error
    ds = ingest_amr([((16, 16, 16), 8, np.zeros((0, 3)), np.zeros((0, 8, 8, 8))),
                     ((8, 8, 8), 8, [(0, 0, 0)], np.ones((1, 8, 8, 8)))])
    assert reconstruct_uniform(ds).dims == (16, 16, 16)
    with pytest.raises(ShapeError, match="level 0 is empty"):
        container_from_dataset(ds, policy)


def test_an_empty_middle_level_is_refused():
    # the fine level fills the first coarse footprint, the coarse level the rest
    rng = np.random.default_rng(8)
    octants = [(x, y, z) for z in range(2) for y in range(2) for x in range(2)]
    ds = ingest_amr([((32, 32, 32), 8, octants, rng.standard_normal((8, 8, 8, 8))),
                     ((16, 16, 16), 8, np.zeros((0, 3)), np.zeros((0, 8, 8, 8))),
                     ((8, 8, 8), 4, octants[1:], rng.standard_normal((7, 4, 4, 4)))])
    with pytest.raises(ShapeError, match="level 1 is empty"):
        container_from_dataset(ds)


# "both": a two-level ROI container with a sample sidecar on both levels
@pytest.mark.parametrize("variant", ["stored", "samples", "both"])
def test_reencode_is_byte_identical(variant):
    if variant == "stored":
        _, _, ds = _dataset(seed=4)
        c = container_from_dataset(ds)
    elif variant == "samples":
        c, _ = _single_level_container(post_family="sz")
    else:
        c = _two_level_sz_container()
        assert all(lv.archive.samples is not None for lv in c.levels)
    raw = encode_container(c)
    again = encode_container(decode_container(raw))
    assert again == raw


@settings(max_examples=30, deadline=None)
@given(grid=st.tuples(*[st.integers(1, 3)] * 3), u=st.sampled_from((4, 8)),
       bits=st.integers(0, 2**27 - 1), seed=st.integers(0, 2**16))
@example(grid=(3, 2, 1), u=8, bits=2**27 - 1, seed=0)  # a 100% ROI: the coarse level is empty
@example(grid=(2, 3, 2), u=4, bits=1 << 5, seed=1)  # a single fine block
def test_random_occupancies_round_trip(grid, u, bits, seed):
    gx, gy, gz = grid
    n = gx * gy * gz
    fine = np.array([bits >> i & 1 for i in range(n)], dtype=bool).reshape(gz, gy, gx)
    assume(fine.any())  # ROI selection keeps at least one fine block
    rng = np.random.default_rng(seed)
    dims = (gx * u, gy * u, gz * u)
    levels = []
    for li, occ in enumerate((fine, ~fine)):
        lu = u >> li
        levels.append(Level(tuple(d >> li for d in dims), lu, occ,
                            rng.standard_normal((int(occ.sum()), lu, lu, lu))))
    ds = MultiResDataset(levels=levels)
    kept = [lv for lv in ds.levels if len(lv.blocks)]  # empty levels are not stored
    for policy in (None, ErrorBoundPolicy(eb=1e-2)):
        raw = encode_container(container_from_dataset(ds, policy, roi_b=u, roi_x_percent=50.0))
        c = decode_container(raw)
        assert encode_container(c) == raw
        assert np.array_equal(c.roi_mask, fine)
        back = dataset_from_container(c)
        assert len(back.levels) == len(kept)
        for la, lb in zip(kept, back.levels):
            assert (la.dims, la.u) == (lb.dims, lb.u)
            assert np.array_equal(la.occupancy, lb.occupancy)
            if policy is None:
                assert la.blocks.tobytes() == lb.blocks.tobytes()
            else:
                assert np.abs(la.blocks - lb.blocks).max() <= 1e-2


def test_file_round_trip(tmp_path):
    c, v = _single_level_container()
    path = tmp_path / "vol.mrc"
    write_container(c, path)
    back = read_container(path)
    assert encode_container(back) == encode_container(c)
    ds = dataset_from_container(back)
    assert max_abs_err(v, reconstruct_uniform(ds)) <= 1e-3


def test_original_and_compressed_byte_counts():
    v, cfg, ds = _dataset(seed=5)
    c = container_from_dataset(ds, policy=ErrorBoundPolicy(eb=1e-2))
    fine_cells = int(ds.levels[0].occupancy.sum()) * 8**3
    coarse_cells = int((~ds.levels[0].occupancy).sum()) * 4**3
    assert c.original_bytes() == (fine_cells + coarse_cells) * 8
    level_bytes = sum(lv.archive.size_bytes() for lv in c.levels)
    assert 0 < level_bytes < c.original_bytes()


def test_original_bytes_count_the_blocks_in_either_arrangement():
    # 13 fine blocks fill 13 of 18 stacked slots; the linear fine level is padded
    _, _, ds = _dataset(percent=20.0, seed=5)
    policy = ErrorBoundPolicy(eb=1e-2)
    linear, stacked = (container_from_dataset(ds, policy, arrangement=a) for a in ("linear", "stacked"))
    assert linear.levels[0].archive.blob.padded and stacked.levels[0].archive.blob.dims == (16, 24, 24)
    want = sum(len(lv.blocks) * lv.u**3 for lv in ds.levels) * 8
    assert linear.original_bytes() == stacked.original_bytes() == want


# ----------------------------------------------------------------- sidecars


def test_sample_sidecar_round_trip():
    c, _ = _single_level_container(post_family="sz")
    arch = c.levels[0].archive
    assert arch.samples is not None
    back = decode_container(encode_container(c))
    b = back.levels[0].archive
    assert b.post == arch.post
    assert b.samples.plan == arch.samples.plan
    for ra, rb in zip(arch.samples.regions, b.samples.regions):
        assert np.array_equal(ra, rb)


def test_absent_sidecars_stay_absent():
    c, _ = _single_level_container()
    back = decode_container(encode_container(c))
    assert back.levels[0].archive.samples is None


@pytest.mark.parametrize("flags", [0, 2, 3])
def test_sidecar_flags_other_than_samples_rejected(flags):
    c, _ = _single_level_container(post_family="sz")
    a = c.levels[0].archive
    raw = bytearray(encode_container(c))
    # the sidecar starts where the same container without one ends
    at = len(encode_container(ContainerFile(levels=(ContainerLevel(archive=replace(a, samples=None)),))))
    assert raw[at] == 1
    raw[at] = flags
    with pytest.raises(FormatError):
        decode_container(bytes(raw))


# ------------------------------------------------------------ format errors


def test_corrupt_level_u_is_a_format_error():
    c, _ = _single_level_container()
    raw = bytearray(encode_container(c))
    # the level's u follows the fixed header and its dims
    u_at = 4 + 4 + struct.calcsize("<Id") + struct.calcsize("<3Q")
    assert struct.unpack_from("<I", raw, u_at) == (8,)
    struct.pack_into("<I", raw, u_at, 16)
    with pytest.raises(FormatError):
        decode_container(bytes(raw))


def test_bad_magic_rejected():
    c, _ = _single_level_container()
    raw = bytearray(encode_container(c))
    raw[:4] = b"NOPE"
    with pytest.raises(FormatError):
        decode_container(bytes(raw))


def test_unsupported_version_and_width():
    c, _ = _single_level_container()
    raw = bytearray(encode_container(c))
    bad_version = bytearray(raw)
    struct.pack_into("<H", bad_version, 4, 9)
    with pytest.raises(FormatError):
        decode_container(bytes(bad_version))
    bad_width = bytearray(raw)
    bad_width[6] = 4
    with pytest.raises(FormatError):
        decode_container(bytes(bad_width))


def test_truncation_always_raises_format_error():
    c, _ = _single_level_container(post_family="sz")
    raw = encode_container(c)
    for frac in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
        cut = int(len(raw) * frac)
        with pytest.raises(FormatError):
            decode_container(raw[:cut])


def test_occupancy_and_blob_block_count_must_agree():
    c, _ = _single_level_container()
    raw = bytearray(encode_container(c))
    # the bitmap follows the fixed header and the level record; all 64 of
    # the level's blocks are set
    at = 4 + 4 + struct.calcsize("<Id") + struct.calcsize("<3QI")
    assert raw[at : at + 8] == b"\xff" * 8
    raw[at] = 0x7F
    with pytest.raises(FormatError, match="blob holds 64"):
        decode_container(bytes(raw))


def test_dataset_from_container_maps_broken_geometry_to_format_error():
    _, cfg, ds = _dataset(seed=16)
    c = container_from_dataset(ds, roi_b=cfg.b, roi_x_percent=cfg.x_percent)
    raw = bytearray(encode_container(c))
    nx_at = 4 + 4 + struct.calcsize("<Id")  # the fine level's dims lead its record
    assert struct.unpack_from("<3Q", raw, nx_at) == (32, 32, 32)
    bad = bytearray(raw)
    bad[nx_at] ^= 0x80  # the library twin of the CLI's fine-dims flips
    with pytest.raises(FormatError):
        dataset_from_container(decode_container(bytes(bad)))
    # dims that keep the bitmap's size decode, and only the refinement
    # chain can reject them
    struct.pack_into("<3Q", raw, nx_at, 16, 64, 32)
    with pytest.raises(FormatError, match="refinement chain"):
        dataset_from_container(decode_container(bytes(raw)))


def test_unknown_post_family_code_rejected():
    c, _ = _single_level_container()
    raw = bytearray(encode_container(c))
    # the post record is the 25 bytes before the trailing sidecar offset
    fam_at = len(raw) - 8 - struct.calcsize("<B3d")
    assert raw[fam_at] == 0
    raw[fam_at] = 9
    with pytest.raises(FormatError):
        decode_container(bytes(raw))


def test_sidecar_offset_out_of_range_rejected():
    c, _ = _single_level_container(post_family="sz")
    raw = bytearray(encode_container(c))
    # the single level's sidecar offset field immediately precedes the
    # sidecar bytes it points at, so its value is its own position plus 8
    patch_at = None
    for p in range(len(raw) - 8):
        (val,) = struct.unpack_from("<Q", raw, p)
        if val == p + 8:
            patch_at = p
            break
    assert patch_at is not None
    struct.pack_into("<Q", raw, patch_at, len(raw) + 100)
    with pytest.raises(FormatError):
        decode_container(bytes(raw))


def test_corrupt_sample_payload_rejected():
    c, _ = _single_level_container(post_family="sz")
    raw = bytearray(encode_container(c))
    raw[-3] ^= 0xFF  # inside the zlib-packed sample values
    with pytest.raises(FormatError):
        decode_container(bytes(raw))


@pytest.mark.parametrize("edges, origin", [
    ((8, 8, 16), (1, 0, 432)),  # one cell into the x pad layer
    ((8, 8, 16), (0, 0, 500)),  # past the end of z
    ((0, 8, 16), (0, 0, 432)),  # an empty region
])
def test_sample_region_outside_its_level_rejected(edges, origin):
    c, _ = _single_level_container(post_family="sz")
    a = c.levels[0].archive
    assert a.blob.padded and a.blob.dims == (9, 9, 512)

    def with_region(edges, origin):
        ex, ey, ez = edges
        plan = replace(a.samples.plan, edges=edges, origins=(origin,))
        samples = SampleSet(plan=plan, regions=(np.zeros((ez, ey, ex)),))
        return encode_container(ContainerFile(levels=(ContainerLevel(archive=replace(a, samples=samples)),)))

    # a region ending on the last unpadded cell of every axis is accepted
    decode_container(with_region((8, 8, 16), (0, 0, 496)))
    with pytest.raises(FormatError):
        decode_container(with_region(edges, origin))


def test_container_requires_levels():
    with pytest.raises(ShapeError):
        ContainerFile(levels=())


# ------------------------------------------------------- multi-level layout


def test_two_level_sidecars_keep_their_levels():
    c = _two_level_sz_container()
    # only the fine level keeps its sidecar, so each must stay with its level
    c = replace(c, levels=(c.levels[0], ContainerLevel(archive=replace(c.levels[1].archive, samples=None))))
    back = decode_container(encode_container(c))
    for orig_lv, back_lv in zip(c.levels, back.levels):
        sa, sb = orig_lv.archive.samples, back_lv.archive.samples
        assert (sa is None) == (sb is None)
        if sa is not None:
            assert sa.plan == sb.plan
            for ra, rb in zip(sa.regions, sb.regions):
                assert np.array_equal(ra, rb)


def _decoded_digest(raw):
    rec = reconstruct_uniform(dataset_from_container(decode_container(raw)))
    return hashlib.sha256(rec.data.astype("<f8").tobytes()).hexdigest()


# Each container golden below is re-recorded for the occupancy-bitmap
# format; its _DECODED twin, the sha256 of the f64 reconstruction, was
# recorded with the coord-table format before it.

# sha256 of encode_container for a 2-level ROI container with post "sz",
# first recorded before the interp traversal, blob header and level encoder
# were each given a single definition
GOLDEN_ROI_SZ = "6bc363118309adc9ccc0d0afe8dcf06506b5f21196afcda3a5a7675ef297f090"
GOLDEN_ROI_SZ_DECODED = "bc7144d7e7a0f199dcc66256b3ee71c1315a7b6f12057abe805e104c9fc0b2fa"


def test_roi_container_golden_bytes():
    v = sum_of_gaussians((64, 64, 64), seed=13)
    cfg = RoiConfig(b=8, x_percent=25.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    c = container_from_dataset(ds, policy=ErrorBoundPolicy(eb=1e-3), post_family="sz",
                               roi_b=cfg.b, roi_x_percent=cfg.x_percent)
    assert [lv.archive.u for lv in c.levels] == [8, 4]
    assert all(lv.archive.post is not None for lv in c.levels)
    raw = encode_container(c)
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_ROI_SZ
    assert _decoded_digest(raw) == GOLDEN_ROI_SZ_DECODED


# sha256 of the `roi` command's output for a 32^3 f64 field: codec 0
# (stored), linear arrangement, no post, no sidecars
GOLDEN_ROI_STORED = "223d95eac04b874bc6f1408e3f4b71b3f578d19bf8f472afc4f962ed009f9a27"
GOLDEN_ROI_STORED_DECODED = "044c4ce1f319c81486f3f0011a5cd95cfe526e8cde56d5ac51060970bce8a7f0"


def test_roi_command_golden_bytes(tmp_path):
    from mrcompress.cli import main
    from mrcompress.grid import write_raw_volume

    raw, out = tmp_path / "vol.raw", tmp_path / "roi.mrc"
    write_raw_volume(sum_of_gaussians((32, 32, 32), seed=14), raw, "f64")
    assert main(["roi", "--input", str(raw), "--dims", "32,32,32", "--dtype", "f64",
                 "--block", "8", "--percent", "25", "--out", str(out)]) == 0
    c = read_container(out)
    assert [lv.archive.blob.codec_name for lv in c.levels] == ["stored", "stored"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ROI_STORED
    assert _decoded_digest(out.read_bytes()) == GOLDEN_ROI_STORED_DECODED


# sha256 of a 2-level container with the block codec, the stacked
# arrangement, the zlib pass and post "zfp": the codec, arrangement and
# post-family bytes the other digests leave unpinned
GOLDEN_BLOCK_STACKED_ZFP = "0491d2567df97ccb4a81acc37547daaa87fc9a61b2144f7eeb3a458bc6256cab"
GOLDEN_BLOCK_STACKED_ZFP_DECODED = "aba2f13c4b95a8d73828c1c0db0569516b75e9c6770d084ad9b0a25a58d78ed7"


def test_block_stacked_zfp_container_golden_bytes():
    _, cfg, ds = _dataset(seed=15)
    c = container_from_dataset(ds, policy=ErrorBoundPolicy(eb=1e-3), codec="block",
                               arrangement="stacked", lossless="zlib", post_family="zfp",
                               roi_b=cfg.b, roi_x_percent=cfg.x_percent)
    blobs = [lv.archive.blob for lv in c.levels]
    assert [(b.codec_name, b.lossless) for b in blobs] == [("block", "zlib")] * 2
    assert [b.arrangement for b in blobs] == ["stacked"] * 2
    assert all(lv.archive.post.family == "zfp" for lv in c.levels)
    raw = encode_container(c)
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_BLOCK_STACKED_ZFP
    assert _decoded_digest(raw) == GOLDEN_BLOCK_STACKED_ZFP_DECODED
