from dataclasses import replace

import numpy as np
import pytest

from mrcompress.codec import compress, decompress
from mrcompress.codec.blob import ARRANGEMENTS, CODECS, CompressedBlob
from mrcompress.codec.entropy import entropy_decode, entropy_encode
from mrcompress.codec.policy import ErrorBoundPolicy, level_error_bound
from mrcompress.codec.quantize import (
    CODE_CAP,
    LITERAL_MARK,
    dequantize_array,
    quantize_array,
)
from mrcompress.codec.interp import _axis_passes, _walk
from mrcompress.codec.stored import STORED_POLICY
from mrcompress.errors import FormatError, ShapeError
from mrcompress.grid import BlockCoord, Volume
from mrcompress.layout import linear_merge, pad_linear, UnitBlock

from helpers import max_abs_err, noisy_field, smooth_field


# ---------------------------------------------------------------- policy


def test_policy_rejects_bad_bounds():
    with pytest.raises(ShapeError):
        ErrorBoundPolicy(eb=0.0)
    with pytest.raises(ShapeError):
        ErrorBoundPolicy(eb=-1e-3)
    with pytest.raises(ShapeError):
        ErrorBoundPolicy(eb=float("inf"))
    with pytest.raises(ShapeError):
        ErrorBoundPolicy(eb=1e-3, adaptive=True, alpha=1.0)
    with pytest.raises(ShapeError):
        ErrorBoundPolicy(eb=1e-3, adaptive=True, beta=0.5)


def test_uniform_bound_is_flat():
    p = ErrorBoundPolicy(eb=0.25)
    assert all(level_error_bound(p, l, 6) == 0.25 for l in range(7))


def test_adaptive_bound_schedule():
    # maxlevel 4 with the default alpha/beta: the shrink factors are
    # 8, 8, 2.25^2, 2.25, 1 from coarsest to finest
    p = ErrorBoundPolicy(eb=1.0, adaptive=True)
    want = [1 / 8.0, 1 / 8.0, 1 / 5.0625, 1 / 2.25, 1.0]
    got = [level_error_bound(p, l, 4) for l in range(5)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # scales linearly with the bound
    p2 = ErrorBoundPolicy(eb=3e-4, adaptive=True)
    got2 = [level_error_bound(p2, l, 4) for l in range(5)]
    assert np.allclose(got2, np.array(want) * 3e-4, rtol=1e-15, atol=0)


def test_adaptive_bound_caps_at_beta():
    p = ErrorBoundPolicy(eb=1.0, adaptive=True, alpha=2.0, beta=4.0)
    got = [level_error_bound(p, l, 10) for l in range(11)]
    assert got[-1] == 1.0
    assert got[-2] == 0.5
    assert min(got) == 0.25
    assert got[0] == 0.25


def test_level_bound_range_check():
    p = ErrorBoundPolicy(eb=1.0)
    with pytest.raises(ShapeError):
        level_error_bound(p, -1, 4)
    with pytest.raises(ShapeError):
        level_error_bound(p, 5, 4)


# -------------------------------------------------------------- schedule


def _positions(passes, kind):
    """Sorted targets of one kind (1: two-sided, 2: one-sided) over the
    stride passes; the endpoint pass does not count."""
    return sorted(int(p) for ps in passes[1:] for p in ps[kind])


def test_schedule_eight_points():
    passes = _axis_passes(8)
    step, two, one = passes[0]
    assert (step, two.tolist(), one.tolist()) == (7, [], [7])  # endpoint from the seed
    assert [p[0] for p in passes] == [7, 4, 2, 1]
    assert _positions(passes, 2) == [4, 6]
    assert _positions(passes, 1) == [1, 2, 3, 5]


def test_schedule_nine_points_has_no_one_sided():
    passes = _axis_passes(9)
    assert passes[0][2].tolist() == [8]
    assert _positions(passes, 2) == []
    assert _positions(passes, 1) == [1, 2, 3, 4, 5, 6, 7]


def test_schedule_tiny_axes():
    assert _axis_passes(1) == []
    passes = _axis_passes(2)
    # an endpoint pass, then an empty stride-1 pass that still counts
    # toward the axis's depth
    assert [(s, t.tolist(), o.tolist()) for s, t, o in passes] == [(1, [], [1]), (1, [], [])]


@pytest.mark.parametrize("n", list(range(1, 40)) + [64, 65, 100, 127, 128])
def test_schedule_covers_every_position_once(n):
    seen = [0]  # the seed
    for _, two, one in _axis_passes(n):
        seen.extend(two.tolist() + one.tolist())
    assert sorted(seen) == list(range(n))
    assert len(set(seen)) == n


@pytest.mark.parametrize("n", list(range(2, 40)) + [64, 100, 128])
def test_schedule_predictors_read_earlier_levels_only(n):
    known = {0}
    for step, two, one in _axis_passes(n):
        for pos in two.tolist():
            assert pos - step in known and pos + step in known
        for pos in one.tolist():
            assert pos - step in known
            assert pos + step > n - 1  # the far neighbor is off-axis
        known.update(two.tolist() + one.tolist())


def test_grid_schedule_aligns_axes_at_the_end():
    walk = list(_walk((8, 32, 16)))
    maxlevel = len(_axis_passes(32))
    assert max(g for g, *_ in walk) == maxlevel
    # every axis runs its stride-1 pass at the global maxlevel
    assert sorted((ax, step) for g, ax, step, *_ in walk if g == maxlevel) == [(0, 1), (1, 1), (2, 1)]
    # the short axis starts late
    assert sorted((ax, step) for g, ax, step, *_ in walk if g == 1) == [(1, 31)]


# -------------------------------------------------------------- quantize


def test_quantize_worked_example():
    codes, recon, lits = quantize_array([0.0], [0.37], 0.1)
    assert codes.tolist() == [2] and lits.size == 0
    assert recon[0] == pytest.approx(0.4, abs=1e-15)


def test_quantize_rounds_half_away_from_zero():
    codes, recon, _ = quantize_array([0.0, 0.0], [0.1, -0.1], 0.1)
    assert codes.tolist() == [1, -1]
    assert recon.tolist() == pytest.approx([0.2, -0.2])


def test_quantize_zero_residual():
    codes, recon, _ = quantize_array([1.5], [1.5], 1e-3)
    assert codes.tolist() == [0]
    assert recon.tolist() == [1.5]


def test_quantize_escapes_large_residuals():
    eb = 0.1
    actual = 2 * eb * (CODE_CAP + 10.0)
    codes, recon, lits = quantize_array([0.0], [actual], eb)
    assert codes.tolist() == [LITERAL_MARK]
    assert recon.tolist() == lits.tolist() == [actual]  # literals are exact


@pytest.mark.parametrize("eb", [1e-1, 1e-3, 1e-6])
def test_quantize_array_bound_property(eb):
    rng = np.random.default_rng(11)
    pred = rng.normal(size=4096)
    actual = pred + rng.normal(scale=10 * eb, size=4096)
    codes, recon, lits = quantize_array(pred, actual, eb)
    assert np.abs(recon - actual).max() <= eb
    marks = codes == LITERAL_MARK
    assert lits.size == int(marks.sum())
    assert np.array_equal(recon[marks], actual[marks])


def test_dequantize_matches_encoder_exactly():
    rng = np.random.default_rng(12)
    pred = rng.normal(size=2000)
    actual = pred + rng.normal(scale=1.0, size=2000)
    actual[::97] += 1e7  # force some literals
    eb = 1e-4
    codes, recon, lits = quantize_array(pred, actual, eb)
    assert (codes == LITERAL_MARK).any()
    back = dequantize_array(pred, codes.astype(np.int64), eb, lits)
    assert np.array_equal(back, recon)


def test_dequantize_checks_literal_count():
    pred = np.zeros(3)
    codes = np.array([0, LITERAL_MARK, 1], dtype=np.int64)
    with pytest.raises(ShapeError):
        dequantize_array(pred, codes, 0.1, np.zeros(2))


def test_decoders_validate_literal_count():
    # one literal value per literal mark, or the decoder refuses the stream
    v = noisy_field((6, 5, 7), seed=19, scale=1e3)
    p = ErrorBoundPolicy(eb=1e-9)
    for codec in ("interp", "block"):
        blob = compress(v, p, codec=codec)
        codes, lits = entropy_decode(blob.stream, blob.n_values)
        assert (codes == LITERAL_MARK).sum() == lits.size > 0
        assert max_abs_err(v, decompress(replace(blob, stream=entropy_encode(codes, lits)))) <= 1e-9
        for wrong in (lits[:-1], np.append(lits, 7.0)):
            with pytest.raises(FormatError):
                decompress(replace(blob, stream=entropy_encode(codes, wrong)))


# ----------------------------------------------------- interpolation codec


@pytest.mark.parametrize("eb", [1e-1, 1e-3, 1e-6])
def test_interp_bound_on_smooth_data(eb):
    v = smooth_field((32, 32, 32), seed=3)
    blob = compress(v, ErrorBoundPolicy(eb=eb))
    out = decompress(blob)
    assert isinstance(out, Volume)
    assert out.dims == v.dims
    assert max_abs_err(v, out) <= eb


def test_interp_bound_on_noise():
    # worst case for the predictor; the bound must still hold
    v = noisy_field((17, 23, 9), seed=4)
    blob = compress(v, ErrorBoundPolicy(eb=1e-2))
    assert max_abs_err(v, decompress(blob)) <= 1e-2


def test_interp_adaptive_bound_still_holds():
    v = smooth_field((31, 16, 20), seed=5)
    blob = compress(v, ErrorBoundPolicy(eb=1e-3, adaptive=True))
    assert max_abs_err(v, decompress(blob)) <= 1e-3


def test_interp_constant_field_compresses_hard():
    v = Volume(np.zeros((16, 16, 16)))
    blob = compress(v, ErrorBoundPolicy(eb=1e-6))
    assert max_abs_err(v, decompress(blob)) == 0.0
    # one table entry, one bit per sample
    assert blob.size_bytes() < 16**3 / 8 + 128
    assert blob.original_bytes / blob.size_bytes() > 40


def test_interp_tiny_bound_degrades_to_exact_literals():
    v = noisy_field((8, 8, 8), seed=6)
    blob = compress(v, ErrorBoundPolicy(eb=1e-300))
    out = decompress(blob)
    assert np.array_equal(out.data, v.data)


def test_interp_single_cell_and_thin_axes():
    for dims in [(1, 1, 1), (4, 1, 7), (2, 3, 1)]:
        v = noisy_field(dims, seed=7)
        blob = compress(v, ErrorBoundPolicy(eb=1e-4))
        out = decompress(blob)
        assert out.dims == dims
        assert max_abs_err(v, out) <= 1e-4


def test_interp_preserves_merge_metadata():
    rng = np.random.default_rng(8)
    blocks = [
        UnitBlock(BlockCoord(i, 0, 0, 8), 8, rng.normal(size=(8, 8, 8)))
        for i in range(3)
    ]
    m = pad_linear(linear_merge(blocks))
    blob = compress(m, ErrorBoundPolicy(eb=1e-3))
    out = decompress(blob)
    assert out.order == m.order
    assert out.u == 8 and out.padded and out.arrangement == m.arrangement
    assert np.abs(out.values - m.values).max() <= 1e-3


def test_interp_deterministic_bytes():
    v = smooth_field((24, 24, 24), seed=9)
    p = ErrorBoundPolicy(eb=1e-3)
    assert compress(v, p).to_bytes() == compress(v, p).to_bytes()


# ------------------------------------------------------------ block codec


@pytest.mark.parametrize("dims", [(16, 16, 16), (18, 5, 7)])
def test_block_bound(dims):
    v = noisy_field(dims, seed=10)
    blob = compress(v, ErrorBoundPolicy(eb=1e-3), codec="block")
    out = decompress(blob)
    assert out.dims == dims
    assert max_abs_err(v, out) <= 1e-3


def test_block_zero_field_codes_to_nothing():
    v = Volume(np.zeros((16, 16, 16)))
    blob = compress(v, ErrorBoundPolicy(eb=1e-6), codec="block")
    assert max_abs_err(v, decompress(blob)) == 0.0
    assert blob.original_bytes / blob.size_bytes() > 40


def test_block_linear_ramp_beats_noise():
    # inclusion-exclusion predicts affine fields exactly away from block
    # edges, so a ramp must pack far smaller than noise of the same scale
    z, y, x = np.mgrid[0:16, 0:16, 0:16].astype(np.float64)
    ramp = Volume(0.03 * x + 0.02 * y - 0.01 * z)
    noise = noisy_field((16, 16, 16), seed=11)
    p = ErrorBoundPolicy(eb=1e-3)
    assert compress(ramp, p, codec="block").size_bytes() < 0.5 * compress(noise, p, codec="block").size_bytes()


def test_block_rejects_adaptive_policy():
    v = noisy_field((8, 8, 8), seed=12)
    with pytest.raises(ShapeError):
        compress(v, ErrorBoundPolicy(eb=1e-3, adaptive=True), codec="block")


def test_block_merge_round_trip():
    rng = np.random.default_rng(13)
    blocks = [
        UnitBlock(BlockCoord(i % 2, i // 2, 0, 8), 8, rng.normal(size=(8, 8, 8)))
        for i in range(4)
    ]
    m = linear_merge(blocks)
    blob = compress(m, ErrorBoundPolicy(eb=1e-4), codec="block")
    out = decompress(blob)
    assert out.order == m.order
    assert np.abs(out.values - m.values).max() <= 1e-4


# -------------------------------------------------------------- dispatcher


def test_dispatch_by_codec_name():
    v = smooth_field((12, 12, 12), seed=14)
    p = ErrorBoundPolicy(eb=1e-3)
    for codec, cid in [("interp", 1), ("block", 2)]:
        blob = compress(v, p, codec=codec)
        assert blob.codec == cid == CODECS.index(codec)
        assert blob.codec_name == codec
        assert max_abs_err(v, decompress(blob)) <= 1e-3
    with pytest.raises(ShapeError):
        compress(v, p, codec="wavelet")


@pytest.mark.parametrize("codec", ["interp", "block"])
def test_encoder_reconstruction_is_the_decoded_output(codec):
    # the encoder's working state is the decoder's output, bit for bit,
    # literals included
    rng = np.random.default_rng(20)
    blocks = [
        UnitBlock(BlockCoord(i % 2, i // 2, 0, 8), 8, rng.normal(size=(8, 8, 8)))
        for i in range(3)
    ]
    cases = [
        (smooth_field((13, 6, 9), seed=21), 1e-3),
        (noisy_field((5, 7, 3), seed=22, scale=1e4), 1e-9),
        (pad_linear(linear_merge(blocks)), 1e-2),
    ]
    for m, eb in cases:
        p = ErrorBoundPolicy(eb=eb)
        blob, rec = compress(m, p, codec=codec, recon=True)
        assert blob.to_bytes() == compress(m, p, codec=codec).to_bytes()
        dec = decompress(blob)
        assert type(rec) is type(dec)
        if isinstance(dec, Volume):
            assert rec.data.tobytes() == dec.data.tobytes()
        else:
            assert rec.values.tobytes() == dec.values.tobytes()
            assert (rec.order, rec.u, rec.padded) == (dec.order, dec.u, dec.padded)


# ---------------------------------------------------------- blob transport


def _sample_blob(lossless="none"):
    v = smooth_field((10, 12, 8), seed=16)
    return compress(v, ErrorBoundPolicy(eb=1e-3), lossless=lossless), v


def test_blob_byte_round_trip():
    blob, v = _sample_blob()
    raw = blob.to_bytes()
    back, used = CompressedBlob.from_bytes(raw)
    assert used == len(raw)
    assert back == blob
    assert back.to_bytes() == raw
    assert max_abs_err(v, decompress(back)) <= 1e-3


def test_blob_zlib_pass_round_trips():
    blob, v = _sample_blob(lossless="zlib")
    back, _ = CompressedBlob.from_bytes(blob.to_bytes())
    assert back.lossless == "zlib"
    assert max_abs_err(v, decompress(back)) <= 1e-3


def test_blob_offset_decoding():
    b1, _ = _sample_blob()
    b2 = compress(noisy_field((6, 6, 6), seed=17), ErrorBoundPolicy(eb=1e-2), codec="block")
    raw = b1.to_bytes() + b2.to_bytes()
    first, off = CompressedBlob.from_bytes(raw)
    second, end = CompressedBlob.from_bytes(raw, off)
    assert (first, second) == (b1, b2)
    assert end == len(raw)


def test_blob_corruption_is_detected():
    blob, _ = _sample_blob()
    raw = bytearray(blob.to_bytes())
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(b"XXXX" + bytes(raw[4:]))
    for cut in (4, 5, len(raw) // 2):
        with pytest.raises(FormatError):
            CompressedBlob.from_bytes(bytes(raw[:cut]))
    bad_codec = bytearray(raw)
    bad_codec[4] = 0x55
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(bytes(bad_codec))
    bad_eb = bytearray(raw)
    bad_eb[29:37] = np.float64(-1.0).tobytes()
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(bytes(bad_eb))
    huge_table = bytearray(raw)  # block count sits just before the table
    huge_table[60:68] = (1 << 60).to_bytes(8, "little")
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(bytes(huge_table))
    for dims in ((0, 4, 4), (4, 4, 0)):  # refused before the stream is parsed
        with pytest.raises(FormatError):
            CompressedBlob.from_bytes(replace(blob, dims=dims).to_bytes())
    with pytest.raises(FormatError):  # the MRB1 layout has no reader
        CompressedBlob.from_bytes(b"MRB1" + bytes(raw[4:]))
    # the u64 stream length right before the stream frames the blob
    at = len(raw) - len(blob.stream) - 8
    assert int.from_bytes(raw[at : at + 8], "little") == len(blob.stream)
    long_stream = bytearray(raw)
    long_stream[at : at + 8] = (len(blob.stream) + 1).to_bytes(8, "little")
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(bytes(long_stream))
    # bytes framed into the stream past the entropy stream's own end
    block = compress(noisy_field((6, 6, 6), seed=17), ErrorBoundPolicy(eb=1e-2), codec="block")
    stored = compress(noisy_field((3, 4, 5), seed=18), STORED_POLICY, codec="stored")
    for b in (blob, block, stored):
        for stream in (b.stream + b"\0", b.stream[:10]):
            framed, _ = CompressedBlob.from_bytes(replace(b, stream=stream).to_bytes())
            with pytest.raises(FormatError):
                decompress(framed)


def test_blob_arrangement_byte_is_its_table_position():
    blob, _ = _sample_blob()
    raw = bytearray(blob.to_bytes())
    at = 54  # the u8 after magic, codec, dims, eb, adaptive, alpha and beta
    assert raw[at] == ARRANGEMENTS.index(None) == 0
    for name in ("linear", "stacked"):
        raw[at] = ARRANGEMENTS.index(name)
        assert CompressedBlob.from_bytes(bytes(raw))[0].arrangement == name
    raw[at] = len(ARRANGEMENTS)
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(bytes(raw))
    with pytest.raises(ShapeError):
        replace(blob, arrangement="diagonal")


def test_stored_codec_keeps_values_verbatim():
    v = noisy_field((3, 4, 5), seed=18)
    blob, rec = compress(v, STORED_POLICY, codec="stored", recon=True)
    assert blob.codec_name == "stored" and rec == v
    assert decompress(CompressedBlob.from_bytes(blob.to_bytes())[0]) == v
    with pytest.raises(ShapeError):
        compress(v, STORED_POLICY, codec="stored", lossless="zlib")


def test_blob_original_bytes_ignores_padding():
    rng = np.random.default_rng(18)
    blocks = [
        UnitBlock(BlockCoord(i, 0, 0, 8), 8, rng.normal(size=(8, 8, 8)))
        for i in range(2)
    ]
    m = pad_linear(linear_merge(blocks))
    blob = compress(m, ErrorBoundPolicy(eb=1e-3))
    assert m.dims == (9, 9, 16)
    assert blob.original_bytes == 8 * 8 * 16 * 8


def test_blob_unpadded_original_bytes():
    blob, v = _sample_blob()
    assert blob.arrangement is None
    assert blob.original_bytes == v.size * 8
