import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrcompress.codec import compress, decompress, interp
from mrcompress.codec.blob import ARRANGEMENTS, CODECS, CompressedBlob
from mrcompress.codec.entropy import entropy_decode, entropy_encode
from mrcompress.codec.policy import ErrorBoundPolicy, level_error_bound
from mrcompress.codec.quantize import CODE_CAP, LITERAL_MARK, quantize_array
from mrcompress.codec.interp import _axis_passes, _gather, _scatter, _slabs, _walk, interp_decompress
from mrcompress.codec.stored import STORED_POLICY, stored_compress
from mrcompress.errors import FormatError, ShapeError
from mrcompress.grid import Volume
from mrcompress.layout import MergedArray, linear_merge, pad_linear

from helpers import max_abs_err, noisy_field, signed_zero_field, smooth_field


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


def _reference_walk(dims):
    """The pass sequence as index arrays: (global level, axis, step,
    two-sided, one-sided, active positions (x, y, z)), each active array
    grown by concatenating and sorting every earlier pass's targets."""
    axes = [_axis_passes(n) for n in dims]
    maxlevel = max(map(len, axes))
    active = [np.zeros(1, dtype=np.intp) for _ in range(3)]
    for g in range(1, maxlevel + 1):
        for ax, passes in enumerate(axes):
            j = g - 1 - maxlevel + len(passes)
            if j < 0:
                continue
            step, two, one = passes[j]
            yield g, ax, step, two, one, (active[0], active[1], active[2])
            fresh = np.concatenate([active[ax], two, one])
            fresh.sort()
            active[ax] = fresh


def _reference_selector(ax, positions, act):
    act_x, act_y, act_z = act
    if ax == 0:
        return np.ix_(act_z, act_y, positions)
    if ax == 1:
        return np.ix_(act_z, positions, act_x)
    return np.ix_(positions, act_y, act_x)


_SELECTOR_AXES = (1, 2, 3, 4, 5, 8, 9, 16, 17, 33)


@pytest.mark.parametrize(
    "dims_list",
    [list(itertools.product(_SELECTOR_AXES, _SELECTOR_AXES, [nz])) for nz in _SELECTOR_AXES]
    + [[(17, 17, 1648)], [(9, 9, 3272)], [(128, 128, 128)]],
    ids=[f"nz{nz}" for nz in _SELECTOR_AXES] + ["17x17x1648", "9x9x3272", "128cube"],
)
def test_slice_selectors_match_index_gathers(dims_list):
    # every batch of every pass reads and writes the cells, in the order,
    # of the np.ix_ product of the active and target position arrays
    for dims in dims_list:
        nx, ny, nz = dims
        work = np.arange(1.0, nx * ny * nz + 1).reshape(nz, ny, nx)
        walk = list(_walk(dims))
        ref = list(_reference_walk(dims))
        assert [w[:3] for w in walk] == [r[:3] for r in ref]
        for (*_, batches), (_, ax, step, two, one, act) in zip(walk, ref):
            expected = [(t, [t - step, t + step][:k]) for t, k in ((two, 2), (one, 1)) if t.size]
            assert len(batches) == len(expected)
            for (sel, neighbors), (t, ref_neighbors) in zip(batches, expected):
                ix = _reference_selector(ax, t, act)
                got = _gather(work, sel)
                assert got.shape == work[ix].shape and np.array_equal(got, work[ix])
                ref_reads = [work[_reference_selector(ax, p, act)] for p in ref_neighbors]
                for nb, want in zip(neighbors, ref_reads):
                    assert np.array_equal(_gather(work, nb), want)
                if len(ref_reads) == 2:
                    mid = _gather(work, *neighbors)
                    assert mid.tobytes() == (0.5 * (ref_reads[0] + ref_reads[1])).tobytes()
                values = -np.arange(1.0, got.size + 1).reshape(got.shape)
                a = np.zeros_like(work)
                b = np.zeros_like(work)
                _scatter(a, sel, values)
                b[ix] = values
                assert np.array_equal(a, b)


# a 6- or 19-point axis is active in two runs after its coarse passes
_SLAB_AXES = st.one_of(st.sampled_from([1, 2, 3, 5, 6, 17, 19]), st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(st.tuples(_SLAB_AXES, _SLAB_AXES, _SLAB_AXES), st.integers(1, 2000))
@example((6, 19, 19), 1)
@example((19, 6, 6), 7)
@example((1, 1, 17), 1)
def test_slabs_tile_every_batch_in_ravel_order(dims, slab_targets):
    # concatenated in order, a batch's slabs read every target and every
    # neighbor of the whole batch once, in its ravel order
    nx, ny, nz = dims
    work = np.arange(float(nx * ny * nz)).reshape(nz, ny, nx)
    with mock.patch.object(interp, "_SLAB_TARGETS", slab_targets):
        for *_, batches in _walk(dims):
            for sel, neighbors in batches:
                slabs = list(_slabs(sel, neighbors))
                plane = _gather(work, sel)[0].size
                for cut, cut_neighbors in slabs:
                    assert _gather(work, cut).size <= max(slab_targets, plane)
                    assert len(cut_neighbors) == len(neighbors)
                for k, whole in enumerate([sel, *neighbors]):
                    parts = [_gather(work, [cut, *nbs][k]).reshape(-1) for cut, nbs in slabs]
                    assert np.array_equal(np.concatenate(parts), _gather(work, whole).reshape(-1))


def _literal_slabs(monkeypatch, slab_targets):
    """Sets ``_SLAB_TARGETS`` and counts the quantizer calls (slabs) that
    emit literals; returns the list the calls append their counts to."""
    monkeypatch.setattr(interp, "_SLAB_TARGETS", slab_targets)
    counts = []
    quantize = interp.quantize_array

    def counting(pred, actual, eb):
        out = quantize(pred, actual, eb)
        counts.append(out[2].size)
        return out

    monkeypatch.setattr(interp, "quantize_array", counting)
    return counts


@pytest.mark.parametrize("slab_targets", [1, 7, 1000])
def test_slab_size_leaves_the_bytes_unchanged(monkeypatch, slab_targets):
    # literals fall in many slabs; the stream and the decoded arrays are
    # those of one slab per batch, adaptive bounds and zlib included
    cases = [
        (signed_zero_field((23, 17, 29), seed=12), ErrorBoundPolicy(eb=1e-4), "none"),
        (smooth_field((19, 6, 33), seed=13, noise=0.01), ErrorBoundPolicy(eb=1e-3, adaptive=True), "zlib"),
    ]
    whole = []
    monkeypatch.setattr(interp, "_SLAB_TARGETS", 1 << 62)
    for v, p, lossless in cases:
        blob = compress(v, p, lossless=lossless)
        whole.append((blob, interp_decompress(blob)))
    counts = _literal_slabs(monkeypatch, slab_targets)
    for (v, p, lossless), (blob, dec) in zip(cases, whole):
        assert compress(v, p, lossless=lossless).to_bytes() == blob.to_bytes()
        assert interp_decompress(blob).tobytes() == dec.tobytes()
    assert sum(c > 0 for c in counts) > 5


# -------------------------------------------------------------- quantize


def _reference_quantize(pred, actual, eb, cap=CODE_CAP):
    """``quantize_array`` as it was before it worked in place, verbatim."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    resid = actual - pred
    grid = np.abs(resid) / (2.0 * eb) + 0.5
    mag = np.floor(grid)
    ok = mag <= cap  # catches inf/NaN magnitudes as well
    q = np.where(ok, np.where(resid < 0, -mag, mag), 0.0).astype(np.int64)
    recon = pred + (2.0 * eb) * q
    ok &= np.abs(recon - actual) <= eb
    codes = np.where(ok, q, LITERAL_MARK).astype(np.int32)
    recon = np.where(ok, recon, actual)
    return codes, recon, actual[~ok]


@st.composite
def _quantize_case(draw):
    """(pred, actual, eb): signed-zero predictions, residuals on half-bin
    ties, in the CODE_CAP and CODE_CAP + 1 bins or anywhere, and
    signed-zero, infinite and NaN inputs; a power-of-two eb makes the ties
    exact."""
    eb = draw(st.one_of(st.floats(1e-12, 1e2), st.integers(-39, 6).map(lambda e: 2.0**e)))
    pred, actual = [], []
    for _ in range(draw(st.integers(1, 24))):
        p = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)))
        k = draw(st.one_of(st.integers(-3, 3), st.sampled_from([CODE_CAP, CODE_CAP + 1, -CODE_CAP, -CODE_CAP - 1])))
        kind = draw(st.sampled_from(["tie", "bin", "special", "any"]))
        if kind == "tie":
            a = p + (k + 0.5) * 2.0 * eb
        elif kind == "bin":
            a = p + (k + draw(st.floats(-0.5, 0.5))) * 2.0 * eb
        elif kind == "special":
            a = draw(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
        else:
            a = draw(st.floats(allow_nan=True, allow_infinity=True))
        pred.append(p)
        actual.append(a)
    return np.array(pred), np.array(actual), eb


@settings(max_examples=200, deadline=None)
@given(_quantize_case())
@example((np.array([-0.0]), np.array([-1e-13]), 1e-3))  # a zero code on a -0.0 prediction
def test_quantize_matches_reference(case):
    pred, actual, eb = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = quantize_array(pred, actual, eb)
        want = _reference_quantize(pred, actual, eb)
    for g, w in zip(got, want):  # codes, reconstruction (signed zeros count), literals
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()




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


def test_dequantize_matches_encoder_exactly(monkeypatch):
    # the decoder places each slab's literals from its one scan of the
    # marks and reproduces the encoder's reconstruction bit for bit
    v = signed_zero_field((23, 17, 29), seed=12)
    counts = _literal_slabs(monkeypatch, 1000)
    blob, rec = compress(v, ErrorBoundPolicy(eb=1e-4), recon=True)
    assert sum(c > 0 for c in counts) > 5 and max(counts) > 1
    codes, lits = entropy_decode(blob.stream, blob.n_values)
    assert (codes == LITERAL_MARK).sum() == lits.size == sum(counts)
    assert interp_decompress(blob).tobytes() == rec.tobytes()


def test_decoders_validate_literal_count():
    # one literal value per literal mark, or the decoder refuses the stream
    v = noisy_field((6, 5, 7), seed=19, scale=1e3)
    p = ErrorBoundPolicy(eb=1e-9)
    for codec in ("interp", "block"):
        blob = compress(v, p, codec=codec)
        codes, lits = entropy_decode(blob.stream, blob.n_values)
        assert (codes == LITERAL_MARK).sum() == lits.size > 0
        assert max_abs_err(v, Volume(decompress(replace(blob, stream=entropy_encode(codes, lits))))) <= 1e-9
        wrongs = [lits[:-1], np.append(lits, 7.0)]
        if codec == "block":
            # a residual literal is an integer beyond the code range
            wrongs += [np.concatenate(([r], lits[1:])) for r in (0.5, 7.0)]
        for wrong in wrongs:
            with pytest.raises(FormatError):
                decompress(replace(blob, stream=entropy_encode(codes, wrong)))


# ----------------------------------------------------- interpolation codec


@pytest.mark.parametrize("eb", [1e-1, 1e-3, 1e-6])
def test_interp_bound_on_smooth_data(eb):
    v = smooth_field((32, 32, 32), seed=3)
    blob = compress(v, ErrorBoundPolicy(eb=eb))
    out = decompress(blob)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == v.data.shape
    assert max_abs_err(v, Volume(out)) <= eb


def test_interp_bound_on_noise():
    # worst case for the predictor; the bound must still hold
    v = noisy_field((17, 23, 9), seed=4)
    blob = compress(v, ErrorBoundPolicy(eb=1e-2))
    assert max_abs_err(v, Volume(decompress(blob))) <= 1e-2


def test_interp_adaptive_bound_still_holds():
    v = smooth_field((31, 16, 20), seed=5)
    blob = compress(v, ErrorBoundPolicy(eb=1e-3, adaptive=True))
    assert max_abs_err(v, Volume(decompress(blob))) <= 1e-3


def test_interp_constant_field_compresses_hard():
    v = Volume(np.zeros((16, 16, 16)))
    blob = compress(v, ErrorBoundPolicy(eb=1e-6))
    assert max_abs_err(v, Volume(decompress(blob))) == 0.0
    # one table entry, one bit per sample
    assert blob.size_bytes() < 16**3 / 8 + 128
    assert blob.original_bytes / blob.size_bytes() > 40


def test_interp_tiny_bound_degrades_to_exact_literals():
    v = noisy_field((8, 8, 8), seed=6)
    blob = compress(v, ErrorBoundPolicy(eb=1e-300))
    out = decompress(blob)
    assert np.array_equal(out, v.data)


def test_interp_single_cell_and_thin_axes():
    for dims in [(1, 1, 1), (4, 1, 7), (2, 3, 1)]:
        v = noisy_field(dims, seed=7)
        blob = compress(v, ErrorBoundPolicy(eb=1e-4))
        out = Volume(decompress(blob))
        assert out.dims == dims
        assert max_abs_err(v, out) <= 1e-4


def test_interp_preserves_merge_metadata():
    rng = np.random.default_rng(8)
    blocks = rng.normal(size=(3, 8, 8, 8))
    m = pad_linear(linear_merge(blocks))
    blob = compress(m, ErrorBoundPolicy(eb=1e-3))
    back, _ = CompressedBlob.from_bytes(blob.to_bytes())
    assert (back.k, back.u, back.padded, back.arrangement) == (m.k, 8, True, m.arrangement)
    assert back.dims == m.dims
    out = decompress(back)
    assert np.abs(out - m.values).max() <= 1e-3


def test_interp_deterministic_bytes():
    v = smooth_field((24, 24, 24), seed=9)
    p = ErrorBoundPolicy(eb=1e-3)
    assert compress(v, p).to_bytes() == compress(v, p).to_bytes()


# ------------------------------------------------------------ block codec


@pytest.mark.parametrize("dims", [(16, 16, 16), (18, 5, 7)])
def test_block_bound(dims):
    v = noisy_field(dims, seed=10)
    blob = compress(v, ErrorBoundPolicy(eb=1e-3), codec="block")
    out = Volume(decompress(blob))
    assert out.dims == dims
    assert max_abs_err(v, out) <= 1e-3


def test_block_zero_field_codes_to_nothing():
    v = Volume(np.zeros((16, 16, 16)))
    blob = compress(v, ErrorBoundPolicy(eb=1e-6), codec="block")
    assert max_abs_err(v, Volume(decompress(blob))) == 0.0
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
    blocks = rng.normal(size=(4, 8, 8, 8))
    m = linear_merge(blocks)
    blob = compress(m, ErrorBoundPolicy(eb=1e-4), codec="block")
    assert (blob.k, blob.u, blob.arrangement) == (m.k, m.u, m.arrangement)
    assert np.abs(decompress(blob) - m.values).max() <= 1e-4


# -------------------------------------------------------------- dispatcher


def test_dispatch_by_codec_name():
    v = smooth_field((12, 12, 12), seed=14)
    p = ErrorBoundPolicy(eb=1e-3)
    for codec, cid in [("interp", 1), ("block", 3)]:
        blob = compress(v, p, codec=codec)
        assert blob.codec == cid == CODECS.index(codec)
        assert blob.codec_name == codec
        assert max_abs_err(v, Volume(decompress(blob))) <= 1e-3
    with pytest.raises(ShapeError):
        compress(v, p, codec="wavelet")


@pytest.mark.parametrize("codec", ["interp", "block"])
def test_encoder_reconstruction_is_the_decoded_output(codec):
    # the encoder's working state is the decoder's output, bit for bit,
    # literals included
    rng = np.random.default_rng(20)
    blocks = rng.normal(size=(3, 8, 8, 8))
    cases = [
        (smooth_field((13, 6, 9), seed=21), 1e-3),
        (noisy_field((5, 7, 3), seed=22, scale=1e4), 1e-9),
        (pad_linear(linear_merge(blocks)), 1e-2),
        (signed_zero_field((10, 12, 19), seed=46), 1e-3),
    ]
    for m, eb in cases:
        p = ErrorBoundPolicy(eb=eb)
        blob, rec = compress(m, p, codec=codec, recon=True)
        assert blob.to_bytes() == compress(m, p, codec=codec).to_bytes()
        dec = decompress(blob)
        assert rec.shape == dec.shape == blob.dims[::-1]
        assert rec.tobytes() == dec.tobytes()


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
    assert max_abs_err(v, Volume(decompress(back))) <= 1e-3


def test_blob_zlib_pass_round_trips():
    blob, v = _sample_blob(lossless="zlib")
    back, _ = CompressedBlob.from_bytes(blob.to_bytes())
    assert back.lossless == "zlib"
    assert max_abs_err(v, Volume(decompress(back))) <= 1e-3


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


# one step along one axis
_OFF_BY_ONE = [tuple(step * (i == axis) for i in range(3)) for axis in range(3) for step in (1, -1)]

# (dims, k, u, arrangement, padded) that no merge of k u-blocks can have
_BAD_LAYOUTS = [
    ((8, 8, 8), 1, 8, "stacked", True),  # a padded stacked merge
    # linear dims off (u, u, u*k) or, padded, (u+1, u+1, u*k) by one
    *(((8 + dx, 8 + dy, 24 + dz), 3, 8, "linear", False) for dx, dy, dz in _OFF_BY_ONE),
    *(((9 + dx, 9 + dy, 24 + dz), 3, 8, "linear", True) for dx, dy, dz in _OFF_BY_ONE),
    ((8, 8, 8), 0, 8, "stacked", False),  # a tiled blob of no blocks
    ((8, 8, 8), 0, 8, "linear", False),
    ((3, 3, 6), 2, 3, "linear", False),  # u not a power of two
    ((6, 6, 6), 1, 3, "stacked", False),
    ((8, 8, 8), 2, 8, "stacked", False),  # one slot for two blocks
    ((16, 8, 12), 2, 8, "stacked", False),  # not a u-grid
]


@pytest.mark.parametrize("dims, k, u, arrangement, padded", _BAD_LAYOUTS)
def test_blob_parser_refuses_layouts_no_merge_holds(dims, k, u, arrangement, padded):
    # one rule for both sides: a MergedArray of that layout cannot be made,
    # and a blob header that claims it is refused where it is parsed
    with pytest.raises(ShapeError):
        MergedArray(values=np.zeros(dims[::-1]), k=k, u=u, arrangement=arrangement, padded=padded)
    blob, _ = _sample_blob()
    fake = replace(blob, dims=dims, k=k, u=u, arrangement=arrangement, padded=padded)
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(fake.to_bytes())


def test_blob_arrangement_byte_is_its_table_position():
    # two u = 4 blocks merge to dims (4, 4, 8) either way
    blob = compress(linear_merge(np.zeros((2, 4, 4, 4))), ErrorBoundPolicy(eb=1e-3))
    raw = bytearray(blob.to_bytes())
    at = 54  # the u8 after magic, codec, dims, eb, adaptive, alpha and beta
    assert raw[at] == ARRANGEMENTS.index("linear") == 1
    for name in ("linear", "stacked"):
        raw[at] = ARRANGEMENTS.index(name)
        assert CompressedBlob.from_bytes(bytes(raw))[0].arrangement == name
    for byte in (ARRANGEMENTS.index(None), len(ARRANGEMENTS)):
        raw[at] = byte
        with pytest.raises(FormatError):
            CompressedBlob.from_bytes(bytes(raw))
    with pytest.raises(ShapeError):
        replace(blob, arrangement="diagonal")


def test_stored_codec_keeps_values_verbatim():
    v = noisy_field((3, 4, 5), seed=18)
    blob, rec = compress(v, STORED_POLICY, codec="stored", recon=True)
    assert blob.codec_name == "stored" and np.array_equal(rec, v.data)
    assert decompress(CompressedBlob.from_bytes(blob.to_bytes())[0]).tobytes() == v.data.tobytes()
    with pytest.raises(ShapeError):
        compress(v, STORED_POLICY, codec="stored", lossless="zlib")


def test_stored_payload_is_the_little_endian_f64_array():
    # one serializing copy whatever the input's dtype and strides
    v = noisy_field((6, 4, 5), seed=19)
    want, _ = stored_compress(v.data, STORED_POLICY)
    assert want.endswith(v.data.astype("<f8").tobytes())
    for arr in (v.data.astype(np.float32), v.data[:, ::2, :], v.data.astype(">f8")):
        got, _ = stored_compress(arr, STORED_POLICY)
        assert got == stored_compress(np.array(arr, dtype=np.float64), STORED_POLICY)[0]


def test_blob_original_bytes_ignores_padding():
    rng = np.random.default_rng(18)
    blocks = rng.normal(size=(2, 8, 8, 8))
    m = pad_linear(linear_merge(blocks))
    blob = compress(m, ErrorBoundPolicy(eb=1e-3))
    assert m.dims == (9, 9, 16)
    assert blob.original_bytes == 8 * 8 * 16 * 8


def test_blob_unpadded_original_bytes():
    blob, v = _sample_blob()
    assert blob.arrangement is None
    assert blob.original_bytes == v.data.size * 8


def test_max_abs_err_takes_volumes_or_arrays_of_one_shape():
    v = Volume(np.arange(120.0).reshape(4, 5, 6))
    shifted = v.data + 0.25
    assert max_abs_err(v, shifted) == max_abs_err(shifted, v) == max_abs_err(v.data, Volume(shifted)) == 0.25
    # a (1, 5, 6) plane would broadcast against the (4, 5, 6) volume
    with pytest.raises(AssertionError, match="shapes differ"):
        max_abs_err(v, v.data[:1])
