import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import mrcompress.uncertainty as uncertainty
from mrcompress.errors import ShapeError
from mrcompress.grid import Volume
from mrcompress.uncertainty import (
    DEFAULT_WINDOW,
    _CHUNK,
    _DENSE_BAND,
    _DENSE_LIVE,
    _GATHER_CELLS,
    _SLAB_CELLS,
    _Z_ONE,
    _Z_ZERO,
    ErrorModel,
    ProbabilityField,
    _corner_product,
    _saturation_thresholds,
    fit_model,
    probability_field,
    sample_errors,
    write_probability_field,
)

from helpers import _below_probability, cell_crossing_probability, smooth_field, sum_of_gaussians


def _model(mu=0.0, sigma2=1.0, iso=0.0):
    return ErrorModel(mu=mu, sigma2=sigma2, isovalue=iso, window=DEFAULT_WINDOW, n_samples=100)


# ------------------------------------------------------------ error samples


def test_sample_errors_single_region():
    o = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = np.array([[1.5, 1.0], [3.0, 0.0]])
    assert np.array_equal(sample_errors(o, d), [-0.5, 1.0, 0.0, 4.0])


def test_sample_errors_region_lists():
    o = [np.zeros((2, 2)), np.ones(3)]
    d = [np.ones((2, 2)), np.ones(3)]
    got = sample_errors(o, d)
    assert np.array_equal(got, [-1, -1, -1, -1, 0, 0, 0])
    assert sample_errors([], []).size == 0


def test_sample_errors_shape_checks():
    with pytest.raises(ShapeError):
        sample_errors(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        sample_errors([np.zeros(3)], [])
    with pytest.raises(ShapeError):
        sample_errors([np.zeros(3)], [np.zeros((3, 1))])


# ---------------------------------------------------------------- fitting


def test_fit_model_two_point_vector():
    errors = np.array([-1.0, 1.0])
    values = np.array([0.0, 0.0])  # both exactly at the isovalue
    m = fit_model(errors, values, isovalue=0.0)
    assert m.mu == 0.0
    assert m.sigma2 == 2.0  # unbiased variance of {-1, +1}
    assert m.sigma == pytest.approx(np.sqrt(2.0))
    assert m.n_samples == 2 and not m.fallback


def test_fit_model_selects_near_iso_only():
    values = np.array([0.0, 0.001, 5.0, 10.0])
    errors = np.array([2.0, 4.0, 100.0, -100.0])
    m = fit_model(errors, values, isovalue=0.0, window=0.05)
    assert m.n_samples == 2
    assert m.mu == 3.0
    assert m.sigma2 == 2.0
    assert m.window == 0.05


def test_fit_model_widens_sparse_windows():
    # range 1.0: only value 0.0 sits inside windows 0.05..0.4, the fourth
    # doubling to 0.8 finally catches 0.5
    values = np.array([0.0, 0.5, 1.0])
    errors = np.array([3.0, 5.0, 100.0])
    m = fit_model(errors, values, isovalue=0.0, window=0.05)
    assert m.window == pytest.approx(0.8)
    assert m.n_samples == 2
    assert m.mu == 4.0 and m.sigma2 == 2.0
    assert not m.fallback


def test_fit_model_falls_back_to_all_samples():
    values = np.array([0.0, 1.0, 2.0])
    errors = np.array([-1.0, 0.0, 1.0])
    m = fit_model(errors, values, isovalue=1e6)
    assert m.fallback
    assert m.n_samples == 3
    assert m.mu == 0.0
    assert m.sigma2 == 1.0


def test_fit_model_validation():
    with pytest.raises(ShapeError):
        fit_model(np.zeros(3), np.zeros(4), 0.0)
    with pytest.raises(ShapeError):
        fit_model(np.zeros(1), np.zeros(1), 0.0)
    with pytest.raises(ShapeError):
        fit_model(np.zeros(4), np.zeros(4), 0.0, window=0.0)


def _reference_fit_model(errors, values, isovalue, window=DEFAULT_WINDOW):
    """fit_model with one whole-array window selection per try, as it was
    before the selection ran in chunks."""
    errors = np.asarray(errors, dtype=np.float64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    vrange = float(values.max() - values.min())
    w = window
    for _ in range(5):
        half = w * vrange
        sel = np.abs(values - isovalue) <= half
        if int(sel.sum()) >= 2:
            picked = errors[sel]
            return ErrorModel(
                mu=float(picked.mean()),
                sigma2=float(picked.var(ddof=1)),
                isovalue=float(isovalue),
                window=w,
                n_samples=int(picked.size),
            )
        w *= 2.0
    return ErrorModel(
        mu=float(errors.mean()),
        sigma2=float(errors.var(ddof=1)),
        isovalue=float(isovalue),
        window=w / 2.0,
        n_samples=int(errors.size),
        fallback=True,
    )


@pytest.mark.parametrize("case", ["direct", "widened", "fallback"])
def test_chunked_fit_matches_the_whole_array_selection(case):
    # 3.5 chunks of values over a range of 10; around isovalue 3, the window
    # catches one value of the first chunk after two doublings and two of
    # the last after three
    rng = np.random.default_rng(11)
    n = 3 * _CHUNK + _CHUNK // 2
    errors = rng.normal(1e-3, 2e-3, n)
    if case == "direct":
        values, iso = rng.uniform(-1.0, 1.0, n), 0.25
    else:
        values = np.concatenate([rng.uniform(8.0, 10.0, n - 2), [0.0, 10.0]])
        values[[17, n - 5]] = 4.5, 6.5
        iso = 3.0 if case == "widened" else -1e6
    got, want = fit_model(errors, values, iso), _reference_fit_model(errors, values, iso)
    assert repr(got) == repr(want)
    assert got.fallback == (case == "fallback")
    if case == "widened":
        assert got.window == 8 * DEFAULT_WINDOW and got.n_samples == 3


def test_fit_model_memory_stays_below_the_values():
    values = smooth_field((128, 128, 64), seed=3).data.reshape(-1)
    errors = np.random.default_rng(0).normal(0.0, 1e-3, values.size)
    tracemalloc.start()
    try:
        m = fit_model(errors, values, 0.1, window=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the window holds 3.6% of the values; one whole-array distance costs
    # as much as the values themselves
    assert 0.02 < m.n_samples / values.size < 0.05
    assert peak < 0.2 * values.nbytes


# ------------------------------------------------------- cell probabilities


def test_far_cells_have_negligible_probability():
    m = _model(sigma2=1e-4)
    below = np.full(8, -1.0)
    above = np.full(8, 1.0)
    assert cell_crossing_probability(below, 0.0, m) < 1e-12
    assert cell_crossing_probability(above, 0.0, m) < 1e-12


def test_corner_at_isovalue_gives_half():
    # seven corners far below, one exactly at the isovalue: crossing
    # happens iff that corner lands above, probability one half
    m = _model(sigma2=0.01)
    corners = np.array([-10.0] * 7 + [0.0])
    assert cell_crossing_probability(corners, 0.0, m) == pytest.approx(0.5, abs=1e-12)


def test_probability_grows_with_sigma():
    corners = np.full(8, 0.3)
    ps = [
        cell_crossing_probability(corners, 0.0, _model(sigma2=s2))
        for s2 in (1e-4, 1e-2, 1.0)
    ]
    assert ps[0] < ps[1] < ps[2]


def test_translation_invariance():
    corners = np.array([-0.5, -0.25, 0.25, 0.5, 0.75, -0.75, 0.0, 1.0])
    m = _model(mu=0.125, sigma2=0.25)
    p0 = cell_crossing_probability(corners, 0.25, m)
    shift = 2.0
    m2 = ErrorModel(mu=0.125, sigma2=0.25, isovalue=0.25 + shift,
                    window=m.window, n_samples=m.n_samples)
    p1 = cell_crossing_probability(corners + shift, 0.25 + shift, m2)
    assert p0 == p1


def test_zero_sigma_reduces_to_crossing_test():
    rng = np.random.default_rng(0)
    m = _model(mu=0.0, sigma2=0.0, iso=0.0)
    for _ in range(50):
        corners = rng.normal(size=8)
        p = cell_crossing_probability(corners, 0.0, m)
        crosses = (corners < 0.0).any() and (corners >= 0.0).any()
        assert p == (1.0 if crosses else 0.0)


def test_zero_sigma_respects_mu_shift():
    m = _model(mu=0.6, sigma2=0.0)
    corners = np.full(8, -0.5)  # shifted to +0.1, all at or above iso 0
    assert cell_crossing_probability(corners, 0.0, m) == 0.0


def test_cell_probability_against_monte_carlo():
    rng = np.random.default_rng(1)
    corners = np.array([-0.4, -0.1, 0.05, 0.2, -0.3, 0.15, -0.05, 0.1])
    m = _model(mu=0.02, sigma2=0.04)
    p = cell_crossing_probability(corners, 0.0, m)
    n = 200_000
    draws = corners + m.mu + m.sigma * rng.standard_normal((n, 8))
    below = draws < 0.0
    crossed = ~(below.all(axis=1) | (~below).all(axis=1))
    assert abs(crossed.mean() - p) < 0.005


def test_cell_probability_validates_corner_count():
    with pytest.raises(ShapeError):
        cell_crossing_probability(np.zeros(7), 0.0, _model())


# ------------------------------------------------------------- whole fields


def test_field_dims_are_dual_grid():
    v = smooth_field((7, 5, 4), seed=2)
    f = probability_field(v, 0.0, _model(sigma2=0.01))
    assert f.dims == (6, 4, 3)
    assert f.p.shape == (3, 4, 6)
    assert ((f.p >= 0.0) & (f.p <= 1.0)).all()
    with pytest.raises(ValueError):
        f.p[0, 0, 0] = 2.0


def test_field_matches_per_cell_evaluation():
    v = smooth_field((5, 4, 3), seed=3)
    m = _model(mu=0.01, sigma2=0.02)
    f = probability_field(v, 0.1, m)
    nx, ny, nz = v.dims
    for z in range(nz - 1):
        for y in range(ny - 1):
            for x in range(nx - 1):
                corners = v.data[z : z + 2, y : y + 2, x : x + 2].reshape(-1)
                want = cell_crossing_probability(corners, 0.1, m)
                assert f.p[z, y, x] == pytest.approx(want, abs=1e-14)


def test_field_zero_sigma_marks_crossed_cells_exactly():
    v = smooth_field((9, 8, 7), seed=4)
    f = probability_field(v, 0.2, _model(sigma2=0.0))
    assert set(np.unique(f.p)) <= {0.0, 1.0}
    # crossing iff the corner set straddles the isovalue
    z, y, x = 3, 2, 1
    corners = v.data[z : z + 2, y : y + 2, x : x + 2]
    want = float((corners < 0.2).any() and (corners >= 0.2).any())
    assert f.p[z, y, x] == want


def _reference_probability_field(decomp, isovalue, model):
    """Whole-volume pass: every temporary spans the volume. The slabbed
    field must reproduce its bytes exactly."""
    q = _below_probability(decomp.data, isovalue, model)
    below = _corner_product(q)
    above = _corner_product(np.subtract(1.0, q, out=q))
    p = np.subtract(1.0, below, out=below)
    p -= above
    np.clip(p, 0.0, 1.0, out=p)
    return p


def _saturation_masks(values, isovalue, model):
    """Points saturated at one and at zero, from the standard score (at least
    _Z_ONE, at most _Z_ZERO) or, for sigma 0, from v + mu below the isovalue
    (or not)."""
    centered = values + model.mu
    if model.sigma2 > 0.0:
        t = (isovalue - centered) / model.sigma
        return t >= _Z_ONE, t <= _Z_ZERO
    one = centered < isovalue
    return one, ~one


def _live_cells(data, isovalue, model):
    """Cells whose eight corners are not all saturated on one side."""
    one, zero = _saturation_masks(data, isovalue, model)
    return ~(_corner_product(one) | _corner_product(zero))


def _ulps_around(xs):
    """Each finite x of ``xs`` and its neighbouring doubles on both sides."""
    near = [y for x in xs for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]
    return np.array([y for y in near if np.isfinite(y)], dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(-20.0, 2.0).map(lambda e: 10.0**e)),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.lists(st.floats(-80.0, 30.0), max_size=12),
)
@example(0.5, 0.0, 0.0, [])  # z = 9.0 and -40.0 exactly at v = -4.5 and 20.0
@example(1e-20, 1e6, -1e6, [9.0, -40.0])
@example(0.0, 0.0, -0.0, [])
def test_raw_thresholds_give_the_standard_score_masks(sigma, isovalue, mu, scores):
    m = _model(mu=mu, sigma2=sigma * sigma, iso=isovalue)
    v1, v0 = _saturation_thresholds(isovalue, m)
    center = isovalue - mu
    values = _ulps_around([v1, v0, center] + [center - s * sigma for s in scores])
    one, zero = _saturation_masks(values, isovalue, m)
    assert np.array_equal(values <= v1, one)
    assert np.array_equal(values >= v0, zero)


def test_raw_thresholds_of_exact_scores():
    assert _saturation_thresholds(0.0, _model(sigma2=0.25)) == (-4.5, 20.0)
    # sigma 0: v + 0.5 < 1.0 holds up to two doubles below 0.5, as the
    # double just below rounds up to 1.0 when added
    v1, v0 = _saturation_thresholds(1.0, _model(mu=0.5, sigma2=0.0))
    assert v0 == np.nextafter(0.5, 0.0) and v1 == np.nextafter(v0, 0.0)
    assert v1 + 0.5 < 1.0 == v0 + 0.5
    # a score that never saturates, and one that always does
    assert _saturation_thresholds(0.0, _model(sigma2=np.inf)) == (-np.inf, np.inf)
    assert _saturation_thresholds(np.inf, _model(sigma2=1.0)) == (np.inf, np.inf)


def _slab_live_shares(data, isovalue, model):
    live = _live_cells(data, isovalue, model)
    return [live[z : z + _SLAB_CELLS].mean() for z in range(0, live.shape[0], _SLAB_CELLS)]


@pytest.mark.parametrize("cells_z", [1, 15, 16, 17, 32, 33])
@pytest.mark.parametrize("sigma2", [0.02, 0.0, 100.0])
def test_field_slabs_match_whole_volume_pass(cells_z, sigma2):
    assert _SLAB_CELLS == 16
    v = smooth_field((9, 7, cells_z + 1), seed=6, noise=0.05)
    m = _model(mu=0.004, sigma2=sigma2)
    want = _reference_probability_field(v, 0.1, m)
    assert probability_field(v, 0.1, m).p.tobytes() == want.tobytes()
    if sigma2 == 100.0:
        assert _live_cells(v.data, 0.1, m).all()


@pytest.mark.parametrize("cells_z", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("sigma2", [1e-6, 0.0])
def test_sparse_field_matches_whole_volume_pass(cells_z, sigma2):
    # a few Gaussian bumps: 0.1-5% of the cells are live at isovalue 0.3,
    # so every slab takes the gathered kernel
    v = sum_of_gaussians((64, 48, cells_z + 1), n=6, seed=6)
    m = _model(mu=0.004, sigma2=sigma2)
    assert 0.0 < max(_slab_live_shares(v.data, 0.3, m)) < _DENSE_LIVE
    want = _reference_probability_field(v, 0.3, m)
    assert probability_field(v, 0.3, m).p.tobytes() == want.tobytes()


def test_field_slabs_on_both_sides_of_the_kernel_choice():
    # 33 cell planes: the first slab is noise around the isovalue (every
    # cell and point live), the second far above it but for plane 16, which
    # it shares with the first, and three points near the isovalue; the
    # third has no live cell
    rng = np.random.default_rng(8)
    data = np.full((34, 20, 24), 10.0)
    data[:17] = rng.normal(0.0, 0.2, (17, 20, 24))
    data[24, 5, 7] = data[24, 12, 3] = data[27, 18, 20] = 0.05
    v = Volume(data)
    m = _model(sigma2=0.01)
    shares = _slab_live_shares(v.data, 0.0, m)
    assert shares[0] > _DENSE_LIVE > shares[1] > 0.0 == shares[2]
    t = -v.data / m.sigma
    band = [((s > _Z_ZERO) & (s < _Z_ONE)).mean() for s in (t[:17], t[16:33])]
    assert band[0] > _DENSE_BAND > band[1]
    want = _reference_probability_field(v, 0.0, m)
    assert probability_field(v, 0.0, m).p.tobytes() == want.tobytes()


def test_field_corners_at_the_saturation_thresholds():
    # sigma 0.5: v = -4.5 sits at z = 9.0 exactly and v = 20.0 at z = -40.0;
    # cells mix them with their neighbouring floats and with band values
    assert (0.0 - (-4.5)) / 0.5 == _Z_ONE and (0.0 - 20.0) / 0.5 == _Z_ZERO
    values = np.array([-4.5, np.nextafter(-4.5, 0.0), 20.0, np.nextafter(20.0, 0.0), 0.3])
    rng = np.random.default_rng(9)
    m = _model(sigma2=0.25)
    for weights in ([0.4, 0.1, 0.4, 0.1, 0.0], [0.3, 0.1, 0.3, 0.1, 0.2]):
        v = Volume(rng.choice(values, size=(20, 9, 11), p=weights))
        want = _reference_probability_field(v, 0.0, m)
        assert probability_field(v, 0.0, m).p.tobytes() == want.tobytes()
    flat = Volume(np.full((3, 3, 3), -4.5))
    assert probability_field(flat, 0.0, m).p.tobytes() == np.zeros((2, 2, 2)).tobytes()


@pytest.mark.parametrize("isovalue", [-100.0, 100.0])
@pytest.mark.parametrize("sigma2", [0.02, 0.0])
def test_field_isovalue_outside_the_value_range(isovalue, sigma2):
    v = smooth_field((9, 7, 20), seed=6, noise=0.05)
    m = _model(mu=0.004, sigma2=sigma2)
    p = probability_field(v, isovalue, m).p
    assert p.tobytes() == _reference_probability_field(v, isovalue, m).tobytes()
    assert (p == 0.0).all() and not np.signbit(p).any()


def test_ndtr_saturates_at_the_thresholds():
    # the skipped cells are exact only while ndtr saturates inside these
    # bounds; a scipy that moves saturation fails here first
    ones = np.concatenate([np.linspace(_Z_ONE, 60.0, 200_001), [1e3, 1e300, np.inf]])
    zeros = np.concatenate([np.linspace(-1e3, _Z_ZERO, 200_001), [-1e300, -np.inf]])
    assert (ndtr(ones) == 1.0).all()
    assert (ndtr(zeros) == 0.0).all()


def test_field_evaluates_ndtr_near_the_surface_only(monkeypatch):
    evaluated = []

    def counting_ndtr(z):
        evaluated.append(np.size(z))
        return ndtr(z)

    v = sum_of_gaussians((64, 48, 34), n=6, seed=6)
    m = _model(mu=0.004, sigma2=1e-6)
    assert _live_cells(v.data, 0.3, m).mean() < 0.10
    monkeypatch.setattr(uncertainty, "ndtr", counting_ndtr)
    p = probability_field(v, 0.3, m).p
    # a pass without the skip evaluates every point, shared slab planes twice
    assert 0 < sum(evaluated) < 0.15 * v.data.size
    monkeypatch.undo()
    assert p.tobytes() == _reference_probability_field(v, 0.3, m).tobytes()


def test_field_memory_is_bounded_by_the_slab():
    v = smooth_field((64, 64, 128), seed=7)
    m = _model(sigma2=0.01)
    tracemalloc.start()
    try:
        f = probability_field(v, 0.1, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus slab-sized temporaries; a whole-volume pass peaks at
    # about 4.1 times the output
    assert peak < 2.5 * f.p.nbytes


@pytest.mark.parametrize("sigma2", [3.3e-7, 0.0])
def test_sparse_field_memory_is_the_output_plus_two_slabs(sigma2):
    # a fitted model's field: 3% of the cells live, every slab gathered in
    # more than one batch
    v = smooth_field((128, 128, 49), seed=1, noise=1e-3)
    m = _model(sigma2=sigma2)
    assert max(_slab_live_shares(v.data, 0.5, m)) < _DENSE_LIVE
    live = _live_cells(v.data, 0.5, m)
    assert min(live[z : z + _SLAB_CELLS].sum() for z in range(0, 48, _SLAB_CELLS)) > _GATHER_CELLS
    tracemalloc.start()
    try:
        f = probability_field(v, 0.5, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slab = (_SLAB_CELLS + 1) * 128 * 128 * 8  # the f64 points one slab reads
    assert peak < f.p.nbytes + 2 * slab
    assert f.p.tobytes() == _reference_probability_field(v, 0.5, m).tobytes()


def test_field_needs_two_points_per_axis():
    with pytest.raises(ShapeError):
        probability_field(Volume(np.zeros((1, 4, 4))), 0.0, _model())


def test_probability_field_validation():
    with pytest.raises(ShapeError):
        ProbabilityField(p=np.zeros((3, 3)), isovalue=0.0, model=_model())


# ----------------------------------------------------------------- export


def test_write_field_raw_plus_sidecar(tmp_path):
    v = smooth_field((6, 5, 4), seed=5)
    m = _model(mu=0.003, sigma2=0.005, iso=0.25)
    f = probability_field(v, 0.25, m)
    path = tmp_path / "prob.raw"
    write_probability_field(f, path)

    raw = np.fromfile(path, dtype="<f4")
    assert raw.size == 5 * 4 * 3
    assert np.array_equal(raw.reshape(3, 4, 5), f.p.astype(np.float32))

    side = json.loads((tmp_path / "prob.raw.json").read_text())
    assert side["dims"] == [5, 4, 3]
    assert side["isovalue"] == 0.25
    assert side["mu"] == 0.003
    assert side["sigma2"] == 0.005
