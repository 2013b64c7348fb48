import numpy as np
import pytest

from mrcompress.errors import SamplingError, ShapeError
from mrcompress.postprocess import (
    FAMILY_SZ,
    FAMILY_ZFP,
    IntensityConfig,
    apply_postprocess,
    bezier_mid,
    clamp_to_band,
    extract_regions,
    family_candidates,
    plan_sampling,
    select_intensity,
)

from helpers import noisy_field, postprocess_allowance


def _line(values):
    """A (1, 1, n) array so axis passes act on a single x line."""
    return np.asarray(values, dtype=np.float64).reshape(1, 1, -1)


# ------------------------------------------------------------- arithmetic


def test_bezier_midpoint_values():
    assert bezier_mid(1.0, 2.0, 3.0) == 2.0
    assert bezier_mid(0.0, 1.0, 0.0) == 0.5
    assert bezier_mid(4.0, 0.0, 0.0) == 1.0
    d3 = np.array([1.0, 0.0])
    d5 = np.array([3.0, 0.0])
    assert np.array_equal(bezier_mid(d3, np.array([2.0, 1.0]), d5), [2.0, 0.5])


def test_clamp_band():
    assert clamp_to_band(5.0, 0.0, 0.5, 1.0) == 0.5
    assert clamp_to_band(-5.0, 0.0, 0.5, 1.0) == -0.5
    assert clamp_to_band(0.3, 0.0, 0.5, 1.0) == 0.3
    got = clamp_to_band(np.array([-2.0, 1.2, 2.0]), 1.0, 0.25, 2.0)
    assert np.array_equal(got, [0.5, 1.2, 1.5])


def test_family_candidate_sets():
    sz = family_candidates(FAMILY_SZ)
    zfp = family_candidates(FAMILY_ZFP)
    assert sz[0] == 0.05 and sz[-1] == 0.5 and len(sz) == 10
    assert zfp[0] == 0.005 and zfp[-1] == 0.05 and len(zfp) == 10
    with pytest.raises(ShapeError):
        family_candidates("svd")


def test_intensity_config_validation():
    cfg = IntensityConfig(FAMILY_SZ, [0.2, 0.2, 0.2])
    assert cfg.chosen == (0.2, 0.2, 0.2)
    assert IntensityConfig(FAMILY_ZFP, (0.005,) * 3).chosen == (0.005,) * 3
    with pytest.raises(ShapeError):
        IntensityConfig(FAMILY_SZ, (0.2, 0.2))
    with pytest.raises(ShapeError):
        IntensityConfig(FAMILY_SZ, (0.2, 0.2, 0.17))


# ------------------------------------------------------------- axis passes


def test_line_update_by_hand():
    # n=12, blocksize 4: only positions 3 and 7 qualify (11 has no right
    # neighbor inside the array)
    line = np.zeros(12)
    line[3] = 1.0
    line[7] = 0.1
    v = _line(line)
    cfg = IntensityConfig(FAMILY_SZ, (0.5, 0.5, 0.5))
    out = apply_postprocess(v, eb=0.2, blocksize=4, cfg=cfg)
    want = line.copy()
    # pos 3: bezier mid 0.5 is below the band floor 1.0 - 0.5*0.2 = 0.9
    want[3] = 0.9
    # pos 7: mid 0.05 lies inside the band 0.1 +- 0.1
    want[7] = 0.05
    assert np.allclose(out.reshape(-1), want, atol=1e-15)


def test_blocksize_one_is_a_no_op():
    v = noisy_field((8, 8, 8), seed=0).data
    out = apply_postprocess(v, eb=0.1, blocksize=1, cfg=IntensityConfig(FAMILY_SZ, (0.5, 0.5, 0.5)))
    assert np.array_equal(out, v) and not np.shares_memory(out, v)


def test_blocksize_validation():
    v = noisy_field((4, 4, 4), seed=0).data
    with pytest.raises(ShapeError):
        apply_postprocess(v, 0.1, 0, IntensityConfig(FAMILY_SZ, (0.05, 0.05, 0.05)))


def test_changes_confined_to_boundary_planes():
    v = noisy_field((16, 16, 16), seed=1).data
    cfg = IntensityConfig(FAMILY_SZ, (0.5, 0.25, 0.1))
    out = apply_postprocess(v, eb=0.3, blocksize=4, cfg=cfg)
    allow = postprocess_allowance(v.shape, 4, cfg)
    changed = out != v
    assert changed.any()
    assert not changed[allow == 0].any()


def test_band_containment_property():
    v = noisy_field((20, 12, 16), seed=2).data
    eb = 0.07
    cfg = IntensityConfig(FAMILY_SZ, (0.5, 0.3, 0.45))
    out = apply_postprocess(v, eb=eb, blocksize=4, cfg=cfg)
    allow = postprocess_allowance(v.shape, 4, cfg)
    slack = 1e-12
    assert (np.abs(out - v) <= allow * eb + slack).all()


def test_allowance_grid_values():
    cfg = IntensityConfig(FAMILY_SZ, (0.5, 0.25, 0.1))
    allow = postprocess_allowance((8, 8, 8), 4, cfg)
    want = np.zeros((8, 8, 8))
    want[:, :, 3] += 0.5  # x pass
    want[:, 3, :] += 0.25  # y pass
    want[3, :, :] += 0.1  # z pass
    assert np.array_equal(allow, want)
    assert allow[3, 3, 3] == pytest.approx(0.85)


# -------------------------------------------------------- intensity search


def test_select_prefers_strong_correction_for_boundary_spikes():
    # linear field along x with +10*eb spikes on every x boundary plane:
    # each extra unit of intensity strictly shrinks the error, so the x
    # sweep must keep the largest candidate; y and z passes then see
    # uniformly shifted planes, change nothing, and tie down to the
    # smallest candidate
    eb = 0.01
    zz, yy, xx = np.meshgrid(np.arange(12.0), np.arange(12.0), np.arange(12.0), indexing="ij")
    orig = 0.05 * xx
    dec = orig.copy()
    dec[:, :, 3] += 10 * eb
    dec[:, :, 7] += 10 * eb
    cfg = select_intensity([orig], [dec], eb, 4, FAMILY_SZ)
    assert cfg.chosen[0] == 0.5
    assert cfg.chosen[1] == 0.05
    assert cfg.chosen[2] == 0.05


def test_select_backs_off_when_smoothing_hurts():
    # exact reconstruction of a strongly curved field: every adjustment
    # moves points away from the truth, so all axes keep the smallest
    # intensity
    zz, yy, xx = np.meshgrid(np.arange(12.0), np.arange(12.0), np.arange(12.0), indexing="ij")
    orig = xx**2 + yy**2 + zz**2
    cfg = select_intensity([orig], [orig.copy()], 0.5, 4, FAMILY_SZ)
    assert cfg.chosen == (0.05, 0.05, 0.05)


def test_select_tie_takes_smallest():
    # linear field, exact reconstruction: bezier mids equal the points
    # themselves, every candidate scores identically
    zz, yy, xx = np.meshgrid(np.arange(12.0), np.arange(12.0), np.arange(12.0), indexing="ij")
    orig = 0.3 * xx + 0.2 * yy - 0.1 * zz
    cfg = select_intensity([orig], [orig.copy()], 0.01, 4, FAMILY_ZFP)
    assert cfg.chosen == (0.005, 0.005, 0.005)


def test_select_requires_matched_samples():
    a = np.zeros((4, 4, 4))
    with pytest.raises(SamplingError):
        select_intensity([a], [], 0.1, 4, FAMILY_SZ)
    with pytest.raises(SamplingError):
        select_intensity([], [], 0.1, 4, FAMILY_SZ)


# ---------------------------------------------------------------- sampling


def test_plan_sampling_cube():
    plan = plan_sampling((64, 64, 64), 4)
    assert plan.edges == (8, 8, 8)
    assert plan.i == 2 and plan.j == 2
    assert len(plan.origins) == 8
    assert plan.achieved_rate == pytest.approx(8 * 512 / 64**3)
    for ox, oy, oz in plan.origins:
        assert ox % 8 == 0 and oy % 8 == 0 and oz % 8 == 0
        assert ox + 8 <= 64 and oy + 8 <= 64 and oz + 8 <= 64
    assert len(set(plan.origins)) == len(plan.origins)


def test_plan_sampling_thin_axis_shrinks_region():
    plan = plan_sampling((64, 4, 64), 4)
    assert plan.edges == (8, 4, 8)
    assert plan.achieved_rate <= 0.05


def test_plan_sampling_respects_cap():
    for dims in [(16, 16, 16), (32, 24, 40), (128, 16, 16), (17, 33, 65)]:
        plan = plan_sampling(dims, 4)
        assert plan.achieved_rate <= 0.05


def test_plan_sampling_deterministic_per_seed():
    a = plan_sampling((64, 64, 64), 4, seed=7)
    b = plan_sampling((64, 64, 64), 4, seed=7)
    c = plan_sampling((64, 64, 64), 4, seed=8)
    assert a == b
    assert a.origins != c.origins


def test_plan_sampling_too_small_to_sample():
    with pytest.raises(SamplingError):
        plan_sampling((8, 8, 8), 4)
    with pytest.raises(SamplingError):
        plan_sampling((16, 16, 16), 32)


def test_plan_sampling_validation():
    with pytest.raises(ShapeError):
        plan_sampling((64, 64, 64), 0)


def test_extract_regions_match_manual_slices():
    v = noisy_field((32, 32, 32), seed=4)
    plan = plan_sampling((32, 32, 32), 4, seed=3)
    regions = extract_regions(v.data, plan)
    ex, ey, ez = plan.edges
    assert len(regions) == len(plan.origins)
    for r, (ox, oy, oz) in zip(regions, plan.origins):
        assert r.shape == (ez, ey, ex)
        assert np.array_equal(r, v.data[oz : oz + ez, oy : oy + ey, ox : ox + ex])
