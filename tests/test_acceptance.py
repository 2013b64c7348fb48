"""Acceptance gate for the whole package: twelve checks, one test each.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to see the measured numbers behind each verdict.
Tolerances are pinned in the asserts, not configurable.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mrcompress.cli import main as cli_main
from mrcompress.codec import ErrorBoundPolicy, level_error_bound
from mrcompress.codec.interp import _axis_passes
from mrcompress.container import (
    container_from_dataset,
    dataset_from_container,
    decode_container,
    encode_container,
)
from mrcompress.grid import BlockCoord, Volume, block_grid, write_raw_volume
from mrcompress.layout import (
    LINEAR,
    STACKED,
    UnitBlock,
    linear_merge,
    pad_linear,
    padding_overhead,
    stack_merge,
    unmerge,
    unpad,
)
from mrcompress.metrics import psnr, ssim
from mrcompress.pipeline import (
    PAD_AUTO,
    PAD_OFF,
    assemble_volume,
    compress_level,
    compress_volume,
    decompress_level,
    decompress_volume,
    tile_volume,
)
from mrcompress.postprocess import postprocess_allowance
from mrcompress.roi import RoiConfig, build_adaptive, reconstruct_uniform, select_roi
from mrcompress.uncertainty import ErrorModel, cell_crossing_probability

from helpers import gaussian_bumps, noisy_field, smooth_field, sum_of_gaussians


def _corpus():
    """200 volumes, dims 12..64 per axis, alternating smooth, smooth+noise,
    and pure noise. Every tenth volume is pushed into the 33..64 range."""
    rng = np.random.default_rng(31)
    vols = []
    for i in range(200):
        if i % 10 == 0:
            dims = tuple(int(x) for x in rng.integers(33, 65, size=3))
        else:
            dims = tuple(int(x) for x in rng.integers(12, 33, size=3))
        kind = i % 3
        if kind == 0:
            v = smooth_field(dims, seed=i)
        elif kind == 1:
            v = smooth_field(dims, seed=i, noise=0.3)
        else:
            v = noisy_field(dims, seed=i)
        vols.append(v)
    return vols


EBS = (1e-1, 1e-3, 1e-6)
CODECS = ("interp", "block")


@pytest.mark.slow
def test_01_error_bound_never_violated():
    t0 = time.perf_counter()
    runs = 0
    worst = 0.0
    for v in _corpus():
        for eb in EBS:
            for codec in CODECS:
                back = decompress_volume(compress_volume(v, ErrorBoundPolicy(eb), codec=codec))
                err = float(np.abs(v.data - back.data).max())
                worst = max(worst, err / eb)
                assert err <= eb, f"bound broken: codec={codec} eb={eb} err={err}"
                runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 1200
    assert elapsed < 120.0, f"corpus took {elapsed:.1f}s"
    print(f"criterion 01 error bound: {runs} runs, worst |err|/eb={worst:.4f}, "
          f"0 violations, {elapsed:.1f}s: PASS")


@pytest.mark.slow
def test_02_postprocess_band_never_violated():
    slack = 1e-12  # float headroom on an otherwise exact band
    runs = 0
    for i, v in enumerate(_corpus()):
        for eb in EBS:
            for codec, family in (("interp", "sz"), ("block", "zfp")):
                arch = compress_volume(v, ErrorBoundPolicy(eb), codec=codec,
                                       post_family=family, seed=i)
                post = decompress_volume(arch)
                plain = decompress_volume(replace(arch, post=None, samples=None))
                allow = postprocess_allowance(post.data.shape, arch.post_blocksize, arch.post)
                moved = np.abs(post.data - plain.data)
                total = np.abs(post.data - v.data)
                assert (moved <= allow * eb + slack).all(), (v.dims, eb, codec)
                assert (total <= (1.0 + allow) * eb + slack).all(), (v.dims, eb, codec)
                runs += 1
    assert runs == 1200
    print(f"criterion 02 post-process band: {runs} runs, |post-decomp| <= a*eb and "
          f"|post-orig| <= (1+a)*eb (slack {slack:g}), 0 violations: PASS")


def test_03_one_sided_schedule_positions():
    # point labels are 1-based: array index p holds point p+1
    # interior one-sided targets: the endpoint pass (the first) does not count
    labels8 = {p + 1 for _, _, one in _axis_passes(8)[1:] for p in one.tolist()}
    labels9 = [p for _, _, one in _axis_passes(9)[1:] for p in one.tolist()]
    assert labels8 == {5, 7}
    assert labels9 == []
    print("criterion 03 schedule: 8 points -> one-sided {5, 7}, "
          "9 points -> none, exact: PASS")


def test_04_adaptive_bound_values():
    pol = ErrorBoundPolicy(1.0, adaptive=True, alpha=2.25, beta=8.0)
    maxlevel = 6
    got = [level_error_bound(pol, maxlevel - d, maxlevel) for d in range(5)]
    want = [1.0, 1.0 / 2.25, 1.0 / 5.0625, 0.125, 0.125]
    err = max(abs(g - w) for g, w in zip(got, want))
    assert err <= 1e-12, got
    print(f"criterion 04 adaptive bounds: {got} matches "
          f"[1, 1/2.25, 1/5.0625, 1/8, 1/8] to {err:.1e} (<=1e-12): PASS")


def _rd_point(v, blocks, eb, pad, adaptive=False):
    arch = compress_level(blocks, v.dims, 16, ErrorBoundPolicy(eb, adaptive=adaptive),
                          codec="interp", arrangement=LINEAR,
                          pad=PAD_AUTO if pad else PAD_OFF, lossless="zlib")
    rec = assemble_volume(decompress_level(arch), v.dims)
    return arch.blob.original_bytes / arch.size_bytes(), psnr(v, rec)


def _matched_psnr(v, blocks, eb0, base_kw, probe_kw):
    """PSNR of base at eb0 and of probe at the eb whose CR matches within 5%."""
    cr0, p0 = _rd_point(v, blocks, eb0, **base_kw)
    lo, hi = eb0 / 32, eb0 * 32
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        cr, p = _rd_point(v, blocks, mid, **probe_kw)
        if abs(cr - cr0) <= 0.05 * cr0:
            return p0, p, cr0
        if cr < cr0:
            lo = mid
        else:
            hi = mid
    raise AssertionError(f"no matched-CR point near cr={cr0:.1f}")


SWEEP_REL = (1e-3, 3e-3, 8e-3, 2e-2, 5e-2)


def test_05_padding_wins_at_matched_ratio():
    t0 = time.perf_counter()
    v = sum_of_gaussians((64, 64, 64), seed=7)
    blocks = tile_volume(v, 16)
    vrange = float(v.data.max() - v.data.min())
    wins = 0
    rows = []
    for rel in SWEEP_REL:
        p_pad, p_plain, cr = _matched_psnr(v, blocks, rel * vrange,
                                           dict(pad=True), dict(pad=False))
        wins += p_pad >= p_plain
        rows.append(f"cr~{cr:.0f}: {p_pad:.2f} vs {p_plain:.2f}")
    elapsed = time.perf_counter() - t0
    assert wins >= 4, rows
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 05 padding at matched CR (+-5%): wins {wins}/5 "
          f"[{'; '.join(rows)}], {elapsed:.1f}s: PASS")


def test_06_adaptive_bound_wins_at_matched_ratio():
    v = sum_of_gaussians((64, 64, 64), seed=7)
    blocks = tile_volume(v, 16)
    vrange = float(v.data.max() - v.data.min())
    wins = 0
    rows = []
    for rel in SWEEP_REL:
        p_ad, p_un, cr = _matched_psnr(v, blocks, rel * vrange,
                                       dict(pad=True, adaptive=True), dict(pad=True))
        wins += p_ad >= p_un
        rows.append(f"cr~{cr:.0f}: {p_ad:.2f} vs {p_un:.2f}")
    assert wins >= 4, rows
    print(f"criterion 06 adaptive bound at matched CR (+-5%): wins {wins}/5 "
          f"[{'; '.join(rows)}]: PASS")


def test_07_postprocess_gain_by_ratio_regime():
    v = sum_of_gaussians((64, 64, 64), seed=7)
    vrange = float(v.data.max() - v.data.min())

    def gain_at(rel):
        arch = compress_volume(v, ErrorBoundPolicy(rel * vrange), codec="block",
                               post_family="sz", lossless="zlib", seed=11)
        cr = arch.blob.original_bytes / arch.size_bytes()
        post = decompress_volume(arch)
        plain = decompress_volume(replace(arch, post=None, samples=None))
        return cr, psnr(v, post) - psnr(v, plain)

    cr_hi, gain_hi = gain_at(1e-2)
    cr_lo, gain_lo = gain_at(1e-4)
    assert cr_hi > 50.0 and gain_hi >= 0.5, (cr_hi, gain_hi)
    assert cr_lo < 20.0 and gain_lo >= -0.1, (cr_lo, gain_lo)
    print(f"criterion 07 post-process gain: cr={cr_hi:.0f} -> {gain_hi:+.2f} dB "
          f"(>=0.5), cr={cr_lo:.0f} -> {gain_lo:+.2f} dB (>=-0.1): PASS")


def test_08_padding_overhead_arithmetic():
    assert padding_overhead(4) == 25.0 / 16.0  # 56.25% growth, exact
    v = sum_of_gaussians((32, 32, 32), seed=2)
    for u in (8, 16):
        m = linear_merge(tile_volume(v, u))
        grown = pad_linear(m).values.size / m.values.size
        assert grown == padding_overhead(u), (u, grown)
    pol = ErrorBoundPolicy(1e-3)
    small = compress_level(tile_volume(v, 4), v.dims, 4, pol, pad=PAD_AUTO)
    large = compress_level(tile_volume(v, 8), v.dims, 8, pol, pad=PAD_AUTO)
    assert not small.blob.padded
    assert large.blob.padded
    print("criterion 08 padding overhead: growth == (u+1)^2/u^2 exactly "
          "(1.5625 at u=4), auto-pad skips u<=4: PASS")


def test_09_crossing_probability_against_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    cells = rng.normal(0.0, 0.6, (1000, 8))
    model = ErrorModel(mu=0.03, sigma2=0.08**2, isovalue=0.0,
                       window=0.05, n_samples=4096)
    draws = rng.standard_normal((100_000, 8))
    worst = 0.0
    for corners in cells:
        p = cell_crossing_probability(corners, 0.0, model)
        sim = corners[None, :] + model.mu + model.sigma * draws
        below = sim < 0.0
        phat = float((below.any(axis=1) & ~below.all(axis=1)).mean())
        worst = max(worst, abs(phat - p))
    assert worst <= 0.01, worst

    exact = ErrorModel(mu=0.03, sigma2=0.0, isovalue=0.0, window=0.05, n_samples=4096)
    for corners in cells:
        shifted = corners + exact.mu
        want = float(bool((shifted < 0.0).any() and (shifted >= 0.0).any()))
        assert cell_crossing_probability(corners, 0.0, exact) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle took {elapsed:.1f}s"
    print(f"criterion 09 crossing probability: 1000 cells vs 1e5-draw MC, "
          f"max |dp|={worst:.4f} (<=0.01), sigma=0 exact, {elapsed:.1f}s: PASS")


def test_10_roi_selection_and_fidelity():
    rng = np.random.default_rng(77)
    dims = (64, 64, 64)
    n = 8
    centers = np.column_stack([rng.uniform(6, 58, n) for _ in range(3)])
    widths = rng.uniform(1.8, 2.6, n)
    amps = rng.uniform(1.0, 2.0, n)
    v = gaussian_bumps(dims, centers, widths, amps, background=0.1)

    cfg = RoiConfig(b=8, x_percent=15.0)
    mask = select_roi(v, cfg)
    gx, gy, gz = block_grid(dims, cfg.b)
    bump_blocks = set()
    for (cx, cy, cz), w in zip(centers, widths):
        r = 2.5 * w
        for bz in range(gz):
            for by in range(gy):
                for bx in range(gx):
                    px = min(max(cx, bx * 8), bx * 8 + 7)
                    py = min(max(cy, by * 8), by * 8 + 7)
                    pz = min(max(cz, bz * 8), bz * 8 + 7)
                    if (px - cx) ** 2 + (py - cy) ** 2 + (pz - cz) ** 2 <= r * r:
                        bump_blocks.add(bx + gx * (by + gy * bz))
    missed = [i for i in bump_blocks if not mask[i]]
    assert not missed, missed

    rec = reconstruct_uniform(build_adaptive(v, mask, cfg))
    score = ssim(v, rec)
    assert score >= 0.99, score
    print(f"criterion 10 roi: {len(bump_blocks)} bump blocks all kept fine "
          f"({int(mask.sum())} selected), ssim={score:.6f} (>=0.99): PASS")


def test_11_round_trip_identities():
    rng = np.random.default_rng(1111)
    cases = 0

    for i in range(600):
        u = int(rng.choice((4, 8)))
        k = int(rng.integers(1, 6))
        flat = rng.choice(64, size=k, replace=False)
        blocks = []
        for f in np.sort(flat):
            bx, by, bz = int(f % 4), int(f // 4 % 4), int(f // 16)
            blocks.append(UnitBlock(coord=BlockCoord(bx, by, bz, u), u=u,
                                    data=rng.standard_normal((u, u, u))))
        arrangement = LINEAR if i % 2 == 0 else STACKED
        m = linear_merge(blocks) if arrangement == LINEAR else stack_merge(blocks)
        if arrangement == LINEAR and u > 4 and i % 3 == 0:
            m = unpad(pad_linear(m))
        out = unmerge(m)
        assert len(out) == len(blocks)
        for a, b in zip(out, sorted(blocks, key=lambda t: (t.coord.bz, t.coord.by, t.coord.bx))):
            assert a.coord == b.coord
            assert np.array_equal(a.data, b.data)
        cases += 1

    for i in range(400):
        dims = tuple(int(rng.choice((16, 24))) for _ in range(3))
        v = noisy_field(dims, seed=10_000 + i)
        pct = float(rng.choice((10.0, 40.0, 100.0)))
        cfg = RoiConfig(b=8, x_percent=pct)
        ds = build_adaptive(v, select_roi(v, cfg), cfg)
        c = container_from_dataset(ds, roi_b=8, roi_x_percent=pct)
        buf = encode_container(c)
        c2 = decode_container(buf)
        assert encode_container(c2) == buf
        ds2 = dataset_from_container(c2)
        kept = [lv for lv in ds.levels if lv.blocks]  # empty levels are not stored
        assert len(ds2.levels) == len(kept)
        for la, lb in zip(kept, ds2.levels):
            assert la.u == lb.u and len(la.blocks) == len(lb.blocks)
            for a, b in zip(la.blocks, lb.blocks):
                assert a.coord == b.coord
                assert np.array_equal(a.data, b.data)
        cases += 1

    assert cases == 1000
    print(f"criterion 11 round trips: {cases} randomized cases bit-exact, "
          f"container re-encode byte-identical: PASS")


def test_12_thread_count_never_changes_bytes(tmp_path, monkeypatch):
    v = sum_of_gaussians((64, 64, 64), seed=5)
    raw = tmp_path / "vol.raw"
    write_raw_volume(v, raw, "f64")
    dims = "64,64,64"

    outputs = {}
    for n in ("1", "4", "8"):
        monkeypatch.setenv("MRC_THREADS", n)
        d = tmp_path / f"t{n}"
        d.mkdir()
        roi, cmp_, rec = str(d / "roi.mrc"), str(d / "cmp.mrc"), str(d / "rec.raw")
        prob, ev = str(d / "prob.raw"), str(d / "eval.json")
        assert cli_main(["roi", "--input", str(raw), "--dims", dims, "--dtype", "f64",
                         "--block", "8", "--percent", "25", "--out", roi]) == 0
        assert cli_main(["compress", "--input", roi, "--eb", "1e-3", "--post", "sz",
                         "--out", cmp_]) == 0
        assert cli_main(["decompress", "--input", cmp_, "--uniform", "--out", rec,
                         "--dtype", "f64"]) == 0
        assert cli_main(["uncertainty", "--input", cmp_, "--isovalue", "0.5",
                         "--out", prob]) == 0
        assert cli_main(["eval", "--orig", str(raw), "--recon", cmp_, "--dims", dims,
                         "--dtype", "f64", "--out", ev]) == 0
        outputs[n] = tuple(
            open(p, "rb").read()
            for p in (roi, cmp_, rec, prob, prob + ".json", ev)
        )
    assert outputs["1"] == outputs["4"] == outputs["8"]
    print("criterion 12 determinism: roi/compress/decompress/uncertainty/eval "
          "byte-identical across 1, 4, 8 threads: PASS")
