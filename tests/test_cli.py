import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mrcompress.cli import main
from mrcompress.codec import ErrorBoundPolicy
from mrcompress.codec.blob import CODECS, CompressedBlob
from mrcompress.codec.entropy import LOSSLESS_NONE, entropy_encode
from mrcompress.container import ContainerFile, ContainerLevel, encode_container, read_container
from mrcompress.errors import FormatError
from mrcompress.grid import Volume, read_raw_volume, write_raw_volume
from mrcompress.pipeline import compress_volume
from mrcompress.roi import RoiConfig, build_adaptive, reconstruct_uniform, select_roi

from helpers import max_abs_err, smooth_field, sum_of_gaussians


def _write_raw(tmp_path, v, name="vol.raw", dtype="f64"):
    path = tmp_path / name
    write_raw_volume(v, path, dtype)
    return str(path)


def _dims_arg(v):
    return ",".join(str(d) for d in v.dims)


# --------------------------------------------------------------- happy path


def test_compress_decompress_raw_volume(tmp_path):
    v = sum_of_gaussians((24, 20, 16), seed=0)
    raw = _write_raw(tmp_path, v)
    cont = str(tmp_path / "vol.mrc")
    out = str(tmp_path / "back.raw")

    rc = main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
               "--eb", "1e-3", "--out", cont])
    assert rc == 0
    rc = main(["decompress", "--input", cont, "--out", out, "--dtype", "f64"])
    assert rc == 0

    back = read_raw_volume(out, v.dims, "f64")
    assert max_abs_err(v, back) <= 1e-3
    assert not list(tmp_path.glob("*.tmp.*"))


def test_roi_then_compress_then_uniform(tmp_path):
    v = sum_of_gaussians((32, 32, 32), seed=1)
    raw = _write_raw(tmp_path, v)
    roi_out = str(tmp_path / "roi.mrc")
    cmp_out = str(tmp_path / "cmp.mrc")
    rec_out = str(tmp_path / "rec.raw")

    rc = main(["roi", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
               "--block", "8", "--percent", "25", "--out", roi_out])
    assert rc == 0
    c = read_container(roi_out)
    assert c.roi_b == 8 and c.roi_x_percent == 25.0
    assert c.n_levels == 2

    rc = main(["compress", "--input", roi_out, "--eb", "1e-3", "--out", cmp_out])
    assert rc == 0
    rc = main(["decompress", "--input", cmp_out, "--uniform", "--out", rec_out,
               "--dtype", "f64"])
    assert rc == 0

    # the coarse half of the domain was downsampled, so compare against the
    # adaptively represented volume rather than the original
    cfg = RoiConfig(b=8, x_percent=25.0)
    ds = build_adaptive(v, select_roi(v, cfg), cfg)
    want = reconstruct_uniform(ds)
    back = read_raw_volume(rec_out, v.dims, "f64")
    assert max_abs_err(want, back) <= 1e-3


def test_stored_roi_container_reconstructs_exactly(tmp_path):
    v = sum_of_gaussians((32, 32, 32), seed=2)
    raw = _write_raw(tmp_path, v)
    roi_out = str(tmp_path / "roi.mrc")
    rec_out = str(tmp_path / "rec.raw")
    main(["roi", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--block", "8", "--percent", "50", "--out", roi_out])
    rc = main(["decompress", "--input", roi_out, "--uniform", "--out", rec_out,
               "--dtype", "f64"])
    assert rc == 0
    cfg = RoiConfig(b=8, x_percent=50.0)
    want = reconstruct_uniform(build_adaptive(v, select_roi(v, cfg), cfg))
    assert read_raw_volume(rec_out, v.dims, "f64") == want


def test_full_percent_roi_keeps_everything_bit_exact(tmp_path):
    v = sum_of_gaussians((16, 16, 16), seed=3)
    raw = _write_raw(tmp_path, v)
    roi_out = str(tmp_path / "roi.mrc")
    rec_out = str(tmp_path / "rec.raw")
    main(["roi", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--block", "8", "--percent", "100", "--out", roi_out])
    assert read_container(roi_out).n_levels == 1
    rc = main(["decompress", "--input", roi_out, "--uniform", "--out", rec_out,
               "--dtype", "f64"])
    assert rc == 0
    assert read_raw_volume(rec_out, v.dims, "f64") == v


def test_multi_level_decompress_requires_uniform_flag(tmp_path):
    v = sum_of_gaussians((32, 32, 32), seed=4)
    raw = _write_raw(tmp_path, v)
    roi_out = str(tmp_path / "roi.mrc")
    main(["roi", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--block", "8", "--percent", "25", "--out", roi_out])
    rc = main(["decompress", "--input", roi_out, "--out", str(tmp_path / "x.raw")])
    assert rc == 2


def test_compress_f32_input(tmp_path):
    v = sum_of_gaussians((16, 16, 16), seed=5)
    raw = _write_raw(tmp_path, v, dtype="f32")
    cont = str(tmp_path / "v.mrc")
    out = str(tmp_path / "b.raw")
    rc = main(["compress", "--input", raw, "--dims", _dims_arg(v),
               "--eb", "1e-2", "--out", cont])
    assert rc == 0
    rc = main(["decompress", "--input", cont, "--out", out])
    assert rc == 0
    orig32 = read_raw_volume(raw, v.dims, "f32")
    back32 = read_raw_volume(out, v.dims, "f32")
    assert max_abs_err(orig32, back32) <= 1e-2 + 1e-5


# --------------------------------------------------------------------- eval


def test_eval_identical_raw_files(tmp_path, capsys):
    v = sum_of_gaussians((16, 16, 16), seed=6)
    raw = _write_raw(tmp_path, v)
    out = str(tmp_path / "metrics.json")
    rc = main(["eval", "--orig", raw, "--recon", raw, "--dims", _dims_arg(v),
               "--dtype", "f64", "--out", out])
    assert rc == 0
    result = json.loads(open(out).read())
    assert result["psnr_db"] == "inf"
    assert result["ssim"] == 1.0
    assert result["cr"] is None


def test_eval_against_container_reports_cr(tmp_path, capsys):
    v = sum_of_gaussians((16, 16, 16), seed=7)
    raw = _write_raw(tmp_path, v)
    cont = str(tmp_path / "v.mrc")
    main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--eb", "1e-3", "--out", cont])
    capsys.readouterr()
    rc = main(["eval", "--orig", raw, "--recon", cont, "--dims", _dims_arg(v),
               "--dtype", "f64"])
    assert rc == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout[: stdout.rindex("}") + 1])
    assert result["cr"] > 1.0
    assert result["psnr_db"] > 40.0
    assert 0.9 < result["ssim"] <= 1.0


def test_eval_cr_counts_the_whole_container_file(tmp_path, capsys):
    # headers and sample sidecars count, as in the ratio compress prints
    v = sum_of_gaussians((64, 64, 64), seed=17)
    raw = _write_raw(tmp_path, v, dtype="f32")
    roi_out, cont = str(tmp_path / "roi.mrc"), str(tmp_path / "v.mrc")
    assert main(["roi", "--input", raw, "--dims", _dims_arg(v), "--block", "8", "--percent", "25",
                 "--out", roi_out]) == 0
    capsys.readouterr()
    assert main(["compress", "--input", roi_out, "--eb", "1e-3", "--post", "sz", "--lossless", "zlib",
                 "--out", cont]) == 0
    compress_cr = capsys.readouterr().out.split("cr: ")[1].split()[0]
    out = tmp_path / "metrics.json"
    assert main(["eval", "--orig", raw, "--recon", cont, "--dims", _dims_arg(v), "--out", str(out)]) == 0
    cr = json.loads(out.read_text())["cr"]
    assert cr == read_container(cont).original_bytes() / (tmp_path / "v.mrc").stat().st_size
    assert f"{cr:.2f}" == compress_cr


# -------------------------------------------------------------- uncertainty


def test_uncertainty_with_reference_volume(tmp_path):
    v = sum_of_gaussians((16, 16, 16), seed=8)
    raw = _write_raw(tmp_path, v)
    cont = str(tmp_path / "v.mrc")
    prob = str(tmp_path / "prob.raw")
    main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--eb", "1e-2", "--out", cont])
    rc = main(["uncertainty", "--input", cont, "--orig", raw, "--dtype", "f64",
               "--isovalue", "0.5", "--out", prob])
    assert rc == 0
    field = np.fromfile(prob, dtype="<f4")
    assert field.size == 15 * 15 * 15
    assert ((field >= 0) & (field <= 1)).all()
    side = json.loads(open(prob + ".json").read())
    assert side["dims"] == [15, 15, 15]
    assert side["isovalue"] == 0.5
    assert "mu" in side and "sigma2" in side


def test_uncertainty_from_stored_samples(tmp_path):
    v = sum_of_gaussians((64, 64, 64), seed=9)
    raw = _write_raw(tmp_path, v)
    cont = str(tmp_path / "v.mrc")
    prob = str(tmp_path / "prob.raw")
    main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--eb", "1e-2", "--post", "sz", "--out", cont])
    assert read_container(cont).levels[0].archive.samples is not None
    rc = main(["uncertainty", "--input", cont, "--isovalue", "0.5", "--out", prob])
    assert rc == 0
    assert np.fromfile(prob, dtype="<f4").size == 63**3


def test_level_too_small_to_sample_compresses_without_post(tmp_path, capsys):
    # the 16^3 unit blocks of the fine level merge to (16, 16, 208), where no
    # block-aligned sample region fits under the 5% cap
    v = smooth_field((64, 64, 64), seed=3)
    raw = _write_raw(tmp_path, v, dtype="f32")
    roi_out = str(tmp_path / "roi.mrc")
    cont = str(tmp_path / "v.mrc")
    assert main(["roi", "--input", raw, "--dims", _dims_arg(v), "--block", "16",
                 "--percent", "20", "--out", roi_out]) == 0
    capsys.readouterr()
    assert main(["compress", "--input", roi_out, "--eb", "1e-3", "--post", "sz", "--out", cont]) == 0
    assert "level 0: u=16 pad=on post=off (too small to sample)" in capsys.readouterr().out
    a0, a1 = (lv.archive for lv in read_container(cont).levels)
    assert a0.post is None and a0.samples is None
    assert a1.post.family == "sz" and a1.samples is not None
    assert main(["decompress", "--input", cont, "--uniform", "--out", str(tmp_path / "rec.raw")]) == 0
    assert main(["uncertainty", "--input", cont, "--isovalue", "0.5", "--out", str(tmp_path / "p.raw")]) == 0


def test_uncertainty_decodes_each_level_once(tmp_path, monkeypatch):
    import mrcompress.pipeline as pipeline
    from mrcompress.pipeline import decompress_level, level_sample_pairs
    from mrcompress.roi import MultiResDataset
    from mrcompress.uncertainty import fit_model, probability_field, sample_errors

    v = sum_of_gaussians((64, 64, 64), seed=16)
    raw = _write_raw(tmp_path, v)
    roi_out = str(tmp_path / "roi.mrc")
    cont = str(tmp_path / "v.mrc")
    prob = str(tmp_path / "prob.raw")
    main(["roi", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--block", "8", "--percent", "25", "--out", roi_out])
    assert main(["compress", "--input", roi_out, "--eb", "1e-2", "--post", "sz", "--out", cont]) == 0
    c = read_container(cont)
    assert c.n_levels == 2

    calls = []
    decompress = pipeline.decompress
    monkeypatch.setattr(pipeline, "decompress", lambda blob: calls.append(blob) or decompress(blob))
    assert main(["uncertainty", "--input", cont, "--isovalue", "0.5", "--out", prob]) == 0
    assert len(calls) == c.n_levels
    monkeypatch.undo()

    # same bytes as the library path that decodes every level per use
    archives = [lv.archive for lv in c.levels]
    ds = MultiResDataset(levels=tuple(decompress_level(a) for a in archives))
    recon = reconstruct_uniform(ds)
    pairs = [level_sample_pairs(a) for a in archives]
    dec_regions = [r for p in pairs for r in p[1]]
    errors = sample_errors([r for p in pairs for r in p[0]], dec_regions)
    model = fit_model(errors, np.concatenate([r.reshape(-1) for r in dec_regions]), 0.5)
    field = probability_field(recon, 0.5, model)
    assert open(prob, "rb").read() == field.p.astype("<f4").tobytes()


def test_uncertainty_without_samples_needs_orig(tmp_path):
    v = sum_of_gaussians((16, 16, 16), seed=10)
    raw = _write_raw(tmp_path, v)
    cont = str(tmp_path / "v.mrc")
    main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--eb", "1e-2", "--out", cont])
    rc = main(["uncertainty", "--input", cont, "--isovalue", "0.5",
               "--out", str(tmp_path / "p.raw")])
    assert rc == 2


# --------------------------------------------------------------- exit codes


def test_raw_compress_requires_dims(tmp_path):
    v = sum_of_gaussians((8, 8, 8), seed=11)
    raw = _write_raw(tmp_path, v)
    rc = main(["compress", "--input", raw, "--eb", "1e-3",
               "--out", str(tmp_path / "x.mrc")])
    assert rc == 2


def test_bad_usage_exit_codes(tmp_path):
    v = sum_of_gaussians((16, 16, 16), seed=12)
    raw = _write_raw(tmp_path, v)
    out = str(tmp_path / "x.mrc")
    dims = _dims_arg(v)

    # shape problems from the library surface as exit 2
    assert main(["compress", "--input", raw, "--dims", dims, "--dtype", "f64",
                 "--eb", "-1", "--out", out]) == 2
    assert main(["compress", "--input", raw, "--dims", dims, "--dtype", "f64",
                 "--eb", "1e-3", "--sample-rate", "0.2", "--out", out]) == 2
    assert main(["roi", "--input", raw, "--dims", dims, "--dtype", "f64",
                 "--block", "12", "--percent", "10", "--out", out]) == 2
    # wrong payload size for the declared dims
    assert main(["compress", "--input", raw, "--dims", "16,16,8", "--dtype", "f64",
                 "--eb", "1e-3", "--out", out]) == 2
    # missing file
    assert main(["compress", "--input", str(tmp_path / "absent.raw"),
                 "--dims", dims, "--eb", "1e-3", "--out", out]) == 2


def test_argparse_failures_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--input", "x", "--eb", "1e-3", "--dims", "4,4",
              "--out", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--no-such-flag"])
    assert exc.value.code == 2
    assert main([]) == 2


def test_malformed_container_exits_three(tmp_path):
    bad = tmp_path / "bad.mrc"
    bad.write_bytes(b"MRC2" + b"\x00" * 3)  # magic but truncated header
    assert main(["decompress", "--input", str(bad), "--out", str(tmp_path / "o.raw")]) == 3

    v = sum_of_gaussians((16, 16, 16), seed=13)
    raw = _write_raw(tmp_path, v)
    cont = tmp_path / "v.mrc"
    main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
          "--eb", "1e-3", "--out", str(cont)])
    blob = bytearray(cont.read_bytes())
    cont.write_bytes(bytes(blob[: len(blob) - 40]))
    assert main(["decompress", "--input", str(cont), "--out", str(tmp_path / "o.raw")]) == 3


def test_roi_whose_pooling_overflows_names_the_coarse_level(tmp_path):
    data = np.zeros((16, 16, 16))
    data[:2, :2, :2] = 1.7e308  # finite, but their 2x2x2 cell sum is not
    data.tofile(tmp_path / "big.f64")
    # a fresh process, so stderr is what a user sees, warnings included
    proc = subprocess.run(
        [sys.executable, "-m", "mrcompress.cli", "roi", "--input", str(tmp_path / "big.f64"),
         "--dims", "16,16,16", "--dtype", "f64", "--block", "8", "--percent", "20",
         "--out", str(tmp_path / "roi.mrc")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "coarse level" in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "roi.mrc").exists()


def test_an_old_container_version_given_to_compress_exits_three(tmp_path, capsys):
    v = sum_of_gaussians((16, 16, 16), seed=13)
    raw = _write_raw(tmp_path, v)
    cont = tmp_path / "v.mrc"
    assert main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
                 "--eb", "1e-3", "--out", str(cont)]) == 0
    old = bytearray(cont.read_bytes())
    old[:6] = b"MRC1" + (1).to_bytes(2, "little")  # the first container version
    cont.write_bytes(bytes(old))
    capsys.readouterr()
    # no --dims: an old container is not taken for raw input
    assert main(["compress", "--input", str(cont), "--eb", "1e-3", "--out", str(tmp_path / "x.mrc")]) == 3
    assert "unsupported container version 1" in capsys.readouterr().err


def test_a_whole_volume_container_given_to_compress_exits_two(tmp_path, capsys):
    # the file is valid; compress only recompresses the levels of an ROI container
    v = sum_of_gaussians((16, 16, 16), seed=13)
    raw = _write_raw(tmp_path, v)
    cont = tmp_path / "v.mrc"
    assert main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
                 "--eb", "1e-3", "--out", str(cont)]) == 0
    capsys.readouterr()
    assert main(["compress", "--input", str(cont), "--eb", "1e-3", "--out", str(tmp_path / "x.mrc")]) == 2
    assert "compress takes a raw volume or an ROI container" in capsys.readouterr().err
    assert not (tmp_path / "x.mrc").exists()


def test_retired_block_codec_id_exits_three(tmp_path):
    # id 2 was the closed-loop block codec, whose streams the block decoder
    # reads differently; its blobs are refused where they are parsed
    v = sum_of_gaussians((16, 16, 16), seed=13)
    raw = _write_raw(tmp_path, v)
    cont = tmp_path / "v.mrc"
    assert main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64", "--codec", "block",
                 "--eb", "1e-3", "--out", str(cont)]) == 0
    buf = bytearray(cont.read_bytes())
    at = buf.index(b"MRB2")
    assert buf[at + 4] == CODECS.index("block") == 3
    buf[at + 4] = 2
    with pytest.raises(FormatError):
        CompressedBlob.from_bytes(bytes(buf), at)
    cont.write_bytes(bytes(buf))
    assert main(["decompress", "--input", str(cont), "--out", str(tmp_path / "o.raw")]) == 3


def _rewrite_blob(c, **changes):
    a = c.levels[0].archive
    return encode_container(replace(c, levels=(replace(c.levels[0], archive=replace(a, blob=replace(a.blob, **changes))),)))


@pytest.mark.parametrize("codec", ["stored", "interp", "block"])
def test_zero_dim_blob_exits_three(tmp_path, codec):
    arch = compress_volume(sum_of_gaussians((4, 4, 4), seed=18), ErrorBoundPolicy(eb=1e-3), codec)
    cont = tmp_path / "v.mrc"
    # the stream a zero-value array carries, so only the dims are wrong
    empty = entropy_encode(np.zeros(0, dtype=np.int32), np.zeros(0), LOSSLESS_NONE)
    c = ContainerFile(levels=(ContainerLevel(archive=arch),))
    cont.write_bytes(_rewrite_blob(c, dims=(0, 4, 4), stream=empty))
    assert main(["decompress", "--input", str(cont), "--out", str(tmp_path / "o.raw")]) == 3


@pytest.mark.parametrize("codec", ["interp", "block"])
def test_nan_literal_exits_three(tmp_path, codec):
    data = sum_of_gaussians((16, 16, 16), seed=19).data.copy()
    data[3, 4, 5] = 1e6
    v = Volume(data)
    raw = _write_raw(tmp_path, v)
    cont = tmp_path / "v.mrc"
    assert main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64", "--codec", codec,
                 "--eb", "1e-3", "--out", str(cont)]) == 0
    c = read_container(cont)
    stream = c.levels[0].archive.blob.stream
    assert int.from_bytes(stream[:8], "little") > 0  # the spike forces literals, stored last
    cont.write_bytes(_rewrite_blob(c, stream=stream[:-8] + np.array([np.nan], dtype="<f8").tobytes()))
    assert main(["decompress", "--input", str(cont), "--out", str(tmp_path / "o.raw")]) == 3


def test_sample_region_outside_its_level_exits_three(tmp_path):
    v = sum_of_gaussians((64, 64, 64), seed=16)
    raw = _write_raw(tmp_path, v, dtype="f32")
    roi_out, cont = str(tmp_path / "roi.mrc"), tmp_path / "v.mrc"
    assert main(["roi", "--input", raw, "--dims", _dims_arg(v), "--block", "8", "--percent", "25",
                 "--out", roi_out]) == 0
    assert main(["compress", "--input", roi_out, "--eb", "1e-3", "--post", "sz", "--out", str(cont)]) == 0
    c = read_container(cont)
    a = c.levels[0].archive
    plan = replace(a.samples.plan, origins=((10**6, 0, 0),) + a.samples.plan.origins[1:])
    lv = replace(c.levels[0], archive=replace(a, samples=replace(a.samples, plan=plan)))
    cont.write_bytes(encode_container(replace(c, levels=(lv,) + c.levels[1:])))
    assert main(["uncertainty", "--input", str(cont), "--isovalue", "0.5",
                 "--out", str(tmp_path / "p.raw")]) == 3


def test_unexpected_failure_exits_four(tmp_path, monkeypatch):
    import mrcompress.cli as cli

    def boom(path):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "read_container", boom)
    bad = tmp_path / "c.mrc"
    bad.write_bytes(b"MRC2")
    assert main(["decompress", "--input", str(bad), "--out", str(tmp_path / "o.raw")]) == 4


def test_failed_writes_leave_no_temp_files(tmp_path, monkeypatch):
    import mrcompress.cli as cli

    v = sum_of_gaussians((16, 16, 16), seed=15)
    raw = _write_raw(tmp_path, v)
    cont = str(tmp_path / "v.mrc")
    assert main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
                 "--eb", "1e-3", "--out", cont]) == 0
    taken = tmp_path / "taken"
    taken.mkdir()

    # the rename over an existing directory fails, on both write paths
    assert main(["compress", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
                 "--eb", "1e-3", "--out", str(taken)]) == 2
    assert main(["decompress", "--input", cont, "--out", str(taken)]) == 2
    assert main(["uncertainty", "--input", cont, "--orig", raw, "--dtype", "f64",
                 "--isovalue", "0.5", "--out", str(taken)]) == 2
    assert not list(tmp_path.glob("*.tmp.*"))

    # the raw write itself fails halfway
    def half_write(vol, path, dtype):
        with open(path, "wb") as fh:
            fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_raw_volume", half_write)
    out = tmp_path / "back.raw"
    assert main(["decompress", "--input", cont, "--out", str(out)]) == 2
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp.*"))


# ------------------------------------------------------------ level order


def test_levels_run_on_the_calling_thread(tmp_path, monkeypatch):
    import threading

    import mrcompress.cli as cli

    v = sum_of_gaussians((64, 64, 64), seed=14)
    raw = _write_raw(tmp_path, v)

    def chain(d):
        d.mkdir()
        roi, cmp_, rec, prob = (str(d / n) for n in ("roi.mrc", "cmp.mrc", "rec.raw", "prob.raw"))
        assert main(["roi", "--input", raw, "--dims", _dims_arg(v), "--dtype", "f64",
                     "--block", "8", "--percent", "25", "--out", roi]) == 0
        assert main(["compress", "--input", roi, "--eb", "1e-3", "--post", "sz", "--out", cmp_]) == 0
        assert main(["decompress", "--input", cmp_, "--uniform", "--out", rec, "--dtype", "f64"]) == 0
        assert main(["uncertainty", "--input", cmp_, "--isovalue", "0.5", "--out", prob]) == 0
        return [open(p, "rb").read() for p in (roi, cmp_, rec, prob, prob + ".json")]

    calls = []
    for name in ("compress_level", "decompress_level", "decode_level"):
        def record(*args, name=name, fn=getattr(cli, name), **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, record)
    # the CLI reads no thread setting, so a stale one changes nothing
    monkeypatch.setenv("MRC_THREADS", "4")
    first = chain(tmp_path / "a")
    assert {name for name, _ in calls} == {"compress_level", "decompress_level", "decode_level"}
    assert all(t is threading.main_thread() for _, t in calls)
    monkeypatch.delenv("MRC_THREADS")
    assert chain(tmp_path / "b") == first


# sha256 of every output of the CLI chain on a 64^3 f32 field, recorded
# while the levels still ran on a thread pool; eval.json re-recorded when
# its cr began to count the whole container file (psnr and ssim unchanged),
# and with roi.mrc and out.mrc when the coord tables gave way to occupancy
# bitmaps (out.f32 and the probability field unchanged)
GOLDEN_CHAIN = {
    "roi.mrc": "38f747990191402fe748b7863197ad57955f46d62f2af09390c233eed6143f2d",
    "out.mrc": "0c40b17ae20f86d450fab81c7f058d18f58da328cde4a716491e7ec5ee06faf3",
    "out.f32": "448b5cc0106ac8fa25f36af1b0805e0f3304aea2db63af8a8c05a8d8a519b20c",
    "prob.f32": "0863aec7c7d2e24dba126cd6dfc44510bbce67dc3dfcf26e3882a65ca64b46db",
    "prob.f32.json": "3e998b67efea37610d15fee3c2abc4adf995f9a4036fec7c12db0fbd0c688c18",
    "eval.json": "353aa4c1bd9039736ac3628c096c2b89eb24674d881b16aba44ffe24f0e4b299",
}

# sha256 of the f64 reconstruction of each container of the chain, recorded
# with the coord-table format the goldens above replaced
GOLDEN_CHAIN_DECODED = {
    "roi.mrc": "53d7be9debb45c9588e2322ac041178e596840d65c5e9ac86cbc0dc735f3e02d",
    "out.mrc": "5f7e873bb57aef54edb655846d4ee72ff6427f0d628e41d68c6a8c440c2c8913",
}


def test_cli_chain_golden_bytes(tmp_path):
    v = sum_of_gaussians((64, 64, 64), seed=16)
    raw = _write_raw(tmp_path, v, name="vol.f32", dtype="f32")
    out = {name: str(tmp_path / name) for name in GOLDEN_CHAIN}
    assert main(["roi", "--input", raw, "--dims", _dims_arg(v), "--block", "8", "--percent", "25",
                 "--out", out["roi.mrc"]]) == 0
    assert main(["compress", "--input", out["roi.mrc"], "--eb", "1e-3", "--lossless", "zlib",
                 "--post", "sz", "--out", out["out.mrc"]]) == 0
    assert main(["decompress", "--input", out["out.mrc"], "--uniform", "--out", out["out.f32"]]) == 0
    assert main(["uncertainty", "--input", out["out.mrc"], "--isovalue", "0.5",
                 "--out", out["prob.f32"]]) == 0
    assert main(["eval", "--orig", raw, "--dims", _dims_arg(v), "--recon", out["out.mrc"],
                 "--out", out["eval.json"]]) == 0
    digests = {name: hashlib.sha256(open(path, "rb").read()).hexdigest() for name, path in out.items()}
    assert digests == GOLDEN_CHAIN
    for name, want in GOLDEN_CHAIN_DECODED.items():
        rec = str(tmp_path / f"{name}.f64")
        assert main(["decompress", "--input", out[name], "--uniform", "--dtype", "f64", "--out", rec]) == 0
        assert hashlib.sha256(open(rec, "rb").read()).hexdigest() == want


# ------------------------------------------------------------- entry point


def test_module_entry_point_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "mrcompress.cli", "compress", "--no-such-flag"],
        capture_output=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-m", "mrcompress.cli"], capture_output=True)
    assert proc.returncode == 2
