"""One benchmark run of one workload, in a fresh process.

``run.py`` generates the inputs, pins the thread settings and starts this
script. Each iteration runs the workload's chain of ops once; iterations
repeat until the next one would end past ``--seconds`` (at least two). Every
op's output is checked, and times, checks and counts go as JSON to
``--result``. The first iteration is a warm-up: it is checked but not
timed.

An op is one CLI command or one library step, timed from outside. It fails
if it raises, exits nonzero or fails its output check. Checks run outside
the timed region, with tracing paused.

An op's time is counted in reference CPU seconds (see ``calibrate.py``):
its user and kernel CPU time, all threads of the process, each scaled by
the machine's speed at that kind of work, measured between iterations. An
op's reported time is the interquartile mean of that over its runs after
the warm-up: the mean of the middle half, which ignores stalls of single
runs and does not jump between the two modes that allocation-heavy ops
show. Raw wall times go to the result as well.

With ``--trace 1`` iterations after the warm-up alternate traced and
untraced; the traced ones give the per-layer metrics. Their span times are
wall times, each traced iteration's scaled by its reference CPU seconds
over its wall time. The tracing overhead is the ratio of the reference CPU
seconds of traced iterations to that of untraced ones.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import fields
import layers
from calibrate import Calibration
from tracing import Tracer, summarize

import mrcompress.cli as cli
import mrcompress.container as container
import mrcompress.metrics as metrics
import mrcompress.pipeline as pipeline
import mrcompress.uncertainty as uncertainty
from mrcompress.codec import ErrorBoundPolicy
from mrcompress.grid import Volume
from mrcompress.roi import reconstruct_uniform

ISOVALUE = 0.5
WARMUP = 1
CAL_PER_ITERATION = 2


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _psnr(ref, out):
    """PSNR in dB with the reference's value range as the peak."""
    mse = float(np.mean((ref - out) ** 2))
    return 20.0 * np.log10(float(ref.max() - ref.min()) / np.sqrt(mse))


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def interquartile_mean(xs):
    xs = sorted(xs)
    q = len(xs) // 4
    return statistics.fmean(xs[q:len(xs) - q])


class Run:
    """Times ops, runs their checks and counts failures."""

    def __init__(self, tracer, peak_after):
        self.tracer = tracer
        self.peak_after = peak_after
        self.peak_rss_mb = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # op -> [(iteration, wall s, user s, system s)], CPU of all threads
        self.samples = {}
        self.digests = {}
        self.iteration = 0

    def op(self, name, fn, check):
        """Time and check ``fn`` once; returns False if it failed."""
        self.attempted += 1
        try:
            with self.tracer.op_span(name):
                r0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = perf_counter()
                result = fn()
                dt = perf_counter() - t0
                r1 = resource.getrusage(resource.RUSAGE_SELF)
            if name == self.peak_after and self.peak_rss_mb is None:
                self.peak_rss_mb = _peak_rss_mb()
            with self.tracer.paused():
                check(result)
        except Exception as exc:  # any failure of the program or its check counts
            self.failed += 1
            self.errors.append(f"iteration {self.iteration} op {name}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return False
        if self.iteration >= WARMUP:
            self.samples.setdefault(name, []).append(
                (self.iteration, dt, r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime))
        return True

    def same_bytes(self, key, data):
        """Outputs must be byte-identical across iterations."""
        d = _digest(data)
        first = self.digests.setdefault(key, d)
        _require(d == first, f"{key} differs from the first iteration's bytes")


class CliRoi:
    """The user's full CLI path on an f32 field of 12 Gaussian bumps."""

    name = "cli-roi"
    dims = (fields.EDGE[name],) * 3
    eb = 1e-3
    peak_after = "eval"

    def __init__(self, workdir):
        self.w = lambda f: os.path.join(workdir, f)
        nx, ny, nz = self.dims
        self.orig = np.fromfile(self.w("field.f32"), dtype="<f4").astype(np.float64).reshape(nz, ny, nx)
        self.ref = None
        self.ctx = {}
        self.quality = {}

    def iteration(self, run):
        d = ",".join(map(str, self.dims))
        steps = [
            ("roi", ["roi", "--input", self.w("field.f32"), "--dims", d, "--block", "16",
                     "--percent", "20", "--out", self.w("roi.mrc")], self.check_roi),
            ("compress", ["compress", "--input", self.w("roi.mrc"), "--codec", "interp",
                          "--eb", repr(self.eb), "--lossless", "zlib", "--post", "sz",
                          "--out", self.w("out.mrc")], self.check_compress),
            ("decompress", ["decompress", "--input", self.w("out.mrc"), "--uniform",
                            "--out", self.w("out.f32")], self.check_decompress),
            ("uncertainty", ["uncertainty", "--input", self.w("out.mrc"), "--isovalue",
                             repr(ISOVALUE), "--out", self.w("prob.f32")], self.check_uncertainty),
            ("eval", ["eval", "--orig", self.w("field.f32"), "--dims", d, "--recon",
                      self.w("out.mrc"), "--out", self.w("eval.json")], self.check_eval),
        ]
        for name, argv, check in steps:
            def checked(rc, check=check):
                _require(rc == 0, f"exit code {rc}")
                check(run)

            if not run.op(name, lambda argv=argv: cli.main(argv), checked):
                return False
        return True

    def _read(self, f):
        with open(self.w(f), "rb") as fh:
            return fh.read()

    def check_roi(self, run):
        data = self._read("roi.mrc")
        run.same_bytes("roi.mrc", data)
        if self.ref is None:
            c = container.decode_container(data)
            self.ref = reconstruct_uniform(container.dataset_from_container(c)).data
            gx, gy, gz = (n // c.roi_b for n in self.dims)
            self.fine = c.roi_mask.reshape(gz, gy, gx)
            self.ctx["levels"] = c.n_levels

    def check_compress(self, run):
        data = self._read("out.mrc")
        run.same_bytes("out.mrc", data)
        if "bands" not in self.ctx:
            c = container.decode_container(data)
            _require(c.n_levels == 2 and c.levels[0].archive.u == 16, "expected a fine u=16 and a coarse level")
            # band of the bound widened by post-processing, per level
            self.ctx["bands"] = [self.eb * (1.0 + sum(lv.archive.post.chosen)) for lv in c.levels]
            bare = dataclasses.replace(c, levels=tuple(
                dataclasses.replace(lv, archive=dataclasses.replace(lv.archive, samples=None))
                for lv in c.levels))
            self.ctx["sample_bytes_frac"] = (len(data) - len(container.encode_container(bare))) / len(data)
        self.quality["bits_per_value"] = 8.0 * len(data) / self.orig.size

    def check_decompress(self, run):
        data = self._read("out.f32")
        run.same_bytes("out.f32", data)
        out = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(self.orig.shape)
        err = np.abs(out - self.ref)
        b = 16
        gz, gy, gx = self.fine.shape
        block_err = err.reshape(gz, b, gy, b, gx, b).max(axis=(1, 3, 5))
        band = np.where(self.fine, self.ctx["bands"][0], self.ctx["bands"][1])
        worst = float((block_err / band).max())
        _require(worst <= 1.0, f"output leaves the post-processing band by {worst:.6g}x")
        self.quality["max_err_over_eb"] = float(err.max()) / self.eb
        self.quality["psnr_db"] = _psnr(self.orig, out)

    def check_uncertainty(self, run):
        data = self._read("prob.f32")
        run.same_bytes("prob.f32", data)
        p = np.frombuffer(data, dtype="<f4")
        cells = [n - 1 for n in self.dims]
        _require(p.size == np.prod(cells), f"probability field holds {p.size} cells")
        _require(bool(((p >= 0) & (p <= 1)).all()), "probabilities outside [0, 1]")
        with open(self.w("prob.f32.json")) as fh:
            _require(json.load(fh)["dims"] == cells, "sidecar dims wrong")

    def check_eval(self, run):
        data = self._read("eval.json")
        run.same_bytes("eval.json", data)
        report = json.loads(data)
        _require(isinstance(report["psnr_db"], float) and np.isfinite(report["psnr_db"]), "psnr not finite")
        _require(0.0 < report["ssim"] <= 1.0, f"ssim {report['ssim']} out of range")

    def op_metrics(self, t):
        """End-to-end metrics from the time of each op."""
        mb = self.orig.size * 8 / 1e6
        return {
            "compress_MBps": mb / (t["roi"] + t["compress"]),
            "decompress_MBps": mb / t["decompress"],
            "uncertainty_s": t["uncertainty"],
            "eval_s": t["eval"],
        }


class VolumeCodec:
    """Library write and read path of one whole volume, then the analyst's
    uncertainty field and quality report on the decoded volume."""

    peak_after = "decompress"

    def __init__(self, workdir, name, codec, eb):
        self.name = name
        self.codec = codec
        self.eb = eb
        self.vol = Volume(np.load(os.path.join(workdir, "field.npy")))
        self.orig = self.vol.data
        self.ctx = {"levels": 1, "sample_bytes_frac": 0.0}
        self.quality = {}

    def iteration(self, run):
        policy = ErrorBoundPolicy(self.eb)
        box = {}

        def write():
            arch = pipeline.compress_volume(self.vol, policy, codec=self.codec)
            box["file"] = container.encode_container(
                container.ContainerFile(levels=(container.ContainerLevel(archive=arch),)))
            return box["file"]

        def read():
            c = container.decode_container(box["file"])
            box["recon"] = pipeline.decompress_volume(c.levels[0].archive)
            return box["recon"]

        def prob():
            recon = box["recon"]
            errors = uncertainty.sample_errors(self.orig, recon.data)
            model = uncertainty.fit_model(errors, recon.data.reshape(-1), ISOVALUE)
            return uncertainty.probability_field(recon, ISOVALUE, model)

        def evaluate():
            return metrics.psnr(self.vol, box["recon"]), metrics.ssim(self.vol, box["recon"])

        return (run.op("compress", write, lambda f: self.check_file(run, f))
                and run.op("decompress", read, lambda v: self.check_recon(run, v))
                and run.op("uncertainty", prob, lambda p: self.check_prob(run, p))
                and run.op("eval", evaluate, lambda q: self.check_eval(run, q)))

    def check_file(self, run, data):
        run.same_bytes("file", data)
        self.quality["bits_per_value"] = 8.0 * len(data) / self.orig.size

    def check_recon(self, run, recon):
        run.same_bytes("recon", recon.data.tobytes())
        worst = float(np.abs(recon.data - self.orig).max()) / self.eb
        _require(worst <= 1.0, f"max error {worst:.9g} x eb exceeds the bound")
        self.quality["max_err_over_eb"] = worst
        self.quality["psnr_db"] = _psnr(self.orig, recon.data)

    def check_prob(self, run, field):
        run.same_bytes("prob", field.p.tobytes())
        nx, ny, nz = self.vol.dims
        _require(field.dims == (nx - 1, ny - 1, nz - 1), f"probability dims {field.dims}")
        _require(bool(((field.p >= 0) & (field.p <= 1)).all()), "probabilities outside [0, 1]")

    def check_eval(self, run, q):
        p, s = q
        run.same_bytes("eval", repr(q).encode())
        _require(np.isfinite(p), "psnr not finite")
        _require(0.0 < s <= 1.0, f"ssim {s} out of range")

    def op_metrics(self, t):
        """End-to-end metrics from the time of each op."""
        mb = self.orig.size * 8 / 1e6
        return {
            "compress_MBps": mb / t["compress"],
            "decompress_MBps": mb / t["decompress"],
            "uncertainty_s": t["uncertainty"],
            "eval_s": t["eval"],
        }


def make_workload(name, workdir):
    if name == "cli-roi":
        return CliRoi(workdir)
    if name == "volume-interp":
        return VolumeCodec(workdir, name, "interp", 1e-3)
    if name == "volume-block":
        return VolumeCodec(workdir, name, "block", 1e-4)
    raise SystemExit(f"unknown workload {name!r}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.workdir)
    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    run = Run(tracer, wl.peak_after)
    cal = Calibration()
    start = perf_counter()
    while True:
        traced = bool(args.trace) and run.iteration >= WARMUP and run.iteration % 2 == WARMUP % 2
        tracer.enabled = traced
        tracer.iteration = run.iteration
        t0 = perf_counter()
        ok = wl.iteration(run)
        tracer.enabled = False
        elapsed = perf_counter() - start
        run.iteration += 1
        if not ok:
            break
        cal.sample(CAL_PER_ITERATION)
        timed = run.iteration - WARMUP
        enough = timed >= 2 if args.trace else timed >= 1
        if enough and elapsed + (perf_counter() - t0) > args.seconds:
            break

    result = {
        "workload": wl.name,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "iterations": run.iteration,
        "warmup": WARMUP,
        "op_samples": run.samples,
        "calibration": cal.summary(),
    }
    if run.failed == 0:
        cost = {op: [(i, w, cal.seconds(u, k)) for i, w, u, k in v] for op, v in run.samples.items()}
        result["raw_end_to_end"] = wl.op_metrics(
            {op: interquartile_mean([w for _, w, _ in v]) for op, v in cost.items()})
        e2e = wl.op_metrics({op: interquartile_mean([c for _, _, c in v]) for op, v in cost.items()})
        e2e.update(wl.quality)
        e2e["peak_rss_MB"] = run.peak_rss_mb
        result["end_to_end"] = e2e
        iter_wall, iter_cost = {}, {}
        for v in cost.values():
            for i, w, c in v:
                iter_wall[i] = iter_wall.get(i, 0.0) + w
                iter_cost[i] = iter_cost.get(i, 0.0) + c
    if args.trace and run.failed == 0:
        traced_ids = sorted({s.iteration for s in tracer.spans})
        iters = [layers.TracedIteration([s for s in tracer.spans if s.iteration == i], wl.ctx)
                 for i in traced_ids]
        rows = []
        for i, it in zip(traced_ids, iters):
            row = layers.layer_metrics(it)
            f = iter_cost[i] / iter_wall[i]
            rows.append({k: v * f if k.endswith("_s") else v for k, v in row.items()})
        per_layer = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        untraced = [c for i, c in iter_cost.items() if i not in traced_ids]
        per_layer["trace.overhead_frac"] = (
            statistics.median(iter_cost[i] for i in traced_ids) / statistics.median(untraced) - 1.0)
        result["per_layer"] = per_layer
        result["spans"] = summarize(iters[-1].spans)
        by_op = {}
        for sp in iters[-1].spans:
            if sp.name == "codec.decompress":
                by_op[sp.op] = by_op.get(sp.op, 0) + sp.counts["coded"] / wl.ctx["levels"]
        result["codec_decodes_per_level_by_op"] = by_op
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
