"""The benchmark's traced run wraps mrcompress functions at the module
attributes their callers look them up through. A rename or a moved call
site would make ``perfbench/run.py --trace 1`` crash; this test fails first.
"""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Recorder:
    """Stands in for the tracer: checks each target and modifies nothing."""

    def __init__(self):
        self.targets = []

    def wrap(self, owner, attr, name, count=None, mem=False):
        inspect.getattr_static(owner, attr)  # AttributeError when gone
        assert callable(getattr(owner, attr)), (owner, attr)
        self.targets.append((owner.__name__, attr, name))


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    rec = _Recorder()
    layers.install(rec)
    assert len(rec.targets) == len(set(rec.targets)) > 40
    # the span names the per-layer metrics read are among the wrapped ones
    names = {name for _, _, name in rec.targets}
    assert {"interp.encode", "entropy.decode", "layout.pad", "codec.decompress"} <= names


class _CallRecorder:
    """Wraps each target the way the tracer does, through ``monkeypatch``
    so the wrapping is undone after the test, and counts its calls."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}

    def wrap(self, owner, attr, name, count=None, mem=False):
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        key = f"{owner.__name__}.{attr}"
        self.calls[key] = 0

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        # a classmethod fetched from its class is already bound to it
        self.monkeypatch.setattr(owner, attr, staticmethod(wrapper) if isinstance(static, classmethod) else wrapper)


def test_every_traced_attribute_is_called(tmp_path, monkeypatch):
    import numpy as np

    from mrcompress import cli, container, metrics, pipeline, uncertainty
    from mrcompress.codec import ErrorBoundPolicy
    from mrcompress.grid import write_raw_volume
    from mrcompress.roi import RoiConfig, build_adaptive, select_roi

    from helpers import sum_of_gaussians

    monkeypatch.syspath_prepend(str(PERFBENCH))
    rec = _CallRecorder(monkeypatch)
    importlib.import_module("layers").install(rec)

    v = sum_of_gaussians((64, 64, 64), seed=16)
    w = lambda f: str(tmp_path / f)  # noqa: E731
    write_raw_volume(v, w("v.f32"))
    d = "64,64,64"
    for argv in (
        ["roi", "--input", w("v.f32"), "--dims", d, "--block", "8", "--percent", "25", "--out", w("roi.mrc")],
        ["compress", "--input", w("roi.mrc"), "--eb", "1e-3", "--lossless", "zlib", "--post", "sz",
         "--out", w("out.mrc")],
        ["decompress", "--input", w("out.mrc"), "--uniform", "--out", w("out.f32")],
        ["uncertainty", "--input", w("out.mrc"), "--isovalue", "0.5", "--out", w("prob.f32")],
        ["eval", "--orig", w("v.f32"), "--dims", d, "--recon", w("out.mrc"), "--out", w("eval.json")],
        ["compress", "--input", w("roi.mrc"), "--eb", "1e-3", "--codec", "block", "--arrangement", "stacked",
         "--out", w("stacked.mrc")],
    ):
        assert cli.main(argv) == 0, argv

    # the library entry points the benchmark calls through their modules
    small = sum_of_gaussians((24, 24, 24), seed=17)
    for codec in ("interp", "block"):
        arch = pipeline.compress_volume(small, ErrorBoundPolicy(eb=1e-3), codec=codec)
        back = pipeline.decompress_volume(arch)
    cfg = RoiConfig(b=8, x_percent=25.0)
    ds = build_adaptive(small, select_roi(small, cfg), cfg)
    container.write_container(container.container_from_dataset(ds, arrangement="stacked"), w("s.mrc"))
    errors = uncertainty.sample_errors(small.data, back.data)
    model = uncertainty.fit_model(errors, back.data.reshape(-1), 0.5)
    uncertainty.probability_field(back, 0.5, model)
    metrics.psnr(small, back), metrics.ssim(small, back)

    assert np.fromfile(w("prob.f32"), dtype="<f4").size == 63**3
    assert [key for key, n in rec.calls.items() if n == 0] == []
