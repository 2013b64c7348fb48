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
