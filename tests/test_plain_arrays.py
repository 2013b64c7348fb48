"""A decoded level is one plain array.

The codec envelope returns the coder's (z, y, x) float64 array and the blob
records the layout, so the decode path never dispatches on a container
type: a Level or a Volume is built only at the API edges.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest

from mrcompress.codec import ErrorBoundPolicy
from mrcompress.codec.stored import STORED_POLICY
from mrcompress.pipeline import compress_level, compress_volume, decode_level

from helpers import sum_of_gaussians, tile_volume

SRC = Path(__file__).resolve().parent.parent / "src" / "mrcompress"


@cache
def _archives():
    v = sum_of_gaussians((32, 32, 32), seed=21)
    level = tile_volume(v, 8)
    p = ErrorBoundPolicy(eb=1e-3)
    return {
        "whole volume": (compress_volume(v, p), (32, 32, 32)),
        "padded linear, sz post": (compress_level(level, p, post_family="sz"), (8 * 64, 8, 8)),
        "stacked": (compress_level(level, p, codec="block", arrangement="stacked"), (32, 32, 32)),
        "stored": (compress_level(level, STORED_POLICY, codec="stored"), (8 * 64, 8, 8)),
    }


@pytest.mark.parametrize("kind", sorted(_archives()))
def test_decode_level_returns_one_float64_array(kind):
    archive, shape = _archives()[kind]
    assert archive.blob.padded == (kind == "padded linear, sz post")
    assert (archive.post is not None) == (kind == "padded linear, sz post")
    dec = decode_level(archive)
    assert type(dec) is np.ndarray and dec.dtype == np.float64
    assert dec.shape == shape


@pytest.mark.parametrize("name", ["pipeline.py", "postprocess.py"])
def test_decode_path_has_no_type_dispatch(name):
    assert "isinstance(" not in (SRC / name).read_text()
