"""Interpolation codec: pinned output bytes.

The golden digests were recorded with the implementation whose encoder and
decoder each carried their own copy of the pass walk; any change to the
stream order, the predictor's evaluation order or the decoded values shows
up here first. The short-axis entries (2x9x9, 3x2x17, 1x2x33, 9x2x3) were
recorded with the dataclass-based schedule that preceded ``_axis_passes``.
"""

import hashlib

import numpy as np
import pytest

from mrcompress.codec import compress, decompress
from mrcompress.codec.entropy import LOSSLESS_NONE, LOSSLESS_ZLIB
from mrcompress.codec.policy import ErrorBoundPolicy
from mrcompress.grid import Volume
from mrcompress.layout import linear_merge, pad_linear, stack_merge
from mrcompress.pipeline import tile_volume

from helpers import smooth_field, sum_of_gaussians


def _padded_linear():
    v = sum_of_gaussians((32, 32, 32), seed=21)
    m = pad_linear(linear_merge(tile_volume(v, 8)))
    assert m.padded
    return m


def _stacked():
    return stack_merge(tile_volume(smooth_field((24, 16, 16), seed=22, noise=0.002), 8))


GOLDEN_INPUTS = {
    "linear-padded": (_padded_linear, ErrorBoundPolicy(eb=1e-3), LOSSLESS_NONE),
    "stacked": (_stacked, ErrorBoundPolicy(eb=1e-3), LOSSLESS_NONE),
    "adaptive-zlib": (
        lambda: smooth_field((40, 33, 20), seed=23, noise=0.001),
        ErrorBoundPolicy(eb=1e-3, adaptive=True),
        LOSSLESS_ZLIB,
    ),
    "37x18x23": (lambda: smooth_field((37, 18, 23), seed=41, noise=0.01), ErrorBoundPolicy(eb=1e-3), LOSSLESS_NONE),
    "1x1x1": (lambda: Volume(np.full((1, 1, 1), 0.7)), ErrorBoundPolicy(eb=1e-3), LOSSLESS_NONE),
    # 2- and 3-point axes and mixed lengths: an empty stride-1 pass still
    # counts toward its axis's depth, which sets the adaptive bounds and
    # the end alignment
    "2x9x9": (lambda: smooth_field((2, 9, 9), seed=42, noise=0.01), ErrorBoundPolicy(eb=1e-3, adaptive=True), LOSSLESS_NONE),
    "3x2x17": (lambda: smooth_field((3, 2, 17), seed=43, noise=0.01), ErrorBoundPolicy(eb=1e-3, adaptive=True), LOSSLESS_NONE),
    "1x2x33": (lambda: smooth_field((1, 2, 33), seed=44, noise=0.01), ErrorBoundPolicy(eb=1e-3, adaptive=True), LOSSLESS_NONE),
    "9x2x3": (lambda: smooth_field((9, 2, 3), seed=45, noise=0.01), ErrorBoundPolicy(eb=1e-3, adaptive=True), LOSSLESS_NONE),
}

# sha256 of (blob bytes, decoded little-endian f64 values)
GOLDEN = {
    "1x1x1": (
        "d03eddf5eca2030f98334017fce90620875378a2867e2d80316fd9cc9b99f7c5",
        "33c45d4d3b89c255dd6f3808d22d5d52163d35f32b8ae7ac0bd5b68366bccfe9",
    ),
    "1x2x33": (
        "9812a15bbe064315d539038fbb691cf7d004a4bf54f1a2b1ed968ee285eef18b",
        "7934d45b165b4d463946a5f8a103fa9fc33a3e8173b20b15eb293d77858c8c8b",
    ),
    "2x9x9": (
        "296a96e950a049e0398fcdf8e11a5c7abe793259bd0e8214b159d8942365ddbb",
        "77d5300af93a16cd0e9db0c4e23fde9d95fa88cc47f5260908df1a444c14a375",
    ),
    "3x2x17": (
        "b418031549ed3ccd43f30cc7443d7d788a6f5ab863855dbf216ebb6828de773f",
        "37109629cd2fb87875a2c61cda91c54b1c48d220757c38d6de13426cf79507f9",
    ),
    "37x18x23": (
        "30ca6475c5dae563d117baac717361436034634a6be2f3f6bbfc737af240f279",
        "0d4c25e3d84eddc0d2075486d4a59037cc68953a1ecea788aacc34d966cd8d56",
    ),
    "adaptive-zlib": (
        "f5d4f3c7738e7b5976934e6292f74fa62f77a08eb13b04f9fd58f11c245cef2c",
        "d58e75134240dcf87247128e746c9ac9059d2ed59260c608604d17f5d4e02b25",
    ),
    "9x2x3": (
        "ca98766bb107925543ea2fe7bbe3d6992cf648fa3b0caace7a74aba64458db57",
        "866c8d0244c2b3978978fd3e8651b51cc3ec1051bb45d4e697746a9006a11c8c",
    ),
    "linear-padded": (
        "f2ffce72f9458d377dbc75139e20f3d3e0e9ca65f6c1813c498f04aacab102b0",
        "1fbf02fdc109cf1a81c4f32ab7d51293b35512f35822aa79991bee3eeb2fe831",
    ),
    "stacked": (
        "347a1f941b34adf743d57436f9d1cbae2a5420ee3d276e92b3f3f4d5ed988bdd",
        "e4635c607dabe3ec66c62fdb827b6b8989ede8d767416bb976cc9e76b574d195",
    ),
}


def _values(out):
    return out.data if isinstance(out, Volume) else out.values


def _digests(name):
    make, policy, lossless = GOLDEN_INPUTS[name]
    blob = compress(make(), policy, "interp", lossless)
    dec = _values(decompress(blob))
    return (
        hashlib.sha256(blob.to_bytes()).hexdigest(),
        hashlib.sha256(dec.astype("<f8").tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_bytes(name):
    assert _digests(name) == GOLDEN[name]
