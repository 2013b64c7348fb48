"""Interpolation codec: pinned output bytes.

The golden digests were recorded with the implementation whose encoder and
decoder each carried their own copy of the pass walk; any change to the
stream order, the predictor's evaluation order or the decoded values shows
up here first.
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
}

# sha256 of (blob bytes, decoded little-endian f64 values)
GOLDEN = {
    "1x1x1": (
        "d03eddf5eca2030f98334017fce90620875378a2867e2d80316fd9cc9b99f7c5",
        "33c45d4d3b89c255dd6f3808d22d5d52163d35f32b8ae7ac0bd5b68366bccfe9",
    ),
    "37x18x23": (
        "30ca6475c5dae563d117baac717361436034634a6be2f3f6bbfc737af240f279",
        "0d4c25e3d84eddc0d2075486d4a59037cc68953a1ecea788aacc34d966cd8d56",
    ),
    "adaptive-zlib": (
        "f5d4f3c7738e7b5976934e6292f74fa62f77a08eb13b04f9fd58f11c245cef2c",
        "d58e75134240dcf87247128e746c9ac9059d2ed59260c608604d17f5d4e02b25",
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
