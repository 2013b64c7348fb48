"""Block-Lorenzo codec: pinned output bytes and a scalar reference.

The golden digests were recorded when the codec moved from a closed-loop
coder to dual quantization; on every entry without literals the new codes,
put back in block order, are the closed-loop coder's, and the decoded values
differ from its output by float rounding only. Any change to the stream or
to the decoded values shows up here first. The reference restates the
codec's definition one cell at a time.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrcompress.codec import compress, decompress
from mrcompress.codec.entropy import entropy_decode
from mrcompress.codec.lorenzo import BLOCK_EDGE, VALUE_MARK
from mrcompress.codec.policy import ErrorBoundPolicy
from mrcompress.codec.quantize import CODE_CAP, LITERAL_MARK
from mrcompress.grid import Volume
from mrcompress.layout import MergedArray

from helpers import noisy_field, signed_zero_field, smooth_field


def _with_specials():
    """A 5x9x13 field whose every fourth cell is hard to predict, holding
    1e30, inf and nan; Volume refuses non-finite data, so it travels as a
    one-slot stacked merge."""
    arr = noisy_field((5, 9, 13), seed=40).data.copy()
    arr.reshape(-1)[::4] *= 1e6
    arr[0, 0, 0] = 1e30
    arr[3, 4, 2] = np.inf
    arr[7, 8, 4] = -np.inf
    arr[12, 1, 3] = np.nan
    return MergedArray(values=arr, k=1, u=1, arrangement="stacked")


GOLDEN_INPUTS = {
    "smooth96": (lambda: smooth_field((96, 96, 96)), 1e-4),
    "37x18x23": (lambda: smooth_field((37, 18, 23), seed=41, noise=0.01), 1e-3),
    "130x70x9": (lambda: noisy_field((130, 70, 9), seed=42), 1e-2),
    "1x1x1": (lambda: Volume(np.full((1, 1, 1), 0.7)), 1e-3),
    "3x2x1": (lambda: noisy_field((3, 2, 1), seed=43), 1e-3),
    "5x9x13-specials": (_with_specials, 1e-3),
    "signed-zeros": (lambda: signed_zero_field((13, 11, 9), seed=47), 1e-4),
}

# sha256 of (blob bytes, decoded little-endian f64 values)
GOLDEN = {
    "smooth96": (
        "ff6672cff69b9807bf7b6843f13d16936444159a6c52db8b45f81b2046eb41c7",
        "037ddc387f95486ba28a7e30050e8953ea5c89f19353037a4b137bef4e073591",
    ),
    "37x18x23": (
        "126f039588e2a7eef4af5ce0137bb24e138cdc1685d52dbb8b287180c4723711",
        "41fadbd5b3a7b1b589c1049d69123438d0bab5e9f181cec00526a11a985d130b",
    ),
    "130x70x9": (
        "c10272c3ed4ce3ed90b306514c19e866eab7d8788bcdebb64d227b12c95208b1",
        "4d18c7dd9c78339c6eb3cae942d95bda60533891b3fdb8cd68202f30b003dd12",
    ),
    "1x1x1": (
        "32711d12a026f28d84bbb73f8ede228d78c76f9e46066442528da7bbc7514705",
        "33c45d4d3b89c255dd6f3808d22d5d52163d35f32b8ae7ac0bd5b68366bccfe9",
    ),
    "3x2x1": (
        "adaf85b70b59dfec12f2ee7176e55089478698e5ae663f21f617f3b421d0e12e",
        "4fbc8d2ae0a6f9f2da2d82be4740b489ff8e07a988f651f49ed4a8a9479aac5e",
    ),
    "5x9x13-specials": (
        "1d79a571410b05c5f44d257ae9e8bf8a31f2706a36b8de7792120c554654145f",
        "600110308bca964157ecf668d2b208c60a9c1d9d6b81f48711d2779cc1e973eb",
    ),
    "signed-zeros": (
        "50b7b7f655b218b157665c63cef2314bb1cba2149374557254551591229ccb69",
        "b5bae670fc0cd700100d6d9d01de89d95b4be1ae583525db991c42703038ba0f",
    ),
}


def _digests(name):
    make, eb = GOLDEN_INPUTS[name]
    blob = compress(make(), ErrorBoundPolicy(eb=eb), "block")
    dec = decompress(blob)
    return (
        hashlib.sha256(blob.to_bytes()).hexdigest(),
        hashlib.sha256(dec.astype("<f8").tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_bytes(name):
    assert _digests(name) == GOLDEN[name]


def _reference(arr, eb):
    """Per-cell scalar dual-quantization coder: (codes, literals,
    reconstruction), codes and literals in C order."""
    step = 2.0 * eb
    edge = [min(BLOCK_EDGE, n) for n in arr.shape]
    block = lambda c: tuple(slice(i - i % e, i - i % e + e) for i, e in zip(c, edge))  # noqa: E731
    q = np.zeros(arr.shape)
    value = np.zeros(arr.shape, dtype=bool)
    for c in np.ndindex(*arr.shape):
        x = arr[c]
        with np.errstate(invalid="ignore", over="ignore"):
            qc = np.rint(x / step) + 0.0
            carried = abs(qc) <= 2.0**49 and abs(step * qc - x) <= eb
        if carried:
            q[c] = qc
        else:
            value[block(c)] = True
    q[value] = 0.0

    def at(c, d):
        """q at c - d, or zero across the start of c's block."""
        if any(ci % e < di for ci, di, e in zip(c, d, edge)):
            return 0.0
        return q[tuple(ci - di for ci, di in zip(c, d))]

    codes, lits = [], []
    out = step * q
    for c in np.ndindex(*arr.shape):
        if value[c]:
            codes.append(VALUE_MARK)
            lits.append(arr[c])
            out[c] = arr[c]
            continue
        # q minus the inclusion-exclusion sum over the lower neighbors
        r = sum((-1) ** sum(d) * at(c, d) for d in np.ndindex(2, 2, 2))
        if abs(r) <= CODE_CAP:
            codes.append(int(r))
        else:
            codes.append(LITERAL_MARK)
            lits.append(r)
    return np.array(codes, np.int32), np.array(lits, np.float64), out


def _stacked(arr):
    return MergedArray(values=arr, k=1, u=1, arrangement="stacked")


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.integers(1, 9)] * 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-1, 1e-3, 1e-9]),
    st.sampled_from([0.0, 1e30, np.inf, -np.inf, np.nan]),
)
# 2.171 / 2e-3 rounds to 1085, and 2.17 misses 2.171 by just over 1e-3
@example(dims=(7, 6, 5), seed=44, eb=1e-3, special=2.171)
def test_matches_scalar_reference(dims, seed, eb, special):
    nx, ny, nz = dims
    rng = np.random.default_rng(seed)
    arr = np.cumsum(rng.normal(size=(nz, ny, nx)), axis=2)
    if special:
        arr[tuple(rng.integers(0, n) for n in arr.shape)] = special
    blob, rec = compress(_stacked(arr), ErrorBoundPolicy(eb=eb), "block", recon=True)
    codes, lits = entropy_decode(blob.stream, blob.n_values)
    dec = decompress(blob)
    ref_codes, ref_lits, ref_out = _reference(arr, eb)
    assert np.array_equal(codes, ref_codes)
    assert lits.tobytes() == ref_lits.tobytes()
    assert dec.tobytes() == rec.tobytes() == ref_out.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_PEAK_FIELD = dict(dims=(96, 96, 96), seed=5, noise=1e-3)


def test_decode_peak_stays_near_the_output():
    # the output, which takes the codes as floats, next to the int32 codes
    # and whatever entropy decoding holds
    arr = smooth_field(**_PEAK_FIELD).data
    blob = compress(_stacked(arr), ErrorBoundPolicy(eb=1e-4), codec="block")
    assert _traced_peak(lambda: decompress(blob)) < 2.5 * arr.nbytes


def test_encode_peak_stays_below_twice_the_values():
    # the int32 codes, one block layer of work and entropy coding
    arr = smooth_field(**_PEAK_FIELD).data
    assert _traced_peak(lambda: compress(_stacked(arr), ErrorBoundPolicy(eb=1e-4), codec="block")) < 2.0 * arr.nbytes
