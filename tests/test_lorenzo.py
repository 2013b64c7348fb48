"""Block-Lorenzo codec: pinned output bytes and a scalar reference.

The golden digests were recorded with the per-block implementation that
preceded the cell-major kernel; any change to the stream or to the decoded
values shows up here first. The signed-zero entry was recorded with the
out-of-place quantizer that preceded the in-place one. The blob digest of
the one tiled entry (5x9x13-specials) was re-recorded when blobs stopped
carrying block coordinates; its decoded values did not change.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcompress.codec import compress, decompress
from mrcompress.codec.entropy import entropy_decode
from mrcompress.codec.lorenzo import BLOCK_EDGE
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
        "a39f3cfd76d897e4f80a0c396087e1d4bb3072ce227e164497e181904295cac1",
        "af0ab8c16bf9148b302fcb3e611ff5b18eefbe6d06d65e414203a88e379e8dbe",
    ),
    "37x18x23": (
        "12cbc4766632c27101cd15958391076dcf9d6181834ef1d04c8e1d373e7e94d0",
        "444922df8c6ad56981c8bd9e9a97ff61a266dd7e7cdecf756ea060d7226dc7be",
    ),
    "130x70x9": (
        "db16db5a066465f30e9f06b01a48cb81db833b61180ad9cdab9b34efb1960e41",
        "0e701e3b766014150b30eb8a6003ba9452f6ac3de0c032b222c9a1fe9a3bf5b4",
    ),
    "1x1x1": (
        "05ba203d834664126d1afb8739c0418b3023aee8be253e8fa49ed401e952d35e",
        "33c45d4d3b89c255dd6f3808d22d5d52163d35f32b8ae7ac0bd5b68366bccfe9",
    ),
    "3x2x1": (
        "14fb8caa16be1dc4fb72039e4c30895e1a7602804d9aae090622e8406d993be4",
        "7f3313a5db79d4fa3755086354c8b5e36cd430d8f0ed64aafe86b4f9be58d3c6",
    ),
    "5x9x13-specials": (
        "e883808c7efd2104af1600b6cc8a4646c47d22621be5b0851db736b7a6bc7b08",
        "16e30f11eb01b06709e89908835ad85fcf15505f6ff07c778d6acfef73d5d7e4",
    ),
    "signed-zeros": (
        "c2d9266e1cc79296a064c9f88ad29bfdbb5ce7d33a028ba688c8cb5028c23f13",
        "44dd8d701449a494e1d73dd024ba14ca87c84e165e84a914f48dbd5d0efa76a6",
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
    """Per-block scalar Lorenzo coder: (codes, literals, reconstruction),
    blocks in (z, y, x) order, each block's cells in (z, y, x) order."""
    nz, ny, nx = arr.shape
    codes, lits = [], []
    out = np.empty_like(arr)
    e = BLOCK_EDGE
    for oz in range(0, nz, e):
        for oy in range(0, ny, e):
            for ox in range(0, nx, e):
                blk = arr[oz : oz + e, oy : oy + e, ox : ox + e]
                w = np.zeros([s + 1 for s in blk.shape])  # zero halo at index 0
                for z, y, x in np.ndindex(*blk.shape):
                    pred = (
                        w[z + 1, y + 1, x] + w[z + 1, y, x + 1] + w[z, y + 1, x + 1]
                        - w[z + 1, y, x] - w[z, y + 1, x] - w[z, y, x + 1] + w[z, y, x]
                    )
                    actual = blk[z, y, x]
                    resid = actual - pred
                    mag = np.floor(np.abs(resid) / (2.0 * eb) + 0.5)
                    q = int(np.copysign(mag, resid)) if mag <= CODE_CAP else None
                    rec = pred + (2.0 * eb) * q if q is not None else actual
                    if q is None or not np.abs(rec - actual) <= eb:
                        codes.append(LITERAL_MARK)
                        lits.append(actual)
                        rec = actual
                    else:
                        codes.append(q)
                    w[z + 1, y + 1, x + 1] = rec
                out[oz : oz + e, oy : oy + e, ox : ox + e] = w[1:, 1:, 1:]
    return np.array(codes, np.int32), np.array(lits, np.float64), out


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.integers(1, 9)] * 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-1, 1e-3, 1e-9]),
    st.sampled_from([0.0, 1e30, np.inf, -np.inf, np.nan]),
)
def test_matches_scalar_reference(dims, seed, eb, special):
    nx, ny, nz = dims
    rng = np.random.default_rng(seed)
    arr = np.cumsum(rng.normal(size=(nz, ny, nx)), axis=2)
    if special:
        arr[tuple(rng.integers(0, n) for n in arr.shape)] = special
    m = MergedArray(values=arr, k=1, u=1, arrangement="stacked")
    blob = compress(m, ErrorBoundPolicy(eb=eb), "block")
    codes, lits = entropy_decode(blob.stream, blob.n_values)
    dec = decompress(blob)
    ref_codes, ref_lits, ref_out = _reference(arr, eb)
    assert np.array_equal(codes, ref_codes)
    assert lits.tobytes() == ref_lits.tobytes()
    assert dec.tobytes() == ref_out.tobytes()


def test_decode_peak_stays_near_the_output():
    # the halo array w (about 1.95x the values) and the scattered output;
    # the int32 codes and their cell-major copy are dropped before the scatter
    arr = smooth_field((96, 96, 96), seed=5, noise=1e-3).data
    blob = compress(MergedArray(values=arr, k=1, u=1, arrangement="stacked"), ErrorBoundPolicy(eb=1e-4), codec="block")
    tracemalloc.start()
    try:
        out = decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3 * arr.nbytes
