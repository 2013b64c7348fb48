"""Uniform quantization of prediction residuals with a literal escape.

Residuals map to integer codes on a grid of width 2*eb (round half away from
zero), which caps the pointwise reconstruction error at eb. Codes beyond
CODE_CAP, or reconstructions that fail the bound check in floating point,
fall back to storing the exact value; the code stream carries LITERAL_MARK
at those positions. The reconstruction is pred + 2*eb*code with the code as
a float, and a zero code is +0.0 (never -0.0), as the decoder's float(0) is:
a -0.0 prediction then reconstructs to +0.0 on both sides.
"""

from __future__ import annotations

import numpy as np

CODE_CAP = 2**15
LITERAL_MARK = CODE_CAP + 1


def quantize_array(pred: np.ndarray, actual: np.ndarray, eb: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector form: returns (codes int32, reconstruction, literal values).

    Reconstruction equals ``pred + 2*eb*code`` where a code was emitted and
    the exact input where the literal escape fired.
    """
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    resid = np.subtract(actual, pred)
    mag = np.abs(resid)
    mag /= 2.0 * eb
    mag += 0.5
    np.floor(mag, out=mag)
    ok = mag <= CODE_CAP  # catches inf/NaN magnitudes as well
    if not ok.all():
        mag[~ok] = 0.0
    np.copysign(mag, resid, out=mag)
    mag += 0.0  # a zero code is +0.0, never -0.0
    recon = np.multiply(mag, 2.0 * eb, out=resid)
    recon += pred
    codes = mag.astype(np.int32)
    err = np.subtract(recon, actual, out=mag)
    np.abs(err, out=err)
    ok &= err <= eb
    if ok.all():
        return codes, recon, np.empty(0)
    bad = ~ok
    codes[bad] = LITERAL_MARK
    lits = actual[bad]
    recon[bad] = lits
    return codes, recon, lits
