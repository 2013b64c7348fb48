"""Uniform quantization of prediction residuals with a literal escape.

Residuals map to integer codes on a grid of width 2*eb (round half away from
zero), which caps the pointwise reconstruction error at eb. Codes beyond
CODE_CAP, or reconstructions that fail the bound check in floating point,
fall back to storing the exact value; the code stream carries LITERAL_MARK
at those positions.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

CODE_CAP = 2**15
LITERAL_MARK = CODE_CAP + 1


def quantize_array(
    pred: np.ndarray, actual: np.ndarray, eb: float, cap: int = CODE_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector form: returns (codes int32, reconstruction, literal values).

    Reconstruction equals ``pred + 2*eb*code`` where a code was emitted and
    the exact input where the literal escape fired.
    """
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    resid = actual - pred
    grid = np.abs(resid) / (2.0 * eb) + 0.5
    mag = np.floor(grid)
    ok = mag <= cap  # catches inf/NaN magnitudes as well
    q = np.where(ok, np.where(resid < 0, -mag, mag), 0.0).astype(np.int64)
    recon = pred + (2.0 * eb) * q
    ok &= np.abs(recon - actual) <= eb
    codes = np.where(ok, q, LITERAL_MARK).astype(np.int32)
    recon = np.where(ok, recon, actual)
    return codes, recon, actual[~ok]


def dequantize_array(
    pred: np.ndarray, codes: np.ndarray, eb: float, literal_values: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`quantize_array` for one batch; ``literal_values``
    must be ordered like the marks in ``codes``."""
    recon = pred + (2.0 * eb) * codes
    marks = codes == LITERAL_MARK
    n = int(marks.sum())
    if n != literal_values.size:
        raise ShapeError(f"{n} literal marks but {literal_values.size} values")
    if n:
        recon[marks] = literal_values
    return recon
