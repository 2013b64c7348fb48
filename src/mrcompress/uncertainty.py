"""Isosurface uncertainty induced by lossy compression.

Compression errors near the isovalue are modeled as a single Normal(mu,
sigma^2) fitted from sampled errors. Treating the eight corners of a grid
cell as independent draws around their decompressed values gives the
probability that an isosurface crosses the cell: one minus the probability
that all corners fall below the isovalue, minus the probability that all
fall above. With sigma = 0 the field degenerates to the deterministic
marching-cubes crossing test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ShapeError
from .grid import Dims, Volume

DEFAULT_WINDOW = 0.05
_MAX_WIDENINGS = 4
_SLAB_CELLS = 16  # cell planes per slab of probability_field


@dataclass(frozen=True)
class ErrorModel:
    """Normal error model fitted near one isovalue."""

    mu: float
    sigma2: float
    isovalue: float
    window: float  # half-width actually used, as a fraction of the data range
    n_samples: int
    fallback: bool = False  # True when widening failed and all samples were used

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))


def sample_errors(orig_sample, decomp_sample) -> np.ndarray:
    """Pointwise original-minus-decompressed over one region or a list of
    matched regions."""
    if isinstance(orig_sample, (list, tuple)):
        if len(orig_sample) != len(decomp_sample):
            raise ShapeError("sample region lists differ in length")
        parts = []
        for o, d in zip(orig_sample, decomp_sample):
            o = np.asarray(o, dtype=np.float64)
            d = np.asarray(d, dtype=np.float64)
            if o.shape != d.shape:
                raise ShapeError(f"region shapes differ: {o.shape} vs {d.shape}")
            parts.append((o - d).reshape(-1))
        return np.concatenate(parts) if parts else np.zeros(0)
    o = np.asarray(orig_sample, dtype=np.float64)
    d = np.asarray(decomp_sample, dtype=np.float64)
    if o.shape != d.shape:
        raise ShapeError(f"sample shapes differ: {o.shape} vs {d.shape}")
    return (o - d).reshape(-1)


def fit_model(
    errors: np.ndarray,
    values: np.ndarray,
    isovalue: float,
    window: float = DEFAULT_WINDOW,
) -> ErrorModel:
    """Fit mean and unbiased variance from errors whose paired values lie
    within ``window`` (fraction of the value range) of the isovalue.

    A window catching fewer than two samples is doubled up to four times;
    if that still fails, all samples are used and the model is flagged.
    """
    errors = np.asarray(errors, dtype=np.float64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if errors.size != values.size:
        raise ShapeError("errors and values must pair up one to one")
    if errors.size < 2:
        raise ShapeError("need at least two error samples")
    if not (window > 0):
        raise ShapeError(f"window must be positive, got {window}")
    vrange = float(values.max() - values.min())
    w = window
    for _ in range(_MAX_WIDENINGS + 1):
        half = w * vrange
        sel = np.abs(values - isovalue) <= half
        if int(sel.sum()) >= 2:
            picked = errors[sel]
            return ErrorModel(
                mu=float(picked.mean()),
                sigma2=float(picked.var(ddof=1)),
                isovalue=float(isovalue),
                window=w,
                n_samples=int(picked.size),
            )
        w *= 2.0
    return ErrorModel(
        mu=float(errors.mean()),
        sigma2=float(errors.var(ddof=1)),
        isovalue=float(isovalue),
        window=w / 2.0,
        n_samples=int(errors.size),
        fallback=True,
    )


def _below_probability(values, isovalue: float, model: ErrorModel) -> np.ndarray:
    """P(corner true value < isovalue) per corner."""
    centered = np.asarray(values, dtype=np.float64) + model.mu
    if model.sigma2 > 0.0:
        return ndtr((isovalue - centered) / model.sigma)
    return (centered < isovalue).astype(np.float64)


@dataclass(frozen=True)
class ProbabilityField:
    """Per-cell crossing probabilities on the dual grid of a volume."""

    p: np.ndarray  # shape (nz-1, ny-1, nx-1)
    isovalue: float
    model: ErrorModel

    def __post_init__(self):
        arr = np.ascontiguousarray(self.p, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError("probability payload must be 3D")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @property
    def dims(self) -> Dims:
        dz, dy, dx = self.p.shape
        return (dx, dy, dz)


def _corner_product(a: np.ndarray) -> np.ndarray:
    """Product of the eight corner values of every cell, formed as three
    pairwise products: along x, then y, then z."""
    a = a[:, :, :-1] * a[:, :, 1:]
    a = a[:, :-1] * a[:, 1:]
    return a[:-1] * a[1:]


def probability_field(decomp: Volume, isovalue: float, model: ErrorModel) -> ProbabilityField:
    """Crossing probability for every cell of the volume.

    The field is built in z-slabs of ``_SLAB_CELLS`` cell planes, each
    reading one more point plane than it has cell planes, into one
    preallocated output, so the temporaries are slab-sized; the operations
    per cell are those of a whole-volume pass."""
    if min(decomp.dims) < 2:
        raise ShapeError(f"need at least 2 points per axis, got dims {decomp.dims}")
    nz, ny, nx = decomp.data.shape
    p = np.empty((nz - 1, ny - 1, nx - 1))
    for z in range(0, nz - 1, _SLAB_CELLS):
        q = _below_probability(decomp.data[z : z + _SLAB_CELLS + 1], isovalue, model)
        below = _corner_product(q)
        above = _corner_product(np.subtract(1.0, q, out=q))
        out = np.subtract(1.0, below, out=p[z : z + _SLAB_CELLS])
        out -= above
    np.clip(p, 0.0, 1.0, out=p)
    return ProbabilityField(p=p, isovalue=float(isovalue), model=model)


def sidecar_json(field: ProbabilityField) -> bytes:
    """The JSON sidecar of a probability field: dims and the fitted model."""
    sidecar = {
        "dims": list(field.dims),
        "isovalue": field.isovalue,
        "mu": field.model.mu,
        "sigma2": field.model.sigma2,
    }
    return (json.dumps(sidecar, indent=2) + "\n").encode()


def write_probability_field(field: ProbabilityField, path) -> None:
    """Write the field as raw little-endian f32 (x fastest) plus a JSON
    sidecar at ``path + ".json"`` describing dims and the fitted model."""
    field.p.astype("<f4").tofile(path)
    with open(str(path) + ".json", "wb") as fh:
        fh.write(sidecar_json(field))
