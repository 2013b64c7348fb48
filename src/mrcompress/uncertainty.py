"""Isosurface uncertainty induced by lossy compression.

Compression errors near the isovalue are modeled as a single Normal(mu,
sigma^2) fitted from sampled errors. Treating the eight corners of a grid
cell as independent draws around their decompressed values gives the
probability that an isosurface crosses the cell: one minus the probability
that all corners fall below the isovalue, minus the probability that all
fall above. With sigma = 0 the field degenerates to the deterministic
marching-cubes crossing test.

Only cells the isosurface can cross are evaluated. Where the standard score
z = (iso - (v + mu)) / sigma is at least ``_Z_ONE`` or at most ``_Z_ZERO``,
``ndtr`` is exactly 1.0 or 0.0 (with sigma = 0, every corner is), so a cell
whose eight corners all saturate on one side has p = 1 - 1 - 0 or 1 - 0 - 1,
exactly +0.0: it keeps the zeroed output's value without a ``ndtr`` call.
``ndtr`` runs on the unsaturated points of a slab, or on all its points when
they are more than ``_DENSE_BAND`` of it. A slab with more than
``_DENSE_LIVE`` (a fifth) of its cells live runs the products over the whole
slab; a sparser one gathers the live cells' corners and runs them alone, in
the same order.
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
_Z_ONE = 9.0  # ndtr(z) == 1.0 exactly for every z >= _Z_ONE
_Z_ZERO = -40.0  # ndtr(z) == 0.0 exactly for every z <= _Z_ZERO
_DENSE_LIVE = 0.2  # live-cell share of a slab above which it is evaluated whole
_DENSE_BAND = 0.65  # band-point share of a slab above which ndtr runs on all of it


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
    if not isinstance(orig_sample, (list, tuple)):
        orig_sample, decomp_sample = [orig_sample], [decomp_sample]
    if len(orig_sample) != len(decomp_sample):
        raise ShapeError("sample region lists differ in length")
    parts = []
    for o, d in zip(orig_sample, decomp_sample):
        o, d = np.asarray(o, dtype=np.float64), np.asarray(d, dtype=np.float64)
        if o.shape != d.shape:
            raise ShapeError(f"region shapes differ: {o.shape} vs {d.shape}")
        parts.append((o - d).reshape(-1))
    # one region needs no concatenating copy
    return parts[0] if len(parts) == 1 else np.concatenate(parts or [np.zeros(0)])


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
    pairwise products: along x, then y, then z (axes 2, 1, 0). On booleans
    it is the logical and; on gathered (2, 2, 2, n) corners it gives each of
    the n cells in a (1, 1, 1, n) array."""
    a = a[:, :, :-1] * a[:, :, 1:]
    a = a[:, :-1] * a[:, 1:]
    return a[:-1] * a[1:]


def _crossing(q: np.ndarray, out=None) -> np.ndarray:
    """1 - P(all corners below) - P(all above), clipped to [0, 1], for every
    cell of the corner probabilities ``q``, which it overwrites."""
    below = _corner_product(q)
    above = _corner_product(np.subtract(1.0, q, out=q))
    p = np.subtract(1.0, below, out=below if out is None else out)
    p -= above
    return np.clip(p, 0.0, 1.0, out=p)


def probability_field(decomp: Volume, isovalue: float, model: ErrorModel) -> ProbabilityField:
    """Crossing probability for every cell of the volume.

    The field is built in z-slabs of ``_SLAB_CELLS`` cell planes, each
    reading one more point plane than it has cell planes, into one zeroed
    output, so the temporaries are slab-sized. A slab marks its points
    saturated at one (z >= ``_Z_ONE``; with sigma 0, v + mu < iso) or at
    zero (z <= ``_Z_ZERO``; with sigma 0, the rest) and skips the cells whose
    corners all saturate on one side: their p is exactly +0.0, the zeroed
    output's value. ``ndtr`` runs on the other points, or on the whole slab
    when they are more than ``_DENSE_BAND`` of it. A slab with more than
    ``_DENSE_LIVE`` of its cells live multiplies over the whole slab;
    otherwise the live cells' corners are gathered and multiplied alone.
    Both keep a whole-volume pass's order (x pairs, then y, then z), so
    every value is the same."""
    if min(decomp.dims) < 2:
        raise ShapeError(f"need at least 2 points per axis, got dims {decomp.dims}")
    nz, ny, nx = decomp.data.shape
    corner_offsets = np.add.outer(np.add.outer([0, ny * nx], [0, nx]), [0, 1])[..., None]
    p = np.zeros((nz - 1, ny - 1, nx - 1))
    for z in range(0, nz - 1, _SLAB_CELLS):
        t = decomp.data[z : z + _SLAB_CELLS + 1] + model.mu
        if model.sigma2 > 0.0:
            np.subtract(isovalue, t, out=t)
            t /= model.sigma
            one, zero = t >= _Z_ONE, t <= _Z_ZERO
        else:
            one = t < isovalue
            zero = ~one
        all_one, all_zero = _corner_product(one), _corner_product(zero)
        n_live = all_one.size - np.count_nonzero(all_one) - np.count_nonzero(all_zero)
        if not n_live:
            continue
        n_band = t.size - np.count_nonzero(one) - np.count_nonzero(zero)
        if n_band > _DENSE_BAND * t.size:
            q = ndtr(t)  # the same values: saturation is exact
        else:
            q = one.astype(np.float64)
            band = np.flatnonzero(~(one | zero))
            q.reshape(-1)[band] = ndtr(t.reshape(-1)[band])
        out = p[z : z + _SLAB_CELLS]
        if n_live > _DENSE_LIVE * all_one.size:
            _crossing(q, out=out)
        else:
            cells = np.flatnonzero(~(all_one | all_zero))
            rows = cells // (nx - 1)  # z * (ny - 1) + y of each live cell
            corners = q.reshape(-1)[cells + rows + rows // (ny - 1) * nx + corner_offsets]
            out.reshape(-1)[cells] = _crossing(corners)[0, 0, 0]
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
