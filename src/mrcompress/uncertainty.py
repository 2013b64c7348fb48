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
Saturation is read from the decoded values themselves: every rounded step of
z is monotone in v, so z >= ``_Z_ONE`` holds exactly for v up to one double
and z <= ``_Z_ZERO`` exactly from another on, and a bisection over the
doubles, evaluating the same arithmetic, finds both once per field (likewise
v + mu < iso for sigma = 0). z and ``ndtr`` are then formed at the
unsaturated points of a slab only, or over the whole slab when those are more
than ``_DENSE_BAND`` of it. A slab with more than ``_DENSE_LIVE`` (a fifth)
of its cells live runs the products over the whole slab; a sparser one
gathers the live cells' corners and runs them alone, in the same order.

The arithmetic is float64 whatever the decoded volume's scalar type: a
float32 volume is widened one slab at a time, never as a whole, and errors
are float64 differences of the values given.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ShapeError
from .grid import Dims, Volume
from .wire import atomic, atomic_write

DEFAULT_WINDOW = 0.05
_MAX_WIDENINGS = 4
_CHUNK = 1 << 15  # values per chunk of fit_model's window selection
_SLAB_CELLS = 16  # cell planes per slab of probability_field
_Z_ONE = 9.0  # ndtr(z) == 1.0 exactly for every z >= _Z_ONE
_Z_ZERO = -40.0  # ndtr(z) == 0.0 exactly for every z <= _Z_ZERO
_DENSE_LIVE = 0.2  # live-cell share of a slab above which it is evaluated whole
_DENSE_BAND = 0.65  # band-point share of a slab above which ndtr runs on all of it
_GATHER_CELLS = 1 << 12  # live cells per gathered batch of a sparse slab


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
    matched regions, in float64."""
    if not isinstance(orig_sample, (list, tuple)):
        orig_sample, decomp_sample = [orig_sample], [decomp_sample]
    if len(orig_sample) != len(decomp_sample):
        raise ShapeError("sample region lists differ in length")
    parts = []
    for o, d in zip(orig_sample, decomp_sample):
        o, d = np.asarray(o), np.asarray(d)
        if o.shape != d.shape:
            raise ShapeError(f"region shapes differ: {o.shape} vs {d.shape}")
        parts.append(np.subtract(o, d, dtype=np.float64).reshape(-1))
    # one region needs no concatenating copy
    return parts[0] if len(parts) == 1 else np.concatenate(parts or [np.zeros(0)])


def _window_picks(errors: np.ndarray, values: np.ndarray, isovalue: float, half: float) -> np.ndarray:
    """``errors[np.abs(values - isovalue) <= half]`` in float64, the same
    floats in the same order, formed ``_CHUNK`` values at a time in reused
    buffers."""
    dist = np.empty(min(_CHUNK, values.size))
    sel = np.empty(dist.size, dtype=bool)
    picks = []
    for i in range(0, values.size, _CHUNK):
        chunk = values[i : i + _CHUNK]
        d = np.subtract(chunk, isovalue, out=dist[: chunk.size], dtype=np.float64)
        s = np.less_equal(np.abs(d, out=d), half, out=sel[: chunk.size])
        picks.append(errors[i : i + _CHUNK][s])
    return np.concatenate(picks)


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
    values = np.asarray(values).reshape(-1)
    if errors.size != values.size:
        raise ShapeError("errors and values must pair up one to one")
    if errors.size < 2:
        raise ShapeError("need at least two error samples")
    if not (window > 0):
        raise ShapeError(f"window must be positive, got {window}")
    vrange = float(values.max()) - float(values.min())
    w = window
    for _ in range(_MAX_WIDENINGS + 1):
        picked = _window_picks(errors, values, isovalue, w * vrange)
        if picked.size >= 2:
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


def _cross_cells(q: np.ndarray, cells: np.ndarray, out: np.ndarray) -> None:
    """Write the crossing probability of the cells at flat indices ``cells``
    of the slab's cell grid into the flat ``out``, gathering their corners
    from the slab's corner probabilities ``q`` ``_GATHER_CELLS`` cells at a
    time."""
    _, ny, nx = q.shape
    # flat offset of each of a cell's eight corners, in (z, y, x) C order
    offsets = np.add.outer(np.add.outer([0, ny * nx], [0, nx]), [0, 1]).reshape(-1)
    for c in range(0, cells.size, _GATHER_CELLS):
        chunk = cells[c : c + _GATHER_CELLS]
        rows = chunk // (nx - 1)  # z * (ny - 1) + y of each cell
        first = chunk + rows + rows // (ny - 1) * nx  # its (0, 0, 0) corner
        corners = np.empty((2, 2, 2, chunk.size))
        for offset, dst in zip(offsets, corners.reshape(8, -1)):
            np.take(q.reshape(-1)[offset:], first, out=dst)
        out[chunk] = _crossing(corners)[0, 0, 0]


_MAX_KEY = struct.unpack("<q", struct.pack("<d", np.finfo(np.float64).max))[0]


def _double(key: int) -> float:
    """The finite double at ``key`` in the order of the doubles: 0 is +0.0,
    1 the smallest positive double, -1 the negative one of the same size."""
    bits = key if key >= 0 else -key | 1 << 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _last_true(pred) -> float:
    """The largest finite double v with ``pred(v)``, for a ``pred`` that
    holds on a down-set of the doubles (every v below one where it holds):
    -inf when it holds nowhere, +inf when it holds at the largest double."""
    lo, hi = -_MAX_KEY, _MAX_KEY
    if pred(_double(hi)):
        return np.inf
    if not pred(_double(lo)):
        return -np.inf
    while hi - lo > 1:  # pred(lo) holds, pred(hi) does not
        mid = (lo + hi) // 2
        if pred(_double(mid)):
            lo = mid
        else:
            hi = mid
    return _double(lo)


def _saturation_thresholds(isovalue: float, model: ErrorModel) -> tuple[float, float]:
    """(v1, v0): a finite decoded value v saturates at one (z >= ``_Z_ONE``;
    with sigma 0, v + mu < iso) exactly when v <= v1, and at zero
    (z <= ``_Z_ZERO``; with sigma 0, the rest) exactly when v >= v0.

    Each rounded step of z = (iso - (v + mu)) / sigma is monotone, so z never
    increases with v and both sets are runs of the doubles; the bisection
    evaluates the same double arithmetic as the field would at each v."""
    iso, mu = float(isovalue), float(model.mu)
    if model.sigma2 > 0.0:
        sigma = model.sigma
        v1 = _last_true(lambda v: (iso - (v + mu)) / sigma >= _Z_ONE)
        last_unsaturated = _last_true(lambda v: not ((iso - (v + mu)) / sigma <= _Z_ZERO))
    else:
        v1 = last_unsaturated = _last_true(lambda v: v + mu < iso)
    return v1, float(np.nextafter(last_unsaturated, np.inf))


def probability_field(decomp: Volume, isovalue: float, model: ErrorModel) -> ProbabilityField:
    """Crossing probability for every cell of the volume.

    The field is built in z-slabs of ``_SLAB_CELLS`` cell planes, each
    reading one more point plane than it has cell planes, into one zeroed
    output, so the temporaries are slab-sized and the slab buffers are
    reused. A slab marks its points saturated at one (z >= ``_Z_ONE``; with
    sigma 0, v + mu < iso) or at zero (z <= ``_Z_ZERO``; with sigma 0, the
    rest) by comparing the decoded values with two thresholds that
    ``_saturation_thresholds`` finds once, and skips the cells whose corners
    all saturate on one side: their p is exactly +0.0, the zeroed output's
    value. z and ``ndtr`` are formed at the other points, or over the whole
    slab when they are more than ``_DENSE_BAND`` of it. A slab with more
    than ``_DENSE_LIVE`` of its cells live multiplies over the whole slab;
    otherwise the live cells' corners are gathered and multiplied alone.
    Both keep a whole-volume pass's order (x pairs, then y, then z), so
    every value is the same."""
    if min(decomp.dims) < 2:
        raise ShapeError(f"need at least 2 points per axis, got dims {decomp.dims}")
    nz, ny, nx = decomp.data.shape
    v1, v0 = _saturation_thresholds(isovalue, model)
    p = np.zeros((nz - 1, ny - 1, nx - 1))
    slab_shape = (min(_SLAB_CELLS + 1, nz), ny, nx)
    q_buf = np.empty(slab_shape)
    v_buf = None if decomp.data.dtype == np.float64 else np.empty(slab_shape)
    one_buf, zero_buf = np.empty(slab_shape, dtype=bool), np.empty(slab_shape, dtype=bool)
    for z in range(0, nz - 1, _SLAB_CELLS):
        v = decomp.data[z : z + _SLAB_CELLS + 1]
        k = v.shape[0]
        if v_buf is not None:  # widened one slab at a time
            np.copyto(v_buf[:k], v)
            v = v_buf[:k]
        one = np.less_equal(v, v1, out=one_buf[:k])
        zero = np.greater_equal(v, v0, out=zero_buf[:k])
        saturated = _corner_product(one)  # cells whose corners all saturate at one
        saturated |= _corner_product(zero)  # or all at zero
        n_live = saturated.size - np.count_nonzero(saturated)
        if not n_live:
            continue
        q = q_buf[:k]
        n_band = v.size - np.count_nonzero(one) - np.count_nonzero(zero)
        if n_band > _DENSE_BAND * v.size:
            np.add(v, model.mu, out=q)
            np.subtract(isovalue, q, out=q)
            q /= model.sigma
            ndtr(q, out=q)  # the same values: saturation is exact
        else:
            np.copyto(q, one)
            if n_band:
                band = np.flatnonzero(~(one | zero))
                t = v.reshape(-1)[band] + model.mu
                np.subtract(isovalue, t, out=t)
                t /= model.sigma
                q.reshape(-1)[band] = ndtr(t)
        out = p[z : z + _SLAB_CELLS]
        if n_live > _DENSE_LIVE * saturated.size:
            _crossing(q, out=out)
        else:
            _cross_cells(q, np.flatnonzero(~saturated), out.reshape(-1))
    return ProbabilityField(p=p, isovalue=float(isovalue), model=model)


def _sidecar_json(field: ProbabilityField) -> bytes:
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
    sidecar at ``path + ".json"`` describing dims and the fitted model,
    each through a temp file and a rename."""
    atomic(path, field.p.astype("<f4").tofile)
    atomic_write(f"{path}.json", _sidecar_json(field))
