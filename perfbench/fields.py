"""Seeded synthetic fields for the benchmark workloads.

The formulas are those of ``tests/helpers.py`` (``smooth_field`` and
``sum_of_gaussians``), evaluated on broadcast 1D coordinates instead of a
full meshgrid. Every cell goes through the same floating-point operations
in the same order, so the values match the test helpers while generation
needs far less memory. Arrays are (nz, ny, nx), x fastest, like
``mrcompress.grid.Volume.data``.
"""

import numpy as np

# cube edge of each workload's field; a run repeats the workload's chain of
# ops 10 to 15 times, so each op time averages many samples
EDGE = {"cli-roi": 128, "volume-interp": 128, "volume-block": 96}


def _axes(dims):
    nx, ny, nz = dims
    z = np.arange(nz, dtype=np.float64)[:, None, None]
    y = np.arange(ny, dtype=np.float64)[None, :, None]
    x = np.arange(nx, dtype=np.float64)[None, None, :]
    return z, y, x


def smooth_field(dims, seed, noise):
    """Separable sine/cosine field plus ``noise`` times seeded white noise."""
    zz, yy, xx = _axes(dims)
    nx, ny, nz = dims
    data = (
        np.sin(2.6 * np.pi * xx / max(nx, 2))
        * np.cos(1.7 * np.pi * yy / max(ny, 2))
        + 0.5 * np.sin(2.1 * np.pi * zz / max(nz, 2))
    )
    if noise:
        rng = np.random.default_rng(seed)
        data = data + noise * rng.standard_normal(data.shape)
    return data


def sum_of_gaussians(dims, n, seed):
    """``n`` Gaussian bumps with seeded centers, widths and amplitudes."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = dims
    centers = np.column_stack(
        [rng.uniform(0, nx, n), rng.uniform(0, ny, n), rng.uniform(0, nz, n)]
    )
    widths = rng.uniform(min(dims) / 12, min(dims) / 5, n)
    amps = rng.uniform(0.5, 1.5, n)
    zz, yy, xx = _axes(dims)
    data = np.zeros((nz, ny, nx), dtype=np.float64)
    for (cx, cy, cz), w, a in zip(centers, widths, amps):
        data += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2) / (2.0 * w**2))
    return data
