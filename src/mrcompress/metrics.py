"""Reconstruction quality metrics, streamed in z-slabs, and a
rate-distortion sweep harness."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .codec import ErrorBoundPolicy
from .container import ContainerFile, ContainerLevel, container_from_dataset, dataset_from_container, encode_container
from .errors import ShapeError
from .grid import Volume
from .pipeline import compress_volume, decompress_volume
from .roi import MultiResDataset, reconstruct_uniform

SSIM_WINDOW = 8
SSIM_STRIDE = 4
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# ssim() relies on SSIM_WINDOW == 2 * SSIM_STRIDE: a window is 2x2x2 blocks
_BLOCK_CELLS = SSIM_STRIDE**3
_SLAB_BLOCKS = 4  # block rows in z per slab of ssim's block moments
_PSNR_SLAB = 1 << 15  # values per slab of psnr's squared differences


def _paired(orig, recon):
    o = orig.data if isinstance(orig, Volume) else np.asarray(orig, dtype=np.float64)
    r = recon.data if isinstance(recon, Volume) else np.asarray(recon, dtype=np.float64)
    if o.shape != r.shape:
        raise ShapeError(f"shape mismatch: {o.shape} vs {r.shape}")
    return o, r


def psnr(orig, recon) -> float:
    """Peak signal-to-noise ratio in dB with the original's value range as
    the peak. Identical inputs give +inf; a constant original that was
    reconstructed imperfectly gives -inf. The squared differences are formed
    in slabs of x-rows, ``_PSNR_SLAB`` values (or one row) at a time in one
    reused buffer, and each slab is summed by numpy's pairwise sum: no
    volume-sized temporary."""
    o, r = _paired(orig, recon)
    o, r = o.reshape(-1, o.shape[-1]), r.reshape(-1, r.shape[-1])
    step = max(1, _PSNR_SLAB // o.shape[1])
    buf = np.empty((min(step, len(o)), o.shape[1]))
    sse = 0.0
    for y in range(0, len(o), step):
        d = np.subtract(o[y : y + step], r[y : y + step], out=buf[: min(step, len(o) - y)])
        sse += float(np.square(d, out=d).sum())
    mse = sse / o.size
    if mse == 0.0:
        return math.inf
    vrange = float(o.max() - o.min())
    if vrange == 0.0:
        return -math.inf
    return float(20.0 * np.log10(vrange / np.sqrt(mse)))


def _block_sum(a, b=None, out=None):
    """Per-block sums of a C-contiguous (4bz, 4by, 4bx) array ``a`` (or of
    ``a * b``, formed in ``out``): whole x-rows are added in z, then in y,
    and each x-run of 4 is summed last, on the sixteenth-size rest."""
    if b is not None:
        a = np.multiply(a, b, out=out)
    t = a.reshape(-1, SSIM_STRIDE, a.shape[1] // SSIM_STRIDE, SSIM_STRIDE, a.shape[2])
    t = t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]
    t = (t[:, :, 0] + t[:, :, 1] + t[:, :, 2] + t[:, :, 3]).reshape(*t.shape[:2], -1, SSIM_STRIDE)
    return t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3]


def _block_moments(x, d, buf):
    """Block means of a (4bz, 4by, 4bx) array ``x`` (copied into ``buf`` when
    not C-contiguous), its values centered on them over whole x-rows into
    ``d``, and the residual sums of ``d``."""
    if not x.flags.c_contiguous:
        np.copyto(buf, x)
        x = buf
    m = _block_sum(x) / _BLOCK_CELLS
    bz, by, bx = m.shape
    rows = (bz, SSIM_STRIDE, by, SSIM_STRIDE, SSIM_STRIDE * bx)
    np.subtract(x.reshape(rows), np.repeat(m, SSIM_STRIDE, axis=2)[:, None, :, None], out=d.reshape(rows))
    return m, _block_sum(d)


def _corners(a):
    """The eight blocks of every window, each as an array of window shape."""
    mz, my, mx = (n - 1 for n in a.shape)
    return [a[dz : dz + mz, dy : dy + my, dx : dx + mx] for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]


def _window_comoment(ma, sa, mua, mb, sb, mub, cab):
    """Sum of (a - mua)(b - mub) over each window from its blocks' moments.

    Per block this is the centered co-moment ``cab`` plus the shift of the
    block means to the window means (Chan, Golub and LeVeque's pairwise
    update). The residual sums ``sa``/``sb`` (sum of x minus the rounded
    block mean, zero in exact arithmetic) cancel the first-order effect of
    rounding the block means, which matters under a large offset."""
    total = np.zeros(mua.shape)
    for ca, csa, cb, csb, cc in zip(*map(_corners, (ma, sa, mb, sb, cab))):
        da = ca - mua
        db = cb - mub
        total += cc + da * csb + db * csa + _BLOCK_CELLS * da * db
    return total


def ssim(orig, recon) -> float:
    """Mean local structural similarity over 8^3 windows at stride 4.

    Dynamic range is the original's value range (1.0 for a constant
    original so the constants stay meaningful).

    A window at stride 4 is exactly 2x2x2 aligned 4^3 blocks, so one
    centered pass computes each block's means and centered second moments
    and every window merges its eight blocks' moments. No window is
    materialized; the moments stay centered (no E[x^2] - E[x]^2), so
    identical inputs give exactly 1.0 and large offsets lose no precision.
    The block moments are computed over z-slabs of ``_SLAB_BLOCKS`` block
    rows into preallocated arrays, through three reused slab buffers. Cells
    past the last whole window do not count."""
    o, r = _paired(orig, recon)
    if min(o.shape) < SSIM_WINDOW:
        raise ShapeError(f"volume {o.shape} smaller than the {SSIM_WINDOW}^3 ssim window")
    L = float(o.max() - o.min())
    if L == 0.0:
        L = 1.0
    c1 = (SSIM_K1 * L) ** 2
    c2 = (SSIM_K2 * L) ** 2
    bz, by, bx = blocks = [(n - SSIM_WINDOW) // SSIM_STRIDE + 2 for n in o.shape]
    mo, so, vo, mr, sr, vr, cor = (np.empty(blocks) for _ in range(7))
    slab = (SSIM_STRIDE * min(_SLAB_BLOCKS, bz), SSIM_STRIDE * by, SSIM_STRIDE * bx)
    bufs = [np.empty(slab) for _ in range(3)]
    for z in range(0, bz, _SLAB_BLOCKS):
        rows = slice(z, min(z + _SLAB_BLOCKS, bz))
        cells = slice(SSIM_STRIDE * rows.start, SSIM_STRIDE * rows.stop)
        do, dr, p = (buf[: cells.stop - cells.start] for buf in bufs)
        mo[rows], so[rows] = _block_moments(o[cells, : slab[1], : slab[2]], do, p)
        mr[rows], sr[rows] = _block_moments(r[cells, : slab[1], : slab[2]], dr, p)
        vo[rows] = _block_sum(do, do, p)
        vr[rows] = _block_sum(dr, dr, p)
        cor[rows] = _block_sum(do, dr, p)
    mu_o = sum(_corners(mo)) / 8.0
    mu_r = sum(_corners(mr)) / 8.0
    n = float(SSIM_WINDOW**3)
    var_o = _window_comoment(mo, so, mu_o, mo, so, mu_o, vo) / n
    var_r = _window_comoment(mr, sr, mu_r, mr, sr, mu_r, vr) / n
    cov = _window_comoment(mo, so, mu_o, mr, sr, mu_r, cor) / n
    num = (2.0 * mu_o * mu_r + c1) * (2.0 * cov + c2)
    den = (mu_o**2 + mu_r**2 + c1) * (var_o + var_r + c2)
    return float(np.mean(num / den))


@dataclass(frozen=True)
class RateDistortionPoint:
    eb: float
    compressed_bytes: int
    original_bytes: int
    cr: float
    psnr_db: float
    ssim: float


def rd_sweep(
    source,
    ebs,
    codec: str = "interp",
    adaptive: bool = False,
    lossless="none",
    post_family=None,
    seed: int = 0,
    reference: Volume = None,
) -> list:
    """Compress at each error bound and record size and quality.

    ``source`` is a Volume, or a MultiResDataset (then ``reference`` must
    give the uniform original the reconstruction is scored against). The
    compressed size is that of the whole container file either way."""
    if isinstance(source, Volume):
        reference = source
    elif not isinstance(source, MultiResDataset):
        raise ShapeError(f"cannot sweep a {type(source).__name__}")
    elif reference is None:
        raise ShapeError("dataset sweeps need the uniform reference volume")
    opts = dict(codec=codec, lossless=lossless, post_family=post_family, seed=seed)
    points = []
    for eb in ebs:
        policy = ErrorBoundPolicy(eb=float(eb), adaptive=adaptive)
        if isinstance(source, Volume):
            arch = compress_volume(source, policy, **opts)
            c = ContainerFile(levels=(ContainerLevel(archive=arch),))
            recon = decompress_volume(arch)
        else:
            c = container_from_dataset(source, policy, **opts)
            recon = reconstruct_uniform(dataset_from_container(c))
        size, orig = len(encode_container(c)), reference.data.size * 8
        points.append(RateDistortionPoint(eb=float(eb), compressed_bytes=size, original_bytes=orig, cr=orig / size,
                                          psnr_db=psnr(reference, recon), ssim=ssim(reference, recon)))
    return points


def write_jsonl(points, path) -> None:
    with open(path, "w") as fh:
        for p in points:
            row = asdict(p)
            if math.isinf(row["psnr_db"]):
                row["psnr_db"] = "inf" if row["psnr_db"] > 0 else "-inf"
            fh.write(json.dumps(row) + "\n")
