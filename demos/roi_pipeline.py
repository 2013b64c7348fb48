"""Region-of-interest walkthrough: pick the busiest blocks of a bump field,
keep them at full resolution, downsample the rest, compress both levels into
one container file, then reconstruct a uniform volume and compare quality
inside and outside the kept region.
"""

import os

import numpy as np

from mrcompress.codec import ErrorBoundPolicy
from mrcompress.container import (
    container_from_dataset,
    dataset_from_container,
    read_container,
    write_container,
)
from mrcompress.grid import Volume
from mrcompress.metrics import psnr
from mrcompress.roi import RoiConfig, build_adaptive, reconstruct_uniform, select_roi


def bump_field(n=64, seed=3):
    """A handful of Gaussian bumps on a flat background."""
    rng = np.random.default_rng(seed)
    z, y, x = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    data = np.full((n, n, n), 0.1)
    for _ in range(6):
        cx, cy, cz = rng.uniform(8, n - 8, 3)
        w = rng.uniform(2.0, 3.5)
        data += rng.uniform(1.0, 2.0) * np.exp(
            -((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / (2 * w * w)
        )
    return Volume(data)


def main():
    v = bump_field()
    cfg = RoiConfig(b=8, x_percent=25.0)

    mask = select_roi(v, cfg)
    print(f"selected {int(mask.sum())} of {mask.size} blocks at full resolution")

    ds = build_adaptive(v, mask, cfg)
    for lv in ds.levels:
        print(f"  level u={lv.u:2d}: {len(lv.blocks)} blocks on a {lv.dims} grid")

    c = container_from_dataset(ds, ErrorBoundPolicy(1e-3), lossless="zlib")
    write_container(c, "roi_demo.mrc")
    size = os.path.getsize("roi_demo.mrc")
    print(f"container: {size} bytes ({v.data.nbytes / size:.1f}x smaller than the raw field)")

    ds2 = dataset_from_container(read_container("roi_demo.mrc"))
    rec = reconstruct_uniform(ds2)

    # Per-cell view of the mask so quality can be split by region. Outside the
    # ROI the floor is the downsampling itself, not the error bound.
    cell_mask = mask.repeat(cfg.b, 0).repeat(cfg.b, 1).repeat(cfg.b, 2)
    err = np.abs(rec.data - v.data)
    print(f"psnr overall: {psnr(v, rec):.2f} dB")
    print(f"max error inside roi:  {err[cell_mask].max():.2e}")
    print(f"max error outside roi: {err[~cell_mask].max():.2e}")

    os.remove("roi_demo.mrc")


if __name__ == "__main__":
    main()
