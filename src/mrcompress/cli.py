"""Command-line frontend: roi, compress, decompress, uncertainty, eval.

Exit codes are fixed for scripting: 0 success, 2 usage or shape problems
(argparse errors land here too), 3 malformed input files, 4 anything
unexpected. Output files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .codec import DEFAULT_ALPHA, DEFAULT_BETA, ErrorBoundPolicy
from .container import (
    MAGIC,
    ContainerFile,
    ContainerLevel,
    container_from_dataset,
    encode_container,
    read_container,
    write_container,
)
from .errors import DataError, FormatError, MrcError, ShapeError
from .grid import Volume, read_raw_volume, write_raw_volume
from .layout import LINEAR, STACKED
from .metrics import psnr, ssim, value_range
from .pipeline import (
    compress_level,
    compress_volume,
    decode_level,
    decompress_level,
    decompress_volume,
    level_sample_pairs,
)
from .roi import MultiResDataset, RoiConfig, build_adaptive, reconstruct_uniform, select_roi
from .uncertainty import DEFAULT_WINDOW, fit_model, probability_field, sample_errors, write_probability_field
from .wire import atomic, atomic_write


def _parse_dims(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"dims must be nx,ny,nz, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be integers, got {text!r}")
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return dims


def _is_container(path: str) -> bool:
    """Whether ``path`` starts like a container of any version; the decoder
    rejects the versions it does not read."""
    with open(path, "rb") as fh:
        return fh.read(3) == MAGIC[:3]


def _dataset(c: ContainerFile, decoded=None) -> MultiResDataset:
    """The container's levels as a dataset. ``decoded`` holds each level's
    decode_level output when the caller already decoded them."""
    decoded = decoded or [None] * c.n_levels
    return MultiResDataset(levels=tuple(decompress_level(lv.archive, dec) for lv, dec in zip(c.levels, decoded)))


def _reconstruct(c: ContainerFile, decoded=None) -> Volume:
    if c.n_levels == 1 and c.levels[0].archive.u == 0:
        return decompress_volume(c.levels[0].archive, decoded[0] if decoded else None)
    return reconstruct_uniform(_dataset(c, decoded))


def cmd_roi(args) -> int:
    vol = read_raw_volume(args.input, args.dims, args.dtype)
    cfg = RoiConfig(b=args.block, x_percent=args.percent)
    mask = select_roi(vol, cfg)
    ds = build_adaptive(vol, mask, cfg)
    write_container(container_from_dataset(ds, policy=None, roi_b=cfg.b, roi_x_percent=cfg.x_percent), args.out)
    picked = int(mask.sum())
    print(f"selected {picked} of {mask.size} blocks ({100.0 * picked / mask.size:.1f}%)")
    for li, (lv, dens) in enumerate(zip(ds.levels, ds.densities())):
        print(f"level {li}: u={lv.u} blocks={len(lv.blocks)} density={100.0 * dens:.1f}%")
    return 0


def cmd_compress(args) -> int:
    policy = ErrorBoundPolicy(eb=args.eb, adaptive=args.adaptive_eb, alpha=args.alpha, beta=args.beta)
    post = None if args.post == "off" else args.post
    if _is_container(args.input):
        src = read_container(args.input)
        if src.roi_mask is None:
            raise ShapeError("compress takes a raw volume or an ROI container; "
                             "this container holds a whole volume")
        ds = _dataset(src)
        levels = tuple(
            ContainerLevel(archive=compress_level(lv, policy, codec=args.codec, arrangement=args.arrangement,
                                                  lossless=args.lossless, post_family=post, seed=args.seed))
            for lv in ds.levels
        )
        c = ContainerFile(levels=levels, roi_b=src.roi_b, roi_x_percent=src.roi_x_percent)
    else:
        if args.dims is None:
            raise ShapeError("raw input needs --dims")
        vol = read_raw_volume(args.input, args.dims, args.dtype)
        arch = compress_volume(vol, policy, codec=args.codec, lossless=args.lossless, post_family=post,
                               seed=args.seed)
        c = ContainerFile(levels=(ContainerLevel(archive=arch),))
    data = encode_container(c)
    atomic_write(args.out, data)
    for li, lv in enumerate(c.levels):
        a = lv.archive
        pad_note = "on" if a.blob.padded else "off"
        post_note = f" post={a.post.family} a={a.post.chosen}" if a.post else ""
        if post and not a.post:
            post_note = " post=off (too small to sample)"
        print(f"level {li}: u={a.u} pad={pad_note}{post_note}")
    print(f"cr: {c.original_bytes() / len(data):.2f} ({c.original_bytes()} -> {len(data)} bytes)")
    return 0


def cmd_decompress(args) -> int:
    c = read_container(args.input)
    if c.n_levels > 1 and not args.uniform:
        raise ShapeError("multi-level container: pass --uniform to reconstruct one grid")
    vol = _reconstruct(c)
    atomic(args.out, lambda tmp: write_raw_volume(vol, tmp, args.dtype))
    nx, ny, nz = vol.dims
    print(f"wrote {args.out} dims {nx},{ny},{nz} {args.dtype}")
    return 0


def cmd_uncertainty(args) -> int:
    c = read_container(args.input)
    # one decode per level feeds both the reconstruction and the sample pairs
    decoded = [decode_level(lv.archive) for lv in c.levels]
    recon = _reconstruct(c, decoded)
    if args.orig is not None:
        orig = read_raw_volume(args.orig, recon.dims, args.dtype)
        errors = sample_errors(orig.data, recon.data)
        values = recon.data.reshape(-1)
    else:
        pairs = [level_sample_pairs(lv.archive, dec) for lv, dec in zip(c.levels, decoded)
                 if lv.archive.samples is not None]
        if not pairs:
            raise DataError("container stores no sample regions; pass --orig to fit the model")
        orig_regions = [r for p in pairs for r in p[0]]
        dec_regions = [r for p in pairs for r in p[1]]
        errors = sample_errors(orig_regions, dec_regions)
        values = np.concatenate([r.reshape(-1) for r in dec_regions])
    model = fit_model(errors, values, args.isovalue, args.window)
    field = probability_field(recon, args.isovalue, model)
    write_probability_field(field, args.out)
    flag = " (fallback: window never caught 2 samples)" if model.fallback else ""
    print(f"model: mu={model.mu:.6g} sigma2={model.sigma2:.6g} n={model.n_samples} window={model.window:g}{flag}")
    nx, ny, nz = field.dims
    print(f"wrote {args.out} dims {nx},{ny},{nz} f32 (+{args.out}.json)")
    return 0


def cmd_eval(args) -> int:
    orig = read_raw_volume(args.orig, args.dims, args.dtype)
    cr = None
    if _is_container(args.recon):
        c = read_container(args.recon)
        recon = _reconstruct(c)
        cr = c.original_bytes() / os.path.getsize(args.recon)
    else:
        recon = read_raw_volume(args.recon, args.dims, args.dtype)
    vrange = value_range(orig)  # the peak of both scores, read once
    p = psnr(orig, recon, vrange=vrange)
    s = ssim(orig, recon, vrange=vrange)
    result = {
        "psnr_db": ("inf" if p > 0 else "-inf") if math.isinf(p) else p,
        "ssim": s,
        "cr": cr,
    }
    payload = (json.dumps(result, indent=2) + "\n").encode()
    if args.out is not None:
        atomic_write(args.out, payload)
    else:
        sys.stdout.write(payload.decode())
    print(f"psnr: {result['psnr_db']} dB, ssim: {s:.6f}" + (f", cr: {cr:.2f}" if cr else ""))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mrcompress",
                                 description="Error-bounded compression for multi-resolution volumes.")
    sub = ap.add_subparsers(dest="command", metavar="command")

    def add_raw_args(p, dims_required=True):
        p.add_argument("--dims", type=_parse_dims, required=dims_required,
                       default=None, help="raw volume dims as nx,ny,nz")
        p.add_argument("--dtype", choices=("f32", "f64"), default="f32",
                       help="raw scalar type (default f32)")

    p = sub.add_parser("roi", help="select regions of interest into a 2-level dataset")
    p.add_argument("--input", required=True, help="raw volume file")
    add_raw_args(p)
    p.add_argument("--block", type=int, required=True, help="ROI block edge (power of two, >= 8)")
    p.add_argument("--percent", type=float, required=True, help="percent of blocks to keep fine")
    p.add_argument("--out", required=True, help="output container")
    p.set_defaults(func=cmd_roi)

    p = sub.add_parser("compress", help="compress a raw volume or an ROI container")
    p.add_argument("--input", required=True, help="raw volume or container file")
    add_raw_args(p, dims_required=False)
    p.add_argument("--codec", choices=("interp", "block"), default="interp")
    p.add_argument("--eb", type=float, required=True, help="absolute error bound")
    p.add_argument("--adaptive-eb", action="store_true", help="tighten bounds on coarse levels")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--arrangement", choices=(LINEAR, STACKED), default=LINEAR)
    p.add_argument("--lossless", choices=("none", "zlib"), default="none")
    p.add_argument("--post", choices=("sz", "zfp", "off"), default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decode a container back to a raw volume")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--uniform", action="store_true",
                   help="reconstruct the full uniform grid from a multi-level container")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("uncertainty", help="isosurface crossing probabilities for a container")
    p.add_argument("--input", required=True, help="container file")
    p.add_argument("--orig", default=None, help="original raw volume (else stored samples are used)")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--isovalue", type=float, required=True)
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    p.add_argument("--out", required=True, help="output raw f32 field (sidecar at OUT.json)")
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("eval", help="psnr / ssim / compression ratio")
    p.add_argument("--orig", required=True, help="original raw volume")
    add_raw_args(p)
    p.add_argument("--recon", required=True, help="reconstruction: raw volume or container")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "func", None) is None:
        ap.print_help()
        return 2
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the contract promises a stable nonzero code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
