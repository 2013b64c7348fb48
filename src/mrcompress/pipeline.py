"""Per-level compression pipeline: tile, merge, pad, compress, and back.

A resolution level travels as a list of unit blocks. Compression merges the
blocks into one array, optionally pads it, and hands it to a codec. The
archive produced here also carries everything needed to undo that and to
re-run post-processing on the decompressed side: the chosen intensity
configuration and, when sampling ran, the original sample regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import (
    LOSSLESS_NONE,
    CompressedBlob,
    ErrorBoundPolicy,
    compress,
    decompress,
)
from .codec.lorenzo import BLOCK_EDGE
from .errors import DataError, FormatError, SamplingError, ShapeError
from .grid import BlockCoord, Dims, Volume
from .layout import LINEAR, MergedArray, UnitBlock, linear_merge, pad_linear, stack_merge, unmerge, unpad
from .postprocess import (
    IntensityConfig,
    SamplingPlan,
    apply_postprocess,
    extract_regions,
    plan_sampling,
    select_intensity,
)

PAD_AUTO = "auto"
PAD_OFF = "off"


@dataclass(frozen=True)
class SampleSet:
    """Original values over the regions of a sampling plan, kept so the
    decompressed side can refit intensity or an error model offline."""

    plan: SamplingPlan
    regions: tuple

    def __post_init__(self):
        if len(self.regions) != len(self.plan.origins):
            raise ShapeError("sample regions must match plan origins one to one")
        frozen = []
        for r, _ in zip(self.regions, self.plan.origins):
            arr = np.ascontiguousarray(r, dtype=np.float64)
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "regions", tuple(frozen))


def post_blocksize(codec: str, u: int) -> int:
    """Boundary pitch the smoothing pass targets for a level of unit-block
    edge ``u`` (0 for a whole volume) coded with ``codec``."""
    return u if codec == "interp" and u > 0 else BLOCK_EDGE


@dataclass(frozen=True)
class LevelArchive:
    """One compressed resolution level plus its reconstruction metadata."""

    dims: Dims  # full grid dims of the level, not of the merged array
    blob: CompressedBlob
    post: Optional[IntensityConfig] = None
    samples: Optional[SampleSet] = None

    @property
    def u(self) -> int:
        """Unit-block edge; 0 when the level is a whole unsplit volume."""
        return self.blob.u

    @property
    def coords(self):
        return self.blob.order

    @property
    def post_blocksize(self) -> int:
        """See the module function :func:`post_blocksize`."""
        return post_blocksize(self.blob.codec_name, self.u)

    def size_bytes(self) -> int:
        return self.blob.size_bytes()


def tile_volume(vol: Volume, u: int) -> list:
    """Split a volume into unit blocks covering it exactly."""
    if u < 1:
        raise ShapeError(f"unit-block edge must be >= 1, got {u}")
    nx, ny, nz = vol.dims
    if nx % u or ny % u or nz % u:
        raise ShapeError(f"dims {vol.dims} not divisible by unit-block edge {u}")
    blocks = []
    for bz in range(nz // u):
        for by in range(ny // u):
            for bx in range(nx // u):
                sub = vol.data[
                    bz * u : (bz + 1) * u,
                    by * u : (by + 1) * u,
                    bx * u : (bx + 1) * u,
                ]
                blocks.append(UnitBlock(coord=BlockCoord(bx, by, bz, u), u=u, data=sub))
    return blocks


def _should_pad(pad: str, codec: str, arrangement: str) -> bool:
    if pad == PAD_OFF:
        return False
    if pad != PAD_AUTO:
        raise ShapeError(f"unknown pad mode {pad!r}")
    return codec == "interp" and arrangement == LINEAR


def _unpadded(dec):
    """Codec output with any layout padding removed."""
    if isinstance(dec, MergedArray) and dec.padded:
        dec = unpad(dec)
    return dec


def _fit_intensity(merged_orig, dec, eb: float, blocksize: int, family: str, seed: int, sample_rate: float):
    """Plan a sample on ``dec``, the codec's output for ``merged_orig`` at
    bound ``eb``, and pick per-axis intensities."""
    dec = _unpadded(dec)
    dec_values = dec.values if isinstance(dec, MergedArray) else dec.data
    dims = (dec_values.shape[2], dec_values.shape[1], dec_values.shape[0])
    plan = plan_sampling(dims, blocksize, max_rate=sample_rate, seed=seed)
    orig_regions = extract_regions(merged_orig, plan)
    dec_regions = extract_regions(dec_values, plan)
    cfg = select_intensity(orig_regions, dec_regions, eb, blocksize, family)
    return cfg, SampleSet(plan=plan, regions=tuple(orig_regions))


def _encode(payload, orig, dims: Dims, policy, codec, lossless, post_family, sample_rate, seed) -> LevelArchive:
    """Compress ``payload`` into a level archive; with ``post_family``, fit
    the post filter on the encoder's reconstruction against ``orig``, the
    unpadded original values."""
    if post_family is None:
        return LevelArchive(dims=dims, blob=compress(payload, policy, codec=codec, lossless=lossless))
    # the encoder hands back the decoder's output, so fitting decodes nothing
    blob, dec = compress(payload, policy, codec=codec, lossless=lossless, recon=True)
    blocksize = post_blocksize(codec, blob.u)
    try:
        post, samples = _fit_intensity(orig, dec, policy.eb, blocksize, post_family, seed, sample_rate)
    except SamplingError:  # no sample region fits the level: store it without post
        return LevelArchive(dims=dims, blob=blob)
    return LevelArchive(dims=dims, blob=blob, post=post, samples=samples)


def compress_level(
    blocks,
    dims: Dims,
    u: int,
    policy: ErrorBoundPolicy,
    codec: str = "interp",
    arrangement: str = LINEAR,
    pad: str = PAD_AUTO,
    lossless: str = LOSSLESS_NONE,
    post_family=None,
    sample_rate: float = 0.05,
    seed: int = 0,
) -> LevelArchive:
    """Merge one level's unit blocks and compress them into an archive."""
    if not blocks:
        raise ShapeError("a level needs at least one unit block")
    merged = linear_merge(blocks) if arrangement == LINEAR else stack_merge(blocks)
    if merged.u != u:
        raise ShapeError(f"blocks of u={merged.u} in a level with u={u}")
    payload = pad_linear(merged) if _should_pad(pad, codec, arrangement) else merged
    dims = tuple(int(d) for d in dims)
    return _encode(payload, merged.values, dims, policy, codec, lossless, post_family, sample_rate, seed)


def compress_volume(
    vol: Volume,
    policy: ErrorBoundPolicy,
    codec: str = "interp",
    lossless: str = LOSSLESS_NONE,
    post_family=None,
    sample_rate: float = 0.05,
    seed: int = 0,
) -> LevelArchive:
    """Compress a whole volume as a single-level archive with no tiling."""
    return _encode(vol, vol.data, vol.dims, policy, codec, lossless, post_family, sample_rate, seed)


def decode_level(archive: LevelArchive):
    """Decode a level's payload once: the codec's output, unpadded and
    post-processed. A MergedArray for a tiled level, a Volume for a whole
    one; decompress_level, decompress_volume and level_sample_pairs all
    start from it."""
    # every level is coded from finite data, so a non-finite value means a
    # corrupt stream; a whole volume is checked inside Volume
    try:
        dec = decompress(archive.blob)
    except DataError as exc:
        raise FormatError(f"decoded level: {exc}") from exc
    if isinstance(dec, MergedArray) and not np.isfinite(dec.values).all():
        raise FormatError("decoded level contains non-finite values")
    dec = _unpadded(dec)
    if archive.post is not None:
        dec = apply_postprocess(dec, archive.blob.policy.eb, archive.post_blocksize, archive.post)
    return dec


def decompress_level(archive: LevelArchive, decoded=None):
    """Invert compress_level: returns the list of unit blocks.

    Post-processing, when configured, is applied to the unpadded merged
    array before it is split back into blocks. ``decoded`` is the level's
    decode_level output when the caller already holds it.
    """
    dec = decode_level(archive) if decoded is None else decoded
    if isinstance(dec, Volume):
        raise ShapeError("archive holds a whole volume; use decompress_volume")
    return unmerge(dec)


def decompress_volume(archive: LevelArchive, decoded=None) -> Volume:
    """Invert compress_volume; ``decoded`` as for decompress_level."""
    dec = decode_level(archive) if decoded is None else decoded
    if not isinstance(dec, Volume):
        raise ShapeError("archive holds merged blocks; use decompress_level")
    return dec


def level_sample_pairs(archive: LevelArchive, decoded=None):
    """Stored original sample regions paired with the matching regions of
    the decompressed (and post-processed) level; ``decoded`` as for
    decompress_level."""
    if archive.samples is None:
        raise ShapeError("archive stores no sample regions")
    dec = decode_level(archive) if decoded is None else decoded
    values = dec.values if isinstance(dec, MergedArray) else dec.data
    dec_regions = tuple(extract_regions(values, archive.samples.plan))
    return archive.samples.regions, dec_regions


def assemble_volume(blocks, dims: Dims) -> Volume:
    """Place unit blocks back onto a full grid of the given dims."""
    if not blocks:
        raise ShapeError("no blocks to assemble")
    nx, ny, nz = dims
    out = np.zeros((nz, ny, nx), dtype=np.float64)
    seen = np.zeros((nz, ny, nx), dtype=bool)
    for b in blocks:
        u = b.u
        c = b.coord
        if (c.bx + 1) * u > nx or (c.by + 1) * u > ny or (c.bz + 1) * u > nz:
            raise ShapeError(f"block {c} outside dims {dims}")
        sl = (
            slice(c.bz * u, (c.bz + 1) * u),
            slice(c.by * u, (c.by + 1) * u),
            slice(c.bx * u, (c.bx + 1) * u),
        )
        if seen[sl].any():
            raise ShapeError(f"block {c} overlaps previously placed data")
        out[sl] = b.data
        seen[sl] = True
    if not seen.all():
        raise ShapeError("blocks do not cover the requested dims")
    return Volume(out)
