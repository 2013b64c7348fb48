"""Per-level compression pipeline: tile, merge, pad, compress, and back.

A resolution level travels as a :class:`~mrcompress.roi.Level`: its
occupancy grid and one (k, u, u, u) block array. Compression merges the
blocks into one array, pads it by rule (the interp codec's linear merges
of blocks above ``PAD_MIN_U``, where padding pays), and hands it to a
codec. The archive produced here also carries everything needed to undo
that and to re-run post-processing on the decompressed side: the chosen
intensity configuration and, when sampling ran, the original sample
regions, at most ``postprocess.SAMPLE_RATE`` of the level.

Decoding works on plain arrays: :func:`decode_level` returns one (z, y, x)
array, and only decompress_level and decompress_volume build a Level or a
Volume from it, with the layout the blob records.
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
from .errors import FormatError, SamplingError, ShapeError
from .grid import Dims, Volume, scalar_array
from .layout import LINEAR, linear_merge, pad_linear, stack_merge, unmerge, unpad
from .postprocess import (
    IntensityConfig,
    SamplingPlan,
    apply_postprocess,
    extract_regions,
    plan_sampling,
    select_intensity,
)
from .roi import Level

PAD_MIN_U = 4  # padding pays off only above this unit-block edge


@dataclass(frozen=True)
class SampleSet:
    """Original values over the regions of a sampling plan, kept so the
    decompressed side can refit intensity or an error model offline; in the
    level's scalar type."""

    plan: SamplingPlan
    regions: tuple

    def __post_init__(self):
        if len(self.regions) != len(self.plan.origins):
            raise ShapeError("sample regions must match plan origins one to one")
        frozen = []
        for r, _ in zip(self.regions, self.plan.origins):
            arr = scalar_array(r)
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
    occupancy: Optional[np.ndarray] = None  # the level's; None for a whole volume
    post: Optional[IntensityConfig] = None
    samples: Optional[SampleSet] = None

    @property
    def u(self) -> int:
        """Unit-block edge; 0 when the level is a whole unsplit volume."""
        return self.blob.u

    @property
    def post_blocksize(self) -> int:
        """See the module function :func:`post_blocksize`."""
        return post_blocksize(self.blob.codec_name, self.u)

    def size_bytes(self) -> int:
        return self.blob.size_bytes()


def _fit_intensity(orig, dec, eb: float, blocksize: int, family: str, seed: int):
    """Plan a sample on ``dec``, the unpadded codec output for the array
    ``orig`` at bound ``eb``, and pick per-axis intensities."""
    plan = plan_sampling(dec.shape[::-1], blocksize, seed=seed)
    orig_regions = extract_regions(orig, plan)
    cfg = select_intensity(orig_regions, extract_regions(dec, plan), eb, blocksize, family)
    return cfg, SampleSet(plan=plan, regions=tuple(orig_regions))


def _encode(payload, orig, dims: Dims, occupancy, policy, codec, lossless, post_family, seed) -> LevelArchive:
    """Compress ``payload`` into a level archive; with ``post_family``, fit
    the post filter on the encoder's reconstruction against ``orig``, the
    unpadded original values."""
    if post_family is None:
        blob = compress(payload, policy, codec=codec, lossless=lossless)
        return LevelArchive(dims=dims, blob=blob, occupancy=occupancy)
    # the encoder hands back the decoder's output, so fitting decodes nothing
    blob, dec = compress(payload, policy, codec=codec, lossless=lossless, recon=True)
    blocksize = post_blocksize(codec, blob.u)
    try:
        post, samples = _fit_intensity(orig, unpad(dec) if blob.padded else dec, policy.eb, blocksize,
                                       post_family, seed)
    except SamplingError:  # no sample region fits the level: store it without post
        return LevelArchive(dims=dims, blob=blob, occupancy=occupancy)
    return LevelArchive(dims=dims, blob=blob, occupancy=occupancy, post=post, samples=samples)


def compress_level(
    level: Level,
    policy: ErrorBoundPolicy,
    codec: str = "interp",
    arrangement: str = LINEAR,
    lossless: str = LOSSLESS_NONE,
    post_family=None,
    seed: int = 0,
) -> LevelArchive:
    """Merge one level's unit blocks and compress them into an archive.
    The merge is padded exactly when the codec is interp, the merge is
    linear and u > ``PAD_MIN_U``."""
    merged = linear_merge(level.blocks) if arrangement == LINEAR else stack_merge(level.blocks)
    pad = codec == "interp" and arrangement == LINEAR and level.u > PAD_MIN_U
    payload = pad_linear(merged) if pad else merged
    return _encode(payload, merged.values, level.dims, level.occupancy, policy, codec, lossless, post_family, seed)


def compress_volume(
    vol: Volume,
    policy: ErrorBoundPolicy,
    codec: str = "interp",
    lossless: str = LOSSLESS_NONE,
    post_family=None,
    seed: int = 0,
) -> LevelArchive:
    """Compress a whole volume as a single-level archive with no tiling."""
    return _encode(vol, vol.data, vol.dims, None, policy, codec, lossless, post_family, seed)


def decode_level(archive: LevelArchive) -> np.ndarray:
    """Decode a level's payload once: the codec's (z, y, x) array, unpadded
    (a view) and post-processed. decompress_level, decompress_volume and
    level_sample_pairs all start from it."""
    blob = archive.blob
    dec = decompress(blob)
    # levels are coded from finite data: a non-finite value means a corrupt stream
    if not np.isfinite(dec).all():
        raise FormatError("decoded level contains non-finite values")
    dec = unpad(dec) if blob.padded else dec
    if archive.post is not None:
        dec = apply_postprocess(dec, blob.policy.eb, archive.post_blocksize, archive.post)
    return dec


def decompress_level(archive: LevelArchive, decoded=None) -> Level:
    """Invert compress_level: returns the level, its blocks decoded.

    Post-processing, when configured, is applied to the unpadded merged
    array before it is split back into blocks. ``decoded`` is the level's
    decode_level output when the caller already holds it.
    """
    if archive.u == 0:
        raise ShapeError("archive holds a whole volume; use decompress_volume")
    dec = decode_level(archive) if decoded is None else decoded
    return Level(archive.dims, archive.u, archive.occupancy, unmerge(dec, archive.u, archive.blob.k))


def decompress_volume(archive: LevelArchive, decoded=None) -> Volume:
    """Invert compress_volume; ``decoded`` as for decompress_level, and
    adopted by the Volume without a copy."""
    if archive.u != 0:
        raise ShapeError("archive holds merged blocks; use decompress_level")
    # decode_level has checked the values finite; the post filter's clamped
    # convex combinations keep them so
    return Volume._adopt(decode_level(archive) if decoded is None else decoded, finite=True)


def level_sample_pairs(archive: LevelArchive, decoded=None):
    """Stored original sample regions paired with the matching regions of
    the decompressed (and post-processed) level; ``decoded`` as for
    decompress_level."""
    if archive.samples is None:
        raise ShapeError("archive stores no sample regions")
    dec = decode_level(archive) if decoded is None else decoded
    return archive.samples.regions, tuple(extract_regions(dec, archive.samples.plan))
