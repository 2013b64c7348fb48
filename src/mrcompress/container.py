"""Multi-level container file tying ROI, layout, codec, and analysis state.

Layout, all integers little-endian:

    head (``_HEAD``)
        magic "MRC1"
        version         u16  (currently 1)
        scalar width    u8   (bytes per stored value; 8)
        level count     u8   (at least 1)
        roi block edge  u32  (0 when the file has no ROI semantics)
        roi percent     f64
        roi mask bits   u64
    roi mask            ceil(bits/8) bytes, LSB-first, fine-grid block-index order
    per level:
        record (``_LEVEL``): dims 3x u64 (full grid of the level), u u32,
                        block count u64
        coord table     bx, by, bz as u64 triples
        blob            one self-delimiting compressed-array record
        post (``_POST``): family u8 (position in ``_POST_FAMILIES``; 0 off),
                        intensity 3x f64 (x, y, z; zeros when off), sidecar
                        offset u64 (absolute; 0 when absent)
    sidecars, in level order, each:
        head (``_SIDECAR``): flags u8 (exactly 1: a sample set), then the
                        plan: i u32, j u32, seed u64, edges 3x u64, region
                        count u64, achieved rate f64
        origins         ox, oy, oz as u64 triples
        payload         u64 length, then the region values as zlib-compressed f64

Each fixed section is one ``struct.Struct`` that the writer and the reader
share, and the reader goes through :class:`~mrcompress.wire.Reader`, so no
count is trusted beyond the bytes that hold it. Re-encoding a decoded
container reproduces the input bytes exactly.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import STORED, CompressedBlob, ErrorBoundPolicy, compress
from .codec.stored import STORED_POLICY
from .errors import FormatError, MrcError, ShapeError
from .layout import LINEAR, linear_merge, stack_merge
from .pipeline import LevelArchive, SampleSet, compress_level, decompress_level
from .postprocess import FAMILY_SZ, FAMILY_ZFP, IntensityConfig, SamplingPlan
from .roi import Level, MultiResDataset
from .wire import U64, Reader, inflate, triples

MAGIC = b"MRC1"
VERSION = 1
SCALAR_WIDTH = 8

# the wire byte of a post-filter family is its position here; None is off
_POST_FAMILIES = (None, FAMILY_SZ, FAMILY_ZFP)

_FLAG_SAMPLES = 1

_ZLIB_LEVEL = 6  # fixed so re-encoding stays byte-identical

_HEAD = struct.Struct("<4sHBBIdQ")
_LEVEL = struct.Struct("<3QIQ")
_POST = struct.Struct("<B3dQ")
_SIDECAR = struct.Struct("<BIIQ3QQd")


@dataclass(frozen=True)
class ContainerLevel:
    archive: LevelArchive


@dataclass(frozen=True)
class ContainerFile:
    levels: tuple
    roi_b: int = 0
    roi_x_percent: float = 0.0
    roi_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.levels:
            raise ShapeError("a container holds at least one level")
        if len(self.levels) > 255:
            raise ShapeError("level count exceeds the u8 field")
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.roi_mask is not None:
            m = np.ascontiguousarray(self.roi_mask, dtype=bool).reshape(-1)
            m.flags.writeable = False
            object.__setattr__(self, "roi_mask", m)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def original_bytes(self) -> int:
        return sum(lv.archive.blob.original_bytes for lv in self.levels)


def _pack_samples(s: SampleSet) -> bytes:
    p = s.plan
    head = _SIDECAR.pack(_FLAG_SAMPLES, p.i, p.j, p.seed, *p.edges, len(p.origins), p.achieved_rate)
    raw = np.concatenate([r.reshape(-1) for r in s.regions]).astype("<f8").tobytes() if s.regions else b""
    packed = zlib.compress(raw, _ZLIB_LEVEL)
    return head + triples(p.origins) + U64.pack(len(packed)) + packed


def _unpack_samples(r: Reader, blob: CompressedBlob) -> SampleSet:
    """The sample sidecar at ``r``; each region must be nonempty and lie
    inside the level's decoded array, which is ``blob`` less its x and y
    pad layers."""
    flags, i, j, seed, ex, ey, ez, n, rate = r.take(_SIDECAR)
    if flags != _FLAG_SAMPLES:
        raise FormatError(f"unknown sidecar flags {flags}")
    origins = tuple(r.triples(n))
    (plen,) = r.take(U64)
    packed = r.bytes(plen)
    nx, ny, nz = blob.dims
    if blob.padded:
        nx, ny = nx - 1, ny - 1
    if min(ex, ey, ez) < 1 or any(ox + ex > nx or oy + ey > ny or oz + ez > nz for ox, oy, oz in origins):
        raise FormatError("a sample region lies outside its level's array")
    per = ex * ey * ez
    vals = np.frombuffer(inflate(packed, 8 * per * n), dtype="<f8")
    if vals.size != per * n:
        raise FormatError("sample payload does not match the plan geometry")
    regions = tuple(vals[k * per : (k + 1) * per].reshape(ez, ey, ex) for k in range(n))
    plan = SamplingPlan(i=i, j=j, seed=seed, edges=(ex, ey, ez), origins=origins, achieved_rate=rate)
    return SampleSet(plan=plan, regions=regions)


def encode_container(c: ContainerFile) -> bytes:
    mask = c.roi_mask if c.roi_mask is not None else np.zeros(0, dtype=bool)
    out = bytearray(_HEAD.pack(MAGIC, VERSION, SCALAR_WIDTH, c.n_levels, c.roi_b, c.roi_x_percent, mask.size))
    out += np.packbits(mask, bitorder="little").tobytes()
    patch_at = []
    for lv in c.levels:
        a = lv.archive
        out += _LEVEL.pack(*a.dims, a.u, len(a.coords))
        out += triples([(bc.bx, bc.by, bc.bz) for bc in a.coords])
        out += a.blob.to_bytes()
        family, chosen = (a.post.family, a.post.chosen) if a.post else (None, (0.0, 0.0, 0.0))
        out += _POST.pack(_POST_FAMILIES.index(family), *chosen, 0)
        patch_at.append(len(out) - U64.size)
    for at, lv in zip(patch_at, c.levels):
        if lv.archive.samples is not None:
            U64.pack_into(out, at, len(out))
            out += _pack_samples(lv.archive.samples)
    return bytes(out)


def decode_container(buf: bytes) -> ContainerFile:
    r = Reader(buf)
    magic, version, width, n_levels, roi_b, roi_x, mask_bits = r.take(_HEAD)
    if magic != MAGIC:
        raise FormatError("not a container file (bad magic)")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if width != SCALAR_WIDTH:
        raise FormatError(f"unsupported scalar width {width}")
    if not n_levels:
        raise FormatError("a container holds at least one level")
    mask = None
    if mask_bits:
        raw = r.array(np.uint8, (mask_bits + 7) // 8)
        mask = np.unpackbits(raw, bitorder="little")[:mask_bits].astype(bool)
    levels = []
    for _ in range(n_levels):
        nx, ny, nz, u, n_blocks = r.take(_LEVEL)
        coords = r.triples(n_blocks)
        blob, r.offset = CompressedBlob.from_bytes(buf, r.offset)
        if [(bc.bx, bc.by, bc.bz) for bc in blob.order] != coords:
            raise FormatError("level coord table disagrees with its blob")
        if u != blob.u:
            raise FormatError(f"level u={u} disagrees with its blob's u={blob.u}")
        fam_code, ax, ay, az, sc_off = r.take(_POST)
        if fam_code >= len(_POST_FAMILIES):
            raise FormatError(f"unknown post-processing family code {fam_code}")
        family, post = _POST_FAMILIES[fam_code], None
        # no post filter is written as +0.0 intensities; any set bit, the
        # sign of a -0.0 included, would not re-encode to the same bytes
        if family is None and np.array((ax, ay, az)).view(np.uint64).any():
            raise FormatError("intensities without a post-processing family")
        if family is not None:
            try:
                post = IntensityConfig(family=family, chosen=(ax, ay, az))
            except MrcError as exc:
                raise FormatError(str(exc)) from exc
        samples = _unpack_samples(Reader(buf, sc_off), blob) if sc_off else None
        arch = LevelArchive(dims=(nx, ny, nz), blob=blob, post=post, samples=samples)
        levels.append(ContainerLevel(archive=arch))
    return ContainerFile(levels=tuple(levels), roi_b=roi_b, roi_x_percent=roi_x, roi_mask=mask)


def read_container(path) -> ContainerFile:
    with open(path, "rb") as fh:
        return decode_container(fh.read())


def write_container(c: ContainerFile, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_container(c))


def container_from_dataset(
    ds: MultiResDataset,
    policy: ErrorBoundPolicy = None,
    codec: str = "interp",
    arrangement: str = LINEAR,
    pad: str = "auto",
    lossless: str = "none",
    post_family=None,
    sample_rate: float = 0.05,
    seed: int = 0,
    roi_b: int = 0,
    roi_x_percent: float = 0.0,
) -> ContainerFile:
    """Compress every level of a dataset into one container.

    With no policy the levels are stored verbatim (the ROI-selection
    output format)."""
    levels = []
    for lv in ds.levels:
        if not lv.blocks:  # a fully-fine ROI leaves the coarse level empty
            continue
        if policy is None:
            merged = linear_merge(list(lv.blocks)) if arrangement == LINEAR else stack_merge(list(lv.blocks))
            arch = LevelArchive(dims=lv.dims, blob=compress(merged, STORED_POLICY, codec=STORED))
        else:
            arch = compress_level(
                list(lv.blocks), lv.dims, lv.u, policy,
                codec=codec, arrangement=arrangement, pad=pad,
                lossless=lossless, post_family=post_family,
                sample_rate=sample_rate, seed=seed,
            )
        levels.append(ContainerLevel(archive=arch))
    return ContainerFile(
        levels=tuple(levels),
        roi_b=roi_b,
        roi_x_percent=roi_x_percent,
        roi_mask=ds.roi_mask,
    )


def dataset_from_container(c: ContainerFile) -> MultiResDataset:
    """Decompress every level back into a dataset."""
    levels = []
    for lv in c.levels:
        blocks = decompress_level(lv.archive)
        levels.append(Level(dims=lv.archive.dims, u=lv.archive.u, blocks=tuple(blocks)))
    return MultiResDataset(levels=tuple(levels), roi_mask=c.roi_mask)
