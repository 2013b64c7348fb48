"""Multi-level container file tying ROI, layout, codec, and analysis state.

Layout (``MRC2``), all integers little-endian:

    head (``_HEAD``)
        magic "MRC2"
        version         u16  (currently 2)
        scalar width    u8   (4: f32, 8: f64; the file's one record of the
                        scalar type: the width of its stored values,
                        interp literals and sidecar samples)
        level count     u8   (at least 1)
        roi block edge  u32  (0 when the file has no ROI semantics)
        roi percent     f64
    per level:
        record (``_LEVEL``): dims 3x u64 (full grid of the level), u u32
                        (0 for a whole volume)
        occupancy       when u > 0: one bit per block of the level's u-grid,
                        LSB-first in block-index order (bx fastest), padded
                        with zero bits to a byte; the blob holds the set
                        blocks in that order, and the fine level's bitmap
                        is the ROI mask
        blob            one self-delimiting compressed-array record
        post (``_POST``): family u8 (position in ``_POST_FAMILIES``; 0 off),
                        intensity 3x f64 (x, y, z; zeros when off), sidecar
                        offset u64 (absolute; 0 when absent)
    sidecars, in level order, each:
        head (``_SIDECAR``): flags u8 (exactly 1: a sample set), then the
                        plan: i u32, j u32, seed u64, edges 3x u64, region
                        count u64, achieved rate f64
        origins         ox, oy, oz as u64 triples
        payload         u64 length, then the region values at the scalar
                        width, deflated by zlib

Each fixed section is one ``struct.Struct`` that the writer and the reader
share, and the reader goes through :class:`~mrcompress.wire.Reader`, so no
count is trusted beyond the bytes that hold it. Re-encoding a decoded
container reproduces the input bytes exactly.

Unless the file is one whole-volume level, the reader checks its level
records with :func:`~mrcompress.roi.check_tiling` once they are all parsed,
before any payload is decoded: every level is tiled, the dims halve from
level to level, and the occupancy bitmaps tile the finest grid exactly
once. So every file the reader returns decodes into a valid dataset, and a
file whose levels do not fit together is a ``FormatError`` at read time.
A whole-volume level's dims must equal its blob's, so a corrupt blob
dims field cannot size a decode. Every level of a file has the one scalar
type its head records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .codec import STORED, CompressedBlob, ErrorBoundPolicy, compress
from .codec.blob import SCALAR_TYPES
from .codec.stored import STORED_POLICY
from .errors import CoverageError, FormatError, MrcError, ShapeError
from .layout import LINEAR, linear_merge, stack_merge
from .pipeline import LevelArchive, SampleSet, compress_level, decompress_level
from .postprocess import FAMILY_SZ, FAMILY_ZFP, IntensityConfig, SamplingPlan
from .roi import MultiResDataset, check_tiling
from .wire import U64, Reader, atomic_write, deflate, inflate, triples

MAGIC = b"MRC2"
VERSION = 2

# the wire byte of a post-filter family is its position here; None is off
_POST_FAMILIES = (None, FAMILY_SZ, FAMILY_ZFP)

_FLAG_SAMPLES = 1

_HEAD = struct.Struct("<4sHBBId")
_LEVEL = struct.Struct("<3QI")
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

    def __post_init__(self):
        if not self.levels:
            raise ShapeError("a container holds at least one level")
        if len(self.levels) > 255:
            raise ShapeError("level count exceeds the u8 field")
        object.__setattr__(self, "levels", tuple(self.levels))
        if len({lv.archive.blob.dtype for lv in self.levels}) > 1:
            raise ShapeError("the levels of a container share one scalar type")

    @property
    def dtype(self) -> np.dtype:
        """The scalar type of every level, which the head's width records."""
        return self.levels[0].archive.blob.dtype

    @property
    def roi_mask(self):
        """The fine level's (gz, gy, gx) occupancy; None for a whole
        volume."""
        return self.levels[0].archive.occupancy

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def original_bytes(self) -> int:
        return sum(lv.archive.blob.original_bytes for lv in self.levels)


def _pack_samples(s: SampleSet, dtype: np.dtype) -> bytes:
    p = s.plan
    head = _SIDECAR.pack(_FLAG_SAMPLES, p.i, p.j, p.seed, *p.edges, len(p.origins), p.achieved_rate)
    wire = dtype.newbyteorder("<")
    raw = np.concatenate([r.reshape(-1) for r in s.regions]).astype(wire).tobytes() if s.regions else b""
    packed = deflate(raw)
    return head + triples(p.origins) + U64.pack(len(packed)) + packed


def _unpack_samples(r: Reader, blob: CompressedBlob) -> SampleSet:
    """The sample sidecar at ``r``; each region must be nonempty and lie
    inside the level's decoded array, which is ``blob`` less its x and y
    pad layers, and its values are of the blob's scalar type."""
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
    wire = blob.dtype.newbyteorder("<")
    vals = np.frombuffer(inflate(packed, wire.itemsize * per * n), dtype=wire).astype(blob.dtype)
    if vals.size != per * n:
        raise FormatError("sample payload does not match the plan geometry")
    regions = tuple(vals[k * per : (k + 1) * per].reshape(ez, ey, ex) for k in range(n))
    plan = SamplingPlan(i=i, j=j, seed=seed, edges=(ex, ey, ez), origins=origins, achieved_rate=rate)
    return SampleSet(plan=plan, regions=regions)


def _unpack_occupancy(r: Reader, dims, u: int) -> np.ndarray:
    """The occupancy bitmap at ``r`` of a level of ``dims`` cells on a
    u-grid, as a (gz, gy, gx) bool array."""
    if any(d % u for d in dims):
        raise FormatError(f"level dims {tuple(dims)} not divisible by u={u}")
    gx, gy, gz = (d // u for d in dims)
    n = gx * gy * gz
    bits = np.unpackbits(r.array(np.uint8, (n + 7) // 8), bitorder="little")
    if bits[n:].any():
        raise FormatError("occupancy bitmap has padding bits set")
    return bits[:n].astype(bool).reshape(gz, gy, gx)


def encode_container(c: ContainerFile) -> bytes:
    out = bytearray(_HEAD.pack(MAGIC, VERSION, c.dtype.itemsize, c.n_levels, c.roi_b, c.roi_x_percent))
    patch_at = []
    for lv in c.levels:
        a = lv.archive
        out += _LEVEL.pack(*a.dims, a.u)
        if a.u:
            out += np.packbits(a.occupancy, bitorder="little").tobytes()
        out += a.blob.to_bytes()
        family, chosen = (a.post.family, a.post.chosen) if a.post else (None, (0.0, 0.0, 0.0))
        out += _POST.pack(_POST_FAMILIES.index(family), *chosen, 0)
        patch_at.append(len(out) - U64.size)
    for at, lv in zip(patch_at, c.levels):
        if lv.archive.samples is not None:
            U64.pack_into(out, at, len(out))
            out += _pack_samples(lv.archive.samples, c.dtype)
    return bytes(out)


def decode_container(buf: bytes) -> ContainerFile:
    r = Reader(buf)
    magic, version, width, n_levels, roi_b, roi_x = r.take(_HEAD)
    if magic[:3] != MAGIC[:3]:
        raise FormatError("not a container file (bad magic)")
    if magic != MAGIC or version != VERSION:
        raise FormatError(f"unsupported container version {version} ({magic!r})")
    dtype = next((t for t in SCALAR_TYPES if t.itemsize == width), None)
    if dtype is None:
        raise FormatError(f"unsupported scalar width {width}")
    if not n_levels:
        raise FormatError("a container holds at least one level")
    levels = []
    for _ in range(n_levels):
        nx, ny, nz, u = r.take(_LEVEL)
        occupancy = _unpack_occupancy(r, (nx, ny, nz), u) if u else None
        blob, r.offset = CompressedBlob.from_bytes(buf, r.offset, dtype)
        if u != blob.u:
            raise FormatError(f"level u={u} disagrees with its blob's u={blob.u}")
        if not u and blob.dims != (nx, ny, nz):
            raise FormatError(f"whole-volume level dims {(nx, ny, nz)} disagree with its blob's {blob.dims}")
        if u and int(occupancy.sum()) != blob.k:
            raise FormatError(f"level occupancy flags {int(occupancy.sum())} blocks, its blob holds {blob.k}")
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
        arch = LevelArchive(dims=(nx, ny, nz), blob=blob, occupancy=occupancy, post=post, samples=samples)
        levels.append(ContainerLevel(archive=arch))
    if n_levels > 1 or levels[0].archive.u:
        try:
            check_tiling([lv.archive for lv in levels])
        except (ShapeError, CoverageError) as exc:
            raise FormatError(f"container level geometry: {exc}") from exc
    return ContainerFile(levels=tuple(levels), roi_b=roi_b, roi_x_percent=roi_x)


def read_container(path) -> ContainerFile:
    with open(path, "rb") as fh:
        return decode_container(fh.read())


def write_container(c: ContainerFile, path) -> None:
    atomic_write(path, encode_container(c))


def container_from_dataset(
    ds: MultiResDataset,
    policy: ErrorBoundPolicy = None,
    codec: str = "interp",
    arrangement: str = LINEAR,
    lossless: str = "none",
    post_family=None,
    seed: int = 0,
    roi_b: int = 0,
    roi_x_percent: float = 0.0,
) -> ContainerFile:
    """Compress every level of a dataset into one container.

    With no policy the levels are stored verbatim (the ROI-selection
    output format). Trailing empty levels, the coarse level a fully-fine
    ROI leaves, are not stored; any other empty level raises ``ShapeError``,
    since the decoded refinement chain would lose it."""
    n = len(ds.levels)
    while not len(ds.levels[n - 1].blocks):
        n -= 1
    levels = []
    for li, lv in enumerate(ds.levels[:n]):
        if not len(lv.blocks):
            raise ShapeError(f"level {li} is empty but a coarser level is not; a container cannot store it")
        if policy is None:
            merged = linear_merge(lv.blocks) if arrangement == LINEAR else stack_merge(lv.blocks)
            blob = compress(merged, STORED_POLICY, codec=STORED)
            arch = LevelArchive(dims=lv.dims, blob=blob, occupancy=lv.occupancy)
        else:
            arch = compress_level(lv, policy, codec=codec, arrangement=arrangement, lossless=lossless,
                                  post_family=post_family, seed=seed)
        levels.append(ContainerLevel(archive=arch))
    return ContainerFile(levels=tuple(levels), roi_b=roi_b, roi_x_percent=roi_x_percent)


def dataset_from_container(c: ContainerFile) -> MultiResDataset:
    """Decompress every level back into a dataset."""
    return MultiResDataset(levels=tuple(decompress_level(lv.archive) for lv in c.levels))
