"""Multi-level container file tying ROI, layout, codec, and analysis state.

Layout, all integers little-endian:

    magic "MRC1"
    version             u16  (currently 1)
    scalar width        u8   (bytes per stored value; 8)
    level count         u8
    roi block edge      u32  (0 when the file has no ROI semantics)
    roi percent         f64
    roi mask bits       u64, then ceil(bits/8) bytes, LSB-first,
                        fine-grid block-index order
    per level:
        dims            3x u64 (full grid of the level)
        u               u32
        block count     u64
        coord table     bx, by, bz as u64 triples
        blob            one self-delimiting compressed-array record
        post family     u8  (position in ``_POST_FAMILIES``; 0 off)
        post intensity  3x f64 (x, y, z; zeros when off)
        sidecar offset  u64 (absolute; 0 when absent)
    sidecars, in level order, each:
        flags           u8  (bit 0 sample set, bit 1 error model)
        sample set      plan + zlib-compressed region values
        error model     mu, sigma2, isovalue, window f64, n u64, fallback u8

Re-encoding a decoded container reproduces the input bytes exactly.
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
from .uncertainty import ErrorModel

MAGIC = b"MRC1"
VERSION = 1
SCALAR_WIDTH = 8

# the wire byte of a post-filter family is its position here; None is off
_POST_FAMILIES = (None, FAMILY_SZ, FAMILY_ZFP)

_FLAG_SAMPLES = 1
_FLAG_MODEL = 2

_ZLIB_LEVEL = 6  # fixed so re-encoding stays byte-identical


@dataclass(frozen=True)
class ContainerLevel:
    archive: LevelArchive
    model: Optional[ErrorModel] = None


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
    head = struct.pack(
        "<IIQ3QQd",
        p.i,
        p.j,
        p.seed,
        p.edges[0],
        p.edges[1],
        p.edges[2],
        len(p.origins),
        p.achieved_rate,
    )
    coords = b"".join(struct.pack("<3Q", *o) for o in p.origins)
    raw = np.concatenate([r.reshape(-1) for r in s.regions]).astype("<f8").tobytes() if s.regions else b""
    packed = zlib.compress(raw, _ZLIB_LEVEL)
    return head + coords + struct.pack("<Q", len(packed)) + packed


def _unpack_samples(buf: bytes, off: int, blob: CompressedBlob):
    """The sample set at ``off``; each region must be nonempty and lie inside
    the level's decoded array, which is ``blob`` less its x and y pad layers."""
    try:
        i, j, seed, ex, ey, ez, n, rate = struct.unpack_from("<IIQ3QQd", buf, off)
        off += struct.calcsize("<IIQ3QQd")
        origins = []
        for _ in range(n):
            origins.append(tuple(int(v) for v in struct.unpack_from("<3Q", buf, off)))
            off += 24
        (plen,) = struct.unpack_from("<Q", buf, off)
        off += 8
        packed = buf[off : off + plen]
        if len(packed) != plen:
            raise FormatError("sample payload truncated")
        off += plen
        raw = zlib.decompress(packed)
    except (struct.error, zlib.error) as exc:
        raise FormatError(f"bad sample sidecar: {exc}") from exc
    nx, ny, nz = blob.dims
    if blob.padded:
        nx, ny = nx - 1, ny - 1
    if min(ex, ey, ez) < 1 or any(ox + ex > nx or oy + ey > ny or oz + ez > nz for ox, oy, oz in origins):
        raise FormatError("a sample region lies outside its level's array")
    per = ex * ey * ez
    vals = np.frombuffer(raw, dtype="<f8")
    if vals.size != per * n:
        raise FormatError("sample payload does not match the plan geometry")
    regions = tuple(vals[k * per : (k + 1) * per].reshape(ez, ey, ex).astype(np.float64) for k in range(n))
    plan = SamplingPlan(
        i=int(i), j=int(j), seed=int(seed),
        edges=(int(ex), int(ey), int(ez)),
        origins=tuple(origins),
        achieved_rate=float(rate),
    )
    try:
        return SampleSet(plan=plan, regions=regions), off
    except MrcError as exc:
        raise FormatError(str(exc)) from exc


def _pack_model(m: ErrorModel) -> bytes:
    return struct.pack("<4dQB", m.mu, m.sigma2, m.isovalue, m.window, m.n_samples, 1 if m.fallback else 0)


def _unpack_model(buf: bytes, off: int):
    try:
        mu, sigma2, iso, window, n, fb = struct.unpack_from("<4dQB", buf, off)
    except struct.error as exc:
        raise FormatError(f"bad model sidecar: {exc}") from exc
    off += struct.calcsize("<4dQB")
    return ErrorModel(mu=mu, sigma2=sigma2, isovalue=iso, window=window, n_samples=int(n), fallback=bool(fb)), off


def encode_container(c: ContainerFile) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HBB", VERSION, SCALAR_WIDTH, c.n_levels)
    mask = c.roi_mask if c.roi_mask is not None else np.zeros(0, dtype=bool)
    out += struct.pack("<IdQ", c.roi_b, c.roi_x_percent, mask.size)
    if mask.size:
        out += np.packbits(mask, bitorder="little").tobytes()
    patch_at = []
    for lv in c.levels:
        a = lv.archive
        nx, ny, nz = a.dims
        out += struct.pack("<3QI", nx, ny, nz, a.u)
        coords = a.coords
        out += struct.pack("<Q", len(coords))
        for bc in coords:
            out += struct.pack("<3Q", bc.bx, bc.by, bc.bz)
        out += a.blob.to_bytes()
        family, chosen = (a.post.family, a.post.chosen) if a.post else (None, (0.0, 0.0, 0.0))
        out += struct.pack("<B3d", _POST_FAMILIES.index(family), *chosen)
        patch_at.append(len(out))
        out += struct.pack("<Q", 0)
    for k, lv in enumerate(c.levels):
        a = lv.archive
        flags = (_FLAG_SAMPLES if a.samples is not None else 0) | (_FLAG_MODEL if lv.model is not None else 0)
        if not flags:
            continue
        struct.pack_into("<Q", out, patch_at[k], len(out))
        out += struct.pack("<B", flags)
        if a.samples is not None:
            out += _pack_samples(a.samples)
        if lv.model is not None:
            out += _pack_model(lv.model)
    return bytes(out)


def decode_container(buf: bytes) -> ContainerFile:
    if buf[:4] != MAGIC:
        raise FormatError("not a container file (bad magic)")
    try:
        version, width, n_levels = struct.unpack_from("<HBB", buf, 4)
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        if width != SCALAR_WIDTH:
            raise FormatError(f"unsupported scalar width {width}")
        off = 8
        roi_b, roi_x, mask_bits = struct.unpack_from("<IdQ", buf, off)
        off += struct.calcsize("<IdQ")
        mask = None
        if mask_bits:
            nbytes = (mask_bits + 7) // 8
            if off + nbytes > len(buf):
                raise FormatError("container truncated inside the roi mask")
            raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off)
            mask = np.unpackbits(raw, bitorder="little")[:mask_bits].astype(bool)
            off += nbytes
        levels = []
        sidecar_offs = []
        for _ in range(n_levels):
            nx, ny, nz, u = struct.unpack_from("<3QI", buf, off)
            off += struct.calcsize("<3QI")
            (n_blocks,) = struct.unpack_from("<Q", buf, off)
            off += 8
            coords = []
            for _ in range(n_blocks):
                bx, by, bz = struct.unpack_from("<3Q", buf, off)
                off += 24
                coords.append((int(bx), int(by), int(bz)))
            blob, off = CompressedBlob.from_bytes(buf, off)
            if [(bc.bx, bc.by, bc.bz) for bc in blob.order] != coords:
                raise FormatError("level coord table disagrees with its blob")
            if u != blob.u:
                raise FormatError(f"level u={u} disagrees with its blob's u={blob.u}")
            fam_code, ax, ay, az = struct.unpack_from("<B3d", buf, off)
            off += struct.calcsize("<B3d")
            if fam_code >= len(_POST_FAMILIES):
                raise FormatError(f"unknown post-processing family code {fam_code}")
            family, post = _POST_FAMILIES[fam_code], None
            if family is not None:
                try:
                    post = IntensityConfig(family=family, chosen=(ax, ay, az))
                except MrcError as exc:
                    raise FormatError(str(exc)) from exc
            (sc_off,) = struct.unpack_from("<Q", buf, off)
            off += 8
            sidecar_offs.append(sc_off)
            levels.append(((int(nx), int(ny), int(nz)), blob, post))
    except struct.error as exc:
        raise FormatError(f"container truncated: {exc}") from exc
    out = []
    for (dims, blob, post), sc_off in zip(levels, sidecar_offs):
        samples = None
        model = None
        if sc_off:
            if sc_off >= len(buf):
                raise FormatError("sidecar offset beyond end of file")
            try:
                (flags,) = struct.unpack_from("<B", buf, sc_off)
            except struct.error as exc:
                raise FormatError(f"container truncated: {exc}") from exc
            p = sc_off + 1
            if flags & _FLAG_SAMPLES:
                samples, p = _unpack_samples(buf, p, blob)
            if flags & _FLAG_MODEL:
                model, p = _unpack_model(buf, p)
        arch = LevelArchive(dims=dims, blob=blob, post=post, samples=samples)
        out.append(ContainerLevel(archive=arch, model=model))
    return ContainerFile(
        levels=tuple(out),
        roi_b=int(roi_b),
        roi_x_percent=float(roi_x),
        roi_mask=mask,
    )


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
