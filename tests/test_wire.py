"""The bounded reader, and every corrupt container ends in a FormatError.

The flip sweep walks each structured section of six containers with its
own copy of the layout sizes in the module docstrings, so a parser that
drifts from them shows up here as well. Every flip of an occupancy bitmap,
padding bits included, must end in a FormatError from the reader alone, as
must a multi-level file with a whole-volume level.
"""

import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from mrcompress.cli import main
from mrcompress.codec import ErrorBoundPolicy
from mrcompress.codec.entropy import LOSSLESS_ZLIB, HuffmanTable, entropy_decode, entropy_encode
from mrcompress.container import (
    ContainerFile,
    ContainerLevel,
    container_from_dataset,
    decode_container,
    encode_container,
)
from mrcompress.errors import FormatError
from mrcompress.pipeline import compress_volume, decode_level
from mrcompress.roi import RoiConfig, build_adaptive, select_roi
from mrcompress.wire import U64, Reader, inflate, triples

from helpers import sum_of_gaussians

_HEAD = struct.calcsize("<4sHBBId")
_LEVEL = struct.calcsize("<3QI")
_BLOB_HEADER = struct.calcsize("<4sB3QdBddBBIQ")
_POST = struct.calcsize("<B3dQ")
_SIDECAR = struct.calcsize("<BIIQ3QQd")
_STORED_HEAD = struct.calcsize("<QIQ")
_ARRANGEMENT_AT = 54  # in the blob header: after magic, codec, dims, eb, adaptive, alpha and beta
_PADDED_AT = 55


# ------------------------------------------------------------------ reader


def test_short_reads_raise_before_allocating():
    r = Reader(b"\x01\x00\x00\x00" + bytes(12))
    assert r.take(struct.Struct("<I")) == (1,)
    assert r.triples(0) == [] and r.offset == 4
    with pytest.raises(FormatError):
        r.array("<u8", 3 * 2**61)  # a corrupt count asks for 2**67 bytes
    with pytest.raises(FormatError):
        r.bytes(13)
    assert r.offset == 4  # a failed read consumes nothing
    assert r.array("<u4", 3).tolist() == [0, 0, 0] and r.offset == 16
    with pytest.raises(FormatError):
        Reader(b"abc", 5).take(U64)


def test_triples_round_trip():
    rows = [(0, 1, 2), (2**64 - 1, 7, 0)]
    assert Reader(triples(rows)).triples(2) == rows
    assert triples([]) == b""


def test_inflate_enforces_its_bound_and_the_stream_end():
    data = bytes(range(256)) * 4
    packed = zlib.compress(data)
    assert inflate(packed, len(data)) == data
    for bad in (packed[:-1], packed + b"\x00", b"not zlib"):
        with pytest.raises(FormatError):
            inflate(bad, len(data))
    with pytest.raises(FormatError):
        inflate(packed, len(data) - 1)
    assert inflate(packed, 2**70) == data  # past what zlib itself can cap


# ------------------------------------------------------------------- bombs


def _zlib_bomb(n_bytes: int) -> bytes:
    """A zlib stream of ``n_bytes`` zeros, built without holding them."""
    z = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    parts = [z.compress(chunk) for _ in range(n_bytes >> 20)]
    return b"".join(parts) + z.flush()


@pytest.fixture(scope="module")
def bomb():
    return _zlib_bomb(64 << 20)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_entropy_payload_bomb_stays_bounded(bomb):
    codes = np.arange(1000, dtype=np.int32) % 7
    stream = entropy_encode(codes, np.zeros(0), LOSSLESS_ZLIB)
    _, at = HuffmanTable.from_bytes(stream, 8)
    stream = stream[:at] + U64.pack(len(bomb)) + bomb
    assert _traced_peak_mb(lambda: entropy_decode(stream, codes.size, LOSSLESS_ZLIB)) < 10


def test_more_literals_than_codes_rejected():
    # every literal sits behind one escape code; a larger literal count
    # would lift the inflate cap
    stream = entropy_encode(np.zeros(1, np.int32), np.zeros(100))
    with pytest.raises(FormatError):
        entropy_decode(stream, 1)


def test_sample_payload_bomb_stays_bounded(bomb):
    v = sum_of_gaussians((32, 32, 32), seed=1)
    arch = compress_volume(v, ErrorBoundPolicy(eb=1e-3), post_family="sz")
    n = len(arch.samples.plan.origins)
    raw = encode_container(ContainerFile(levels=(ContainerLevel(archive=arch),)))
    # the sidecar is the file's tail: head, origins, payload length, payload
    at = len(encode_container(ContainerFile(levels=(ContainerLevel(archive=replace(arch, samples=None)),))))
    raw = raw[: at + _SIDECAR + 24 * n] + U64.pack(len(bomb)) + bomb
    assert _traced_peak_mb(lambda: decode_container(raw)) < 10


# -------------------------------------------------------------- flip sweep


def _roi_dataset(dims, seed):
    v = sum_of_gaussians(dims, seed=seed)
    cfg = RoiConfig(b=8, x_percent=25.0)
    return cfg, build_adaptive(v, select_roi(v, cfg), cfg)


@pytest.fixture(scope="module")
def built():
    cfg, ds32 = _roi_dataset((32, 32, 32), 15)
    # 48^3: the smallest edge at which both levels keep a sample sidecar
    _, ds48 = _roi_dataset((48, 48, 48), 6)
    # 5 x 3 x 4 blocks per level: bitmaps of 60 bits, so 4 padding bits each
    _, ragged = _roi_dataset((40, 24, 32), 17)
    policy = ErrorBoundPolicy(eb=1e-3)
    roi = dict(roi_b=cfg.b, roi_x_percent=cfg.x_percent)
    whole = compress_volume(sum_of_gaussians((32, 32, 32), seed=2), policy, post_family="sz")
    stored = container_from_dataset(ds32, **roi)
    # on the coarse level's dims, but a whole volume (u = 0) where a tiled level belongs
    whole16 = ContainerLevel(archive=compress_volume(sum_of_gaussians((16, 16, 16), seed=3), policy))
    return {
        "stored-roi": stored,
        "stored-roi-ragged": container_from_dataset(ragged, **roi),
        "interp-roi-zlib-sz": container_from_dataset(ds48, policy, lossless="zlib", post_family="sz", **roi),
        "block-stacked-zfp": container_from_dataset(ds32, policy, codec="block", arrangement="stacked",
                                                    lossless="zlib", post_family="zfp", **roi),
        "whole-volume": ContainerFile(levels=(ContainerLevel(archive=whole),)),
        "whole-second-level": ContainerFile(levels=(stored.levels[0], whole16), **roi),
    }


@pytest.fixture(scope="module")
def containers(built):
    return {name: encode_container(c) for name, c in built.items()}


def _table_ends(at, n):
    """The first and the last row of a u64-triple table of ``n`` rows."""
    return [(at, 24), (at + 24 * (n - 1), 24)] if n else []


def _occupancy_bytes(a):
    """Bytes of the occupancy bitmap of the level archive ``a``."""
    return (a.occupancy.size + 7) // 8 if a.u else 0


def _blob_offsets(c):
    """Offset of each level's blob in the encoded container ``c``."""
    off, out = _HEAD, []
    for lv in c.levels:
        a = lv.archive
        off += _LEVEL + _occupancy_bytes(a)
        out.append(off)
        off += len(a.blob.to_bytes()) + _POST
    return out


def _structured_spans(c, raw):
    """(offset, size, level) of every fixed-layout section of ``raw``, the
    encoded container ``c``, of its Huffman table heads and of the ends of
    its sample origin tables; ``level`` is the index of the level whose blob
    or post record the span lies in, "occupancy" for a level's bitmap, else
    None."""
    spans = [(0, _HEAD, None)]
    for k, (lv, at) in enumerate(zip(c.levels, _blob_offsets(c))):
        a, n = lv.archive, _occupancy_bytes(lv.archive)
        spans.append((at - n - _LEVEL, _LEVEL, None))
        if n:
            spans.append((at - n, n, "occupancy"))
        spans.append((at, _BLOB_HEADER, k))
        stream_at = at + _BLOB_HEADER + 8
        spans.append((stream_at - 8, 8, k))
        if a.blob.codec_name == "stored":
            spans.append((stream_at, _STORED_HEAD, k))
        else:  # literal count, table head; the payload length after the table
            spans.append((stream_at, 12, k))
            _, end = HuffmanTable.from_bytes(a.blob.stream, 8)
            spans.append((stream_at + end, 8, k))
        post_at = stream_at + len(a.blob.stream)
        spans.append((post_at, _POST, k))
        if a.samples is not None:
            (sc,) = U64.unpack_from(raw, post_at + _POST - 8)
            n_reg = len(a.samples.plan.origins)
            spans.append((sc, _SIDECAR, None))
            spans += [(o, s, None) for o, s in _table_ends(sc + _SIDECAR, n_reg)]
            spans.append((sc + _SIDECAR + 24 * n_reg, 8, None))
    return spans


_CONTAINERS = ["stored-roi", "stored-roi-ragged", "interp-roi-zlib-sz", "block-stacked-zfp", "whole-volume",
               "whole-second-level"]


@pytest.mark.parametrize("name", _CONTAINERS)
def test_every_structured_byte_flip_decodes_or_raises_format_error(built, containers, name):
    raw = containers[name]
    if name == "whole-second-level":
        # every level of a multi-level file is tiled
        with pytest.raises(FormatError, match="level 1 is a whole volume"):
            decode_container(raw)
    rejected = 0
    for at, size, level in _structured_spans(built[name], raw):
        for pos in range(at, at + size):
            for mask in (0x01, 0x80, 0xFF):
                bad = bytearray(raw)
                bad[pos] ^= mask
                if level == "occupancy":
                    # a bitmap flip never yields a valid file: it changes the
                    # block count, sets a padding bit or breaks the tiling,
                    # and the reader sees each before it decodes a payload
                    with pytest.raises(FormatError):
                        decode_container(bytes(bad))
                    rejected += 1
                    continue
                try:
                    c = decode_container(bytes(bad))
                    # only the level whose blob or post record changed can
                    # decode differently; sample sidecars are not decoded here
                    if level is not None and level < c.n_levels:
                        decode_level(c.levels[level].archive)
                except FormatError:
                    rejected += 1
                    continue
                # a file that decodes is canonical: it re-encodes to itself
                assert encode_container(c) == bad, (pos, mask)
    assert rejected


def test_the_ragged_bitmaps_carry_padding_bits(built):
    for lv in built["stored-roi-ragged"].levels:
        assert lv.archive.occupancy.size == 60


# --------------------------------------------------- malformed files, exit 3


_DIMS_FLIPS = [(pos, mask) for pos in range(24) for mask in (0x01, 0x80, 0xFF)]


@pytest.fixture(scope="module")
def flip_cases(built):
    stacked, roi, whole = built["block-stacked-zfp"], built["interp-roi-zlib-sz"], built["whole-volume"]
    cases = {}
    stored = built["stored-roi"]
    occupancy = _blob_offsets(stored)[0] - _occupancy_bytes(stored.levels[0].archive)
    record = occupancy - _LEVEL
    for pos, mask in _DIMS_FLIPS:  # the fine level's dims break the refinement chain
        raw = bytearray(encode_container(stored))
        raw[record + pos] ^= mask
        cases[f"fine-dims-{pos}-{mask:02x}"] = raw
    raw = bytearray(encode_container(stored))
    raw[occupancy] ^= 0x01  # one fine block more or less than the blob holds
    cases["fine-occupancy"] = raw
    # one fine block moved: the block count holds, the tiling breaks
    fine = stored.levels[0].archive.occupancy.reshape(-1)
    raw = bytearray(encode_container(stored))
    for bit in (np.argmax(fine), np.argmin(fine)):
        raw[occupancy + bit // 8] ^= 1 << (bit % 8)
    cases["fine-occupancy-moved"] = raw
    raw = bytearray(encode_container(roi))
    raw[7] = 0  # the level count
    cases["no-levels"] = raw
    raw = bytearray(encode_container(whole))
    at = _blob_offsets(whole)[0] + _ARRANGEMENT_AT
    assert raw[at] == 0
    raw[at] = 1  # a whole volume read as a linear merge
    cases["arrangement"] = raw
    for label, c, old in (("padded-linear", roi, 1), ("padded-stacked", stacked, 0)):
        raw = bytearray(encode_container(c))
        at = _blob_offsets(c)[0] + _PADDED_AT
        assert raw[at] == old
        raw[at] = 1 - old
        cases[label] = raw
    return cases


@pytest.mark.parametrize("case", ["no-levels", "arrangement", "padded-linear", "padded-stacked", "fine-occupancy",
                                  "fine-occupancy-moved"]
                         + [f"fine-dims-{pos}-{mask:02x}" for pos, mask in _DIMS_FLIPS])
def test_malformed_layout_bytes_exit_three(tmp_path, monkeypatch, flip_cases, case):
    import mrcompress.pipeline as pipeline

    path = tmp_path / "bad.mrc"
    path.write_bytes(bytes(flip_cases[case]))
    args = ["decompress", "--input", str(path), "--out", str(tmp_path / "out.raw")]
    # the reader rejects the file before any level's payload is decoded
    calls = []
    decompress = pipeline.decompress
    monkeypatch.setattr(pipeline, "decompress", lambda blob: calls.append(blob) or decompress(blob))
    assert main(args + ["--uniform"]) == 3
    assert calls == []
