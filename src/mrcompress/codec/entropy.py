"""Canonical Huffman coding of quantizer output.

The code stream is a plain symbol sequence (quantization codes plus the
literal escape mark), so a per-blob canonical table is enough.

The packed bitstream is split into lanes of ``LANE_CODES`` consecutive
codes (the last lane may be shorter), in the manner of the chunked Huffman
coders of cuSZ. Every lane starts on a byte boundary and is zero-padded to
a whole byte; a table of u16 lane lengths in bits heads the bitstream (bits,
not bytes, so a decoder that was told the wrong code count always lands
off a lane's end, even where the difference would fit in the padding). The
lane count follows from the number of codes alone, never from the thread
count or the machine, so the bytes are the same everywhere.

Decoding advances all lanes in lockstep, one symbol per lane per step: each
step peeks a window at every lane's bit position, resolves codes of up to
``_LUT_BITS`` bits with one table lookup, and falls back to the canonical
limits table for longer ones. Encoding joins adjacent codes into pairs of
at most 64 bits, left-justified (an odd count ends with a zero-length pad
code), and places each pair into 64-bit words from its cumulative bit
offset; lanes hold an even number of codes, so no pair crosses a lane.
Lanes are independent, so packing runs in groups of ``_GROUP_LANES`` (64)
lanes and joins the groups' lane tables, then their bodies: its working
memory is bounded by the group, and the bytes do not depend on the group
size.

An optional general-purpose lossless pass (zlib) can squeeze the packed
payload further; it is off by default. Undoing it is capped at the largest
payload the code and literal counts allow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, ShapeError
from ..grid import scalar_array
from ..wire import U32, U64, Reader, deflate, inflate

MAX_CODE_LEN = 32
# codes per lane; a lane of MAX_CODE_LEN-bit codes must fit a u16 bit length
LANE_CODES = 1024
_LUT_BITS = 16
_LEN_BITS = 6  # lookup entries hold (rank << _LEN_BITS) | code length
_OUT_BLOCK = 128  # lanes transposed at a time into the decoded output
_GROUP_LANES = 64  # lanes packed at a time
# symbol spans up to this size pack through dense per-symbol tables; every
# codec stream fits (its symbols lie in [-CODE_CAP - 1, CODE_CAP + 1])
_DENSE_SPAN = 1 << 17

LOSSLESS_NONE = "none"
LOSSLESS_ZLIB = "zlib"


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    """Code length per symbol index, deterministic under frequency ties.

    A two-queue Huffman build: the leaves sorted by (count, index), and the
    merged nodes in creation order, which is nondecreasing in frequency.
    Taking the smaller head, the leaf on a tie, pops nodes in the same
    (frequency, id) order as a heap of leaves with ids 0..n-1 and merged
    nodes numbered from n upwards.
    """
    n = counts.size
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    if n == 1:
        return np.ones(1, dtype=np.uint8)
    work = counts.astype(np.int64)
    while True:
        order = np.argsort(work, kind="stable")
        leaf_f = work[order].tolist()
        leaf_id = order.tolist()
        node_f = []
        parent = [0] * (2 * n - 1)
        i = j = 0
        for node in range(n, 2 * n - 1):
            f = 0
            for _ in range(2):
                if j == len(node_f) or (i < n and leaf_f[i] <= node_f[j]):
                    f += leaf_f[i]
                    parent[leaf_id[i]] = node
                    i += 1
                else:
                    f += node_f[j]
                    parent[n + j] = node
                    j += 1
            node_f.append(f)
        depth = [0] * (2 * n - 1)
        # parents always have larger ids, so one reverse sweep resolves depths
        for node in range(2 * n - 3, -1, -1):
            depth[node] = depth[parent[node]] + 1
        lengths = np.array(depth[:n], dtype=np.int64)
        if lengths.max() <= MAX_CODE_LEN:
            return lengths.astype(np.uint8)
        # flatten the distribution until the tree fits the decoder window
        work = (work + 1) // 2
        work[work < 1] = 1


@dataclass(frozen=True)
class HuffmanTable:
    """Canonical table: symbols with their code lengths, codes assigned in
    (length, symbol) order."""

    symbols: np.ndarray  # int32, ascending
    lengths: np.ndarray  # uint8, aligned with symbols

    def __post_init__(self):
        sym = np.ascontiguousarray(self.symbols, dtype=np.int32)
        ln = np.ascontiguousarray(self.lengths, dtype=np.uint8)
        if sym.shape != ln.shape or sym.ndim != 1:
            raise ShapeError("symbols and lengths must be aligned 1D arrays")
        if sym.size > 1 and not (sym[1:] > sym[:-1]).all():
            raise FormatError("table symbols must be strictly ascending")
        if sym.size and (ln.max() > MAX_CODE_LEN or ln.min() < 1):
            raise FormatError(f"code lengths must lie in [1, {MAX_CODE_LEN}]")
        sym.flags.writeable = False
        ln.flags.writeable = False
        object.__setattr__(self, "symbols", sym)
        object.__setattr__(self, "lengths", ln)

    @property
    def n_symbols(self) -> int:
        return int(self.symbols.size)

    def canonical(self):
        """Returns (codevals aligned with symbols, plus the per-length decode
        tables: present lengths, left-justified limits, first codes, symbol
        rank offsets, rank -> symbol map)."""
        order = np.lexsort((self.symbols, self.lengths))
        lens_sorted = self.lengths[order].astype(np.int64)
        present, counts = np.unique(lens_sorted, return_counts=True)
        first = np.zeros(present.size, dtype=np.uint64)
        code = 0
        prev = 0
        for i, (l, c) in enumerate(zip(present, counts)):
            code <<= int(l - prev)
            first[i] = code
            code += int(c)
            prev = int(l)
        if self.n_symbols > 1 and code != (1 << prev):
            raise FormatError("code lengths violate the Kraft equality")
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        limits = ((first + counts.astype(np.uint64)) << (MAX_CODE_LEN - present).astype(np.uint64))
        # canonical code value per symbol, in table order
        ranks = np.empty(self.n_symbols, dtype=np.int64)
        ranks[order] = np.arange(self.n_symbols)
        len_idx = np.searchsorted(present, self.lengths.astype(np.int64))
        codevals = first[len_idx] + (ranks - offsets[len_idx]).astype(np.uint64)
        rank_to_symbol = self.symbols[order]
        return codevals, present, limits, first, offsets, rank_to_symbol

    def to_bytes(self) -> bytes:
        return U32.pack(self.n_symbols) + self.symbols.astype("<i4").tobytes() + self.lengths.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int = 0) -> tuple["HuffmanTable", int]:
        r = Reader(buf, offset)
        (n,) = r.take(U32)
        symbols = r.array("<i4", n).astype(np.int32)
        lengths = r.array(np.uint8, n).copy()
        return cls(symbols, lengths), r.offset


def build_table(codes: np.ndarray) -> HuffmanTable:
    symbols, counts = np.unique(np.asarray(codes, dtype=np.int32), return_counts=True)
    return HuffmanTable(symbols, _huffman_lengths(counts))


def _lane_count(n_codes: int) -> int:
    return -(-n_codes // LANE_CODES)


def _code_words(table: HuffmanTable):
    """Function mapping a code array to the (length, left-justified code
    word) of every code, with its lookup tables built once."""
    if not table.n_symbols:
        raise ShapeError("code stream contains symbols missing from the table")
    codevals, *_ = table.canonical()
    # every code left-justified in a 64-bit word
    sym_lj = codevals << (64 - table.lengths.astype(np.uint64))
    lo = int(table.symbols[0])
    span = int(table.symbols[-1]) - lo + 1
    if span > _DENSE_SPAN:

        def words(codes):
            idx = np.searchsorted(table.symbols, codes)
            if not (table.symbols.take(idx, mode="clip") == codes).all():
                raise ShapeError("code stream contains symbols missing from the table")
            return table.lengths[idx], sym_lj[idx]
        return words
    # dense tables over [lo, lo + span]; the extra last entry, of length 0,
    # catches every code outside the span, and the gaps catch the rest
    dense_ln = np.zeros(span + 1, dtype=np.uint8)
    dense_lj = np.zeros(span + 1, dtype=np.uint64)
    at = table.symbols.astype(np.int64) - lo
    dense_ln[at] = table.lengths
    dense_lj[at] = sym_lj

    def words(codes):
        at = codes.astype(np.int64)
        at -= lo
        np.minimum(at.view(np.uint64), np.uint64(span), out=at.view(np.uint64))
        ln = dense_ln.take(at)
        if not ln.all():
            raise ShapeError("code stream contains symbols missing from the table")
        return ln, dense_lj.take(at)
    return words


def _pack_lanes(ln: np.ndarray, lj: np.ndarray):
    """(u16 lane bit lengths, lane bytes) of whole lanes of codes given as
    lengths and left-justified code words."""
    u64 = np.uint64
    if ln.size % 2:  # a zero-length pad code completes the last pair
        ln, lj = np.append(ln, np.uint8(0)), np.append(lj, u64(0))
    # adjacent codes join into left-justified pairs of at most 64 bits; a
    # lane's codes are whole pairs, the pad's lane included
    n_lanes = _lane_count(ln.size)
    pair_ln = ln[0::2] + ln[1::2]
    pair = lj[1::2] >> ln[0::2]
    pair |= lj[0::2]
    del ln, lj
    lane_pairs = LANE_CODES // 2
    n = pair.size
    # bit offset of every pair as if unframed, then moved to its lane's
    # byte-aligned start
    pos = np.cumsum(pair_ln, dtype=u64)
    lane_end = pos[np.minimum(np.arange(1, n_lanes + 1) * lane_pairs, n) - 1]
    lane_bits = np.diff(lane_end, prepend=u64(0))
    lane_bytes = (lane_bits + u64(7)) >> u64(3)
    lane_shift = u64(8) * (np.cumsum(lane_bytes) - lane_bytes) - (lane_end - lane_bits)
    pos -= pair_ln
    whole = n // lane_pairs
    pos[: whole * lane_pairs].reshape(whole, lane_pairs)[...] += lane_shift[:whole, None]
    pos[whole * lane_pairs :] += lane_shift[whole:]
    # each pair lands in the word holding its first bit; bits never
    # overlap, so pairs sharing a word are ORed together, and only the
    # last pair starting in a word can spill its tail into the next one
    off = pos & u64(63)
    word = (pos >> u64(6)).view(np.int64)
    del pos
    total_bytes = int(lane_bytes.sum())
    words = np.zeros(total_bytes // 8 + 2, dtype=u64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] = np.bitwise_or.reduceat(pair >> off, first)
    last = np.append(first[1:] - 1, n - 1)
    last = last[off[last] + pair_ln[last] > u64(64)]
    words[word[last] + 1] |= pair[last] << (u64(64) - off[last])
    return lane_bits.astype("<u2").tobytes(), words.astype(">u8").tobytes()[:total_bytes]


def pack_codes(table: HuffmanTable, codes: np.ndarray) -> bytes:
    """Lane-framed MSB-first bit packing of the code sequence:
    [u16 bit length per lane][lane 0 bytes][lane 1 bytes]..., each lane
    zero-padded to a whole byte."""
    codes = np.asarray(codes, dtype=np.int32).reshape(-1)
    if codes.size == 0:
        return b""
    words = _code_words(table)
    group = _GROUP_LANES * LANE_CODES
    heads, bodies = zip(*(
        _pack_lanes(*words(codes[lo : lo + group])) for lo in range(0, codes.size, group)
    ))
    return b"".join(heads + bodies)


def _lookup_table(table: HuffmanTable) -> np.ndarray:
    """Entry per ``_LUT_BITS``-bit prefix: (rank << _LEN_BITS) | length of
    the code it starts with, or 0 when that code is longer (or invalid).
    Canonical codes ascend in rank order, so the short ones fill a prefix
    of the table."""
    ln = np.sort(table.lengths).astype(np.uint64)  # lengths in rank order
    k = int(np.searchsorted(ln, _LUT_BITS, side="right"))
    spans = 1 << (_LUT_BITS - ln[:k].astype(np.int64))
    entries = (np.arange(k, dtype=np.uint64) << np.uint64(_LEN_BITS)) | ln[:k]
    lut = np.zeros(1 << _LUT_BITS, dtype=np.uint64)
    lut[: int(spans.sum())] = np.repeat(entries, spans)
    return lut


def _windows(data: bytes, n: int) -> np.ndarray:
    """Big-endian u64 starting at each byte offset below ``n`` (rounded up
    to a multiple of 8), reading zeros past the end of ``data``."""
    n = -(-n // 8) * 8
    buf = np.zeros(n + 8, dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    win = np.empty(n, dtype=np.uint64)
    for k in range(8):
        win[k::8] = np.frombuffer(buf, dtype=">u8", count=n // 8, offset=k)
    return win


def unpack_codes(table: HuffmanTable, data: bytes, n_codes: int) -> np.ndarray:
    """Decode exactly ``n_codes`` symbols from a bitstream written by
    :func:`pack_codes`; any stream that does not hold exactly that many
    codes under ``table`` raises :class:`FormatError`."""
    if n_codes == 0:
        if data:
            raise FormatError("bitstream holds bytes but no codes were expected")
        return np.zeros(0, dtype=np.int32)
    if table.n_symbols == 0:
        raise FormatError("empty table cannot decode a nonempty stream")
    # the step table holds (rank << _LEN_BITS) | length in a u32
    if table.n_symbols > 1 << (32 - _LEN_BITS):
        raise FormatError("table has more symbols than the decoder can rank")
    n_lanes = _lane_count(n_codes)
    head = 2 * n_lanes
    lane_bits = Reader(data).array("<u2", n_lanes).astype(np.int64)
    lane_bytes = (lane_bits + 7) >> 3
    if head + int(lane_bytes.sum()) != len(data):
        raise FormatError("lane lengths do not add up to the bitstream length")
    steps = min(n_codes, LANE_CODES)
    last_count = n_codes - (n_lanes - 1) * LANE_CODES
    lane_codes = np.full(n_lanes, LANE_CODES)
    lane_codes[-1] = last_count
    # every code takes 1 to MAX_CODE_LEN bits, which also caps the decoder's
    # memory at a fixed multiple of the input
    if (lane_bits < lane_codes).any() or (lane_bits > MAX_CODE_LEN * lane_codes).any():
        raise FormatError("a lane length does not fit its code count")
    _, present, limits, first, offsets, rank_to_symbol = table.canonical()
    lut = _lookup_table(table)
    # long codes, compared left-justified in the 64-bit window: limits at
    # 2**32 are never exceeded, and rank = offset + code - first is formed
    # in wrapping u64 arithmetic that is exact for every valid code
    u64 = np.uint64
    wide_limits = limits[limits < (1 << MAX_CODE_LEN)] << u64(64 - MAX_CODE_LEN)
    long_shift = u64(64) - present.astype(u64)
    long_entry = ((offsets.astype(u64) - first) << u64(_LEN_BITS)) + present.astype(u64)
    lane_start = 8 * (head + np.cumsum(lane_bytes) - lane_bytes)
    pos = lane_start.astype(u64)
    # a lane overrunning its end reads at most MAX_CODE_LEN bits per step
    win = _windows(data, len(data) + steps * MAX_CODE_LEN // 8 + 1)
    found = np.zeros((steps, n_lanes), dtype=np.uint32)  # lookup entries per step
    three, seven = u64(3), u64(7)
    lut_shift = u64(64 - _LUT_BITS)
    len_mask = u64((1 << _LEN_BITS) - 1)
    # the loop runs up to LANE_CODES times, so its per-call overhead counts:
    # every step works in preallocated buffers, and gathers index through
    # int64 views (numpy indexes with uint64 several times slower) in mode
    # "clip" (mode "raise" copies through a buffer; the windows cover every
    # index a lane can reach)
    p, tmp, w, e = pos, np.empty_like(pos), np.empty_like(pos), np.empty_like(pos)
    at = tmp.view(np.int64)
    for s in range(steps):
        if s == last_count:  # the short last lane is done
            p, tmp, at, w, e = p[:-1], tmp[:-1], at[:-1], w[:-1], e[:-1]
        np.right_shift(p, three, out=tmp)
        win.take(at, out=w, mode="clip")
        np.bitwise_and(p, seven, out=tmp)
        np.left_shift(w, tmp, out=w)
        np.right_shift(w, lut_shift, out=tmp)
        lut.take(at, out=e, mode="clip")
        if np.count_nonzero(e) < e.size:
            # codes longer than the lookup window: canonical limits search
            slow = np.flatnonzero(e == 0)
            sel = w[slow]
            li = np.searchsorted(wide_limits, sel, side="right")
            if int(li.max()) >= present.size:
                raise FormatError("bitstream does not decode under the stored table")
            sel >>= long_shift[li]
            sel <<= u64(_LEN_BITS)
            sel += long_entry[li]
            e[slow] = sel
        found[s, : e.size] = e
        np.bitwise_and(e, len_mask, out=tmp)
        p += tmp
    # every lane must end exactly at its declared length, padded with zeros
    if not np.array_equal(pos.astype(np.int64), lane_start + lane_bits):
        raise FormatError("a lane does not end at its declared bit length")
    pad = 8 * lane_bytes - lane_bits
    last_byte = np.frombuffer(data, dtype=np.uint8)[(lane_start >> 3) + lane_bytes - 1]
    if (last_byte & ((1 << pad) - 1)).any():
        raise FormatError("nonzero pad bits after a lane")
    # lane-major output; transposing a few lanes at a time keeps the reads
    # of the step-major ranks within a few pages
    out = np.empty((n_lanes, steps), dtype=np.int32)
    for lo in range(0, n_lanes, _OUT_BLOCK):
        ranks = found[:, lo : lo + _OUT_BLOCK].T >> np.uint32(_LEN_BITS)
        out[lo : lo + _OUT_BLOCK] = rank_to_symbol[ranks.view(np.int32)]
    return out.reshape(-1)[:n_codes]


def entropy_encode(
    codes: np.ndarray, literals: np.ndarray, lossless: str = LOSSLESS_NONE
) -> bytes:
    """Serialize one quantized stream as
    [literal count u64][table][payload length u64][payload], where the payload
    is the packed bitstream followed by the literal values, little-endian
    f32 when ``literals`` is float32 and f64 otherwise."""
    codes = np.asarray(codes, dtype=np.int32).reshape(-1)
    literals = scalar_array(literals).reshape(-1)
    table = build_table(codes)
    payload = pack_codes(table, codes) + literals.astype(literals.dtype.newbyteorder("<")).tobytes()
    if lossless == LOSSLESS_ZLIB:
        payload = deflate(payload)
    elif lossless != LOSSLESS_NONE:
        raise ShapeError(f"unknown lossless pass {lossless!r}")
    return U64.pack(literals.size) + table.to_bytes() + U64.pack(len(payload)) + payload


def entropy_decode(
    buf: bytes, n_codes: int, lossless: str = LOSSLESS_NONE, literal_dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`entropy_encode`, whose literals were of
    ``literal_dtype``; returns (codes, literals). The stream must end
    exactly where its payload ends."""
    r = Reader(buf)
    (n_lit,) = r.take(U64)
    # every literal sits behind one escape code
    if n_lit > n_codes:
        raise FormatError(f"{n_lit} literals cannot follow {n_codes} codes")
    table, r.offset = HuffmanTable.from_bytes(buf, r.offset)
    (plen,) = r.take(U64)
    if len(buf) - r.offset != plen:
        raise FormatError("entropy payload length disagrees with the stream's end")
    payload = r.bytes(plen)
    lit = np.dtype(literal_dtype).newbyteorder("<")
    if lossless == LOSSLESS_ZLIB:
        # the lane table, codes of at most MAX_CODE_LEN bits, the literals
        payload = inflate(payload, 2 * _lane_count(n_codes) + MAX_CODE_LEN // 8 * n_codes + lit.itemsize * n_lit)
    lit_bytes = n_lit * lit.itemsize
    if len(payload) < lit_bytes:
        raise FormatError("payload shorter than its literal block")
    literals = np.frombuffer(payload, dtype=lit, count=n_lit,
                             offset=len(payload) - lit_bytes).astype(literal_dtype)
    codes = unpack_codes(table, payload[: len(payload) - lit_bytes], n_codes)
    return codes, literals
