import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrcompress.codec.entropy as entropy
from mrcompress.codec.entropy import (
    LOSSLESS_NONE,
    LOSSLESS_ZLIB,
    MAX_CODE_LEN,
    HuffmanTable,
    _huffman_lengths,
    build_table,
    entropy_decode,
    entropy_encode,
    pack_codes,
    unpack_codes,
)
from mrcompress.errors import FormatError, ShapeError


def _slow_lanes(table, data, n):
    """Bit-at-a-time prefix decoder of each lane, used as the reference
    implementation: reads the u16 lane bit lengths, then decodes every lane
    from its own byte-aligned start. Returns one code array per lane."""
    codevals, *_ = table.canonical()
    lut = {
        (int(l), int(c)): int(s)
        for s, l, c in zip(table.symbols, table.lengths, codevals)
    }
    n_lanes = -(-n // entropy.LANE_CODES)
    lane_bits = np.frombuffer(data, "<u2", count=n_lanes).astype(int)
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    lanes = []
    start = 16 * n_lanes
    for li, nb in enumerate(lane_bits):
        count = min(entropy.LANE_CODES, n - li * entropy.LANE_CODES)
        out = np.empty(count, dtype=np.int32)
        pos = start
        acc = ln = 0
        for i in range(count):
            while True:
                acc = (acc << 1) | int(bits[pos])
                pos += 1
                ln += 1
                if (ln, acc) in lut:
                    out[i] = lut[(ln, acc)]
                    acc = ln = 0
                    break
        assert pos == start + nb
        padded = start + 8 * (-(-nb // 8))
        assert not bits[pos:padded].any()
        lanes.append(out)
        start = padded
    assert start == 8 * len(data)
    return lanes


def _slow_unpack(table, data, n):
    return np.concatenate(_slow_lanes(table, data, n))


def _round_trip(codes, lits=(), lossless=LOSSLESS_NONE):
    codes = np.asarray(codes, dtype=np.int32)
    lits = np.asarray(lits, dtype=np.float64)
    buf = entropy_encode(codes, lits, lossless)
    out_codes, out_lits = entropy_decode(buf, codes.size, lossless)
    assert np.array_equal(out_codes, codes)
    assert np.array_equal(out_lits, lits)
    return buf


def test_round_trip_uniform_alphabet():
    rng = np.random.default_rng(0)
    _round_trip(rng.integers(-500, 500, size=20000))


def test_round_trip_skewed_alphabet():
    rng = np.random.default_rng(1)
    codes = rng.geometric(0.4, size=30000) - 1
    codes *= rng.choice([-1, 1], size=codes.size)
    _round_trip(codes)


def test_round_trip_with_literals():
    rng = np.random.default_rng(2)
    codes = rng.integers(-3, 4, size=1000)
    lits = rng.normal(size=57)
    _round_trip(codes, lits)


def test_round_trip_empty_stream():
    _round_trip(np.zeros(0, np.int32))


def test_single_symbol_costs_one_bit_each():
    buf = _round_trip(np.zeros(8192, np.int32))
    # 8192 one-bit codes pack into 1 KiB plus a small fixed header
    assert len(buf) < 1024 + 64


def test_vector_decoder_matches_slow_reference():
    rng = np.random.default_rng(3)
    for size, span in [(1, 1), (777, 5), (5000, 200)]:
        codes = rng.integers(-span, span + 1, size=size).astype(np.int32)
        table = build_table(codes)
        packed = pack_codes(table, codes)
        fast = unpack_codes(table, packed, size)
        slow = _slow_unpack(table, packed, size)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, codes)


def test_chunked_decode_crosses_chunk_boundary(monkeypatch):
    # shrink the lanes so modest streams cross many lane seams: a short last
    # lane, a stream shorter than one lane, and an exact multiple of the lane
    monkeypatch.setattr(entropy, "LANE_CODES", 64)
    rng = np.random.default_rng(4)
    for size in [5000, 37, 64 * 40]:
        codes = rng.integers(0, 1024, size=size).astype(np.int32)
        table = build_table(codes)
        packed = pack_codes(table, codes)
        n_lanes = -(-size // 64)
        lane_bits = np.frombuffer(packed, "<u2", count=n_lanes).astype(int)
        assert len(packed) == 2 * n_lanes + sum(-(-lane_bits // 8))
        fast = unpack_codes(table, packed, size)
        assert np.array_equal(fast, codes)
        for i, lane in enumerate(_slow_lanes(table, packed, size)):
            assert np.array_equal(fast[i * 64 : i * 64 + lane.size], lane)


def test_encoding_is_deterministic_under_ties():
    codes = np.tile(np.arange(16, dtype=np.int32), 100)  # all counts equal
    assert entropy_encode(codes, np.zeros(0)) == entropy_encode(codes, np.zeros(0))


def test_zlib_pass_round_trips_and_shrinks_repetition():
    codes = np.tile(np.arange(64, dtype=np.int32), 500)
    plain = _round_trip(codes, lossless=LOSSLESS_NONE)
    packed = _round_trip(codes, lossless=LOSSLESS_ZLIB)
    assert len(packed) < len(plain)


def test_unknown_lossless_pass_rejected():
    with pytest.raises(ShapeError):
        entropy_encode(np.zeros(4, np.int32), np.zeros(0), "lzma")


def test_pack_rejects_foreign_symbols():
    table = build_table(np.array([1, 2, 3], np.int32))
    with pytest.raises(ShapeError):
        pack_codes(table, np.array([1, 2, 9], np.int32))


def test_pack_rejects_symbols_in_table_gaps_and_wide_spans():
    # dense rank tables: a gap inside the span, and codes on either side
    table = build_table(np.array([-4, 0, 5, 5], np.int32))
    for bad in (1, -5, 6, -(2**31), 2**31 - 1):
        with pytest.raises(ShapeError):
            pack_codes(table, np.array([0, bad, 5], np.int32))
    # a span too wide for dense tables takes the sorted lookup
    wide = np.array([-(2**31), 0, 0, 2**31 - 1, 7], np.int32)
    table = build_table(wide)
    assert unpack_codes(table, pack_codes(table, wide), wide.size).tolist() == wide.tolist()
    with pytest.raises(ShapeError):
        pack_codes(table, np.array([0, 1], np.int32))
    with pytest.raises(ShapeError):
        pack_codes(build_table(np.zeros(0, np.int32)), np.array([0], np.int32))


def _heap_huffman_lengths(counts):
    """Reference Huffman builder: a heap of (frequency, id) with leaves
    numbered by symbol index and merged nodes numbered from n upwards,
    flattening the counts until the tree fits MAX_CODE_LEN."""
    import heapq

    n = counts.size
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    if n == 1:
        return np.ones(1, dtype=np.uint8)
    work = counts.astype(np.int64)
    while True:
        parent = np.full(2 * n - 1, -1, dtype=np.int64)
        heap = [(int(work[i]), i) for i in range(n)]
        heapq.heapify(heap)
        next_id = n
        while len(heap) > 1:
            fa, a = heapq.heappop(heap)
            fb, b = heapq.heappop(heap)
            parent[a] = parent[b] = next_id
            heapq.heappush(heap, (fa + fb, next_id))
            next_id += 1
        depths = np.zeros(2 * n - 1, dtype=np.int64)
        for node in range(2 * n - 3, -1, -1):
            depths[node] = depths[parent[node]] + 1
        if depths[:n].max() <= MAX_CODE_LEN:
            return depths[:n].astype(np.uint8)
        work = (work + 1) // 2
        work[work < 1] = 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 2**40), min_size=0, max_size=300), st.sampled_from([None, 3, 50]))
def test_huffman_lengths_match_heap_reference(counts, cap):
    # small caps force many ties between leaves and merged nodes
    counts = np.array(counts, dtype=np.int64)
    if cap is not None:
        counts = counts % cap + 1
    assert np.array_equal(_huffman_lengths(counts), _heap_huffman_lengths(counts))


def test_huffman_lengths_match_heap_reference_when_flattening():
    counts = 2 ** np.arange(40, dtype=np.int64)
    assert _heap_huffman_lengths(counts).max() <= MAX_CODE_LEN
    assert np.array_equal(_huffman_lengths(counts), _heap_huffman_lengths(counts))


def test_skewed_counts_respect_length_cap():
    # Fibonacci-like counts would build a degenerate 60-deep tree; the
    # builder must flatten it into a decodable one
    counts = np.ones(60, dtype=np.int64)
    for i in range(2, 60):
        counts[i] = counts[i - 1] + counts[i - 2]
    lengths = _huffman_lengths(counts)
    assert lengths.max() <= MAX_CODE_LEN
    # still a complete prefix code
    HuffmanTable(np.arange(60, dtype=np.int32), lengths).canonical()


def test_table_byte_round_trip():
    # the int32 extremes also check that symbol ordering does not overflow
    for codes in ([-5, -5, 0, 0, 0, 7], [-(2**31), 0, 2**31 - 1]):
        table = build_table(np.array(codes, np.int32))
        raw = table.to_bytes()
        back, used = HuffmanTable.from_bytes(raw)
        assert used == len(raw)
        assert np.array_equal(back.symbols, table.symbols)
        assert np.array_equal(back.lengths, table.lengths)


def test_table_rejects_malformed_input():
    with pytest.raises(FormatError):
        HuffmanTable(np.array([3, 1], np.int32), np.array([1, 1], np.uint8))
    with pytest.raises(FormatError):
        HuffmanTable(np.array([1, 2], np.int32), np.array([0, 1], np.uint8))
    with pytest.raises(FormatError):
        HuffmanTable.from_bytes(b"\x02")
    # three one-bit codes overfill the code space
    bad = HuffmanTable(np.array([1, 2, 3], np.int32), np.array([1, 1, 1], np.uint8))
    with pytest.raises(FormatError):
        bad.canonical()


def test_corrupt_bitstream_detected():
    codes = np.zeros(64, np.int32)
    table = build_table(codes)
    packed = bytearray(pack_codes(table, codes))
    packed[3] = 0xFF  # single-symbol stream must be all zero bits
    with pytest.raises(FormatError):
        unpack_codes(table, bytes(packed), 64)


def test_stream_exhaustion_detected():
    codes = np.zeros(64, np.int32)
    table = build_table(codes)
    packed = pack_codes(table, codes)
    with pytest.raises(FormatError):
        unpack_codes(table, packed, 1000)
    with pytest.raises(FormatError):
        unpack_codes(build_table(np.zeros(0, np.int32)), b"", 5)


def test_truncated_streams_raise_format_errors():
    codes = np.arange(100, dtype=np.int32)
    buf = entropy_encode(codes, np.arange(3, dtype=np.float64))
    for cut in [4, 12, len(buf) // 2, len(buf) - 1]:
        with pytest.raises(FormatError):
            entropy_decode(buf[:cut], codes.size)
    # the stream ends where its payload ends
    with pytest.raises(FormatError):
        entropy_decode(buf + b"\0", codes.size)


def test_corrupt_zlib_payload_raises():
    codes = np.arange(50, dtype=np.int32)
    buf = bytearray(entropy_encode(codes, np.zeros(0), LOSSLESS_ZLIB))
    buf[-10] ^= 0xFF
    with pytest.raises(FormatError):
        entropy_decode(bytes(buf), codes.size, LOSSLESS_ZLIB)


def _lane_stream(codes):
    codes = np.asarray(codes, np.int32)
    table = build_table(codes)
    packed = pack_codes(table, codes)
    n_lanes = -(-codes.size // entropy.LANE_CODES)
    lane_bits = np.frombuffer(packed, "<u2", count=n_lanes).copy()
    return table, lane_bits, packed[2 * n_lanes :]


def test_flipped_lane_length_detected(monkeypatch):
    monkeypatch.setattr(entropy, "LANE_CODES", 64)
    codes = np.random.default_rng(5).integers(0, 50, size=300)
    table, lane_bits, body = _lane_stream(codes)
    flipped = lane_bits.copy()
    flipped[0] ^= 0x100  # the lengths no longer add up to the payload
    moved = lane_bits.copy()
    moved[0] += 8  # lane 0 claims a byte of lane 1; the total still holds
    moved[1] -= 8
    nudged = lane_bits.copy()
    nudged[np.flatnonzero(lane_bits % 8 != 1)[0]] -= 1  # same bytes, a bit short
    for bad in (flipped, moved, nudged):
        with pytest.raises(FormatError):
            unpack_codes(table, bad.tobytes() + body, codes.size)


def test_truncated_lane_detected(monkeypatch):
    monkeypatch.setattr(entropy, "LANE_CODES", 64)
    codes = np.random.default_rng(6).integers(0, 50, size=300)
    table, lane_bits, body = _lane_stream(codes)
    # drop the last byte of lane 0 and declare it one byte shorter
    cut = lane_bits.copy()
    cut[0] -= 8
    first_bytes = -(-int(lane_bits[0]) // 8)
    short_body = body[: first_bytes - 1] + body[first_bytes:]
    with pytest.raises(FormatError):
        unpack_codes(table, cut.tobytes() + short_body, codes.size)
    with pytest.raises(FormatError):
        unpack_codes(table, lane_bits.tobytes() + body[:-1], codes.size)


def test_lane_table_longer_than_payload_detected():
    codes = np.random.default_rng(7).integers(0, 50, size=3000)
    table, lane_bits, body = _lane_stream(codes)
    lane_bits[0] = 0xFFFF
    with pytest.raises(FormatError):
        unpack_codes(table, lane_bits.tobytes() + body, codes.size)
    # a lane count far beyond the bytes is refused before any allocation
    with pytest.raises(FormatError):
        unpack_codes(table, lane_bits.tobytes() + body, 1 << 60)


def test_lane_lengths_must_fit_code_counts():
    # a lane of 1024 codes needs 1024 to 32768 bits; an all-zero lane table
    # of matching size would otherwise size the decoder from n_codes alone
    n_lanes = 4
    codes = np.zeros(n_lanes * entropy.LANE_CODES, np.int32)
    table = build_table(np.array([0, 1], np.int32))
    with pytest.raises(FormatError):
        unpack_codes(table, bytes(2 * n_lanes), codes.size)
    table, lane_bits, body = _lane_stream(codes)
    lane_bits[0] -= 8  # 1016 bits for 1024 one-bit codes; move the byte
    lane_bits[1] += 8
    with pytest.raises(FormatError):
        unpack_codes(table, lane_bits.tobytes() + body, codes.size)


def test_nonzero_pad_bits_detected():
    codes = np.zeros(61, np.int32)  # 61 one-bit codes leave 3 pad bits
    table, lane_bits, body = _lane_stream(codes)
    assert lane_bits.tolist() == [61] and len(body) == 8
    body = body[:-1] + bytes([body[-1] | 0x01])
    with pytest.raises(FormatError):
        unpack_codes(table, lane_bits.tobytes() + body, codes.size)


def test_code_count_must_match_stream():
    codes = np.random.default_rng(8).integers(0, 50, size=3000)
    table = build_table(codes)
    packed = pack_codes(table, codes)
    for n in [codes.size - 1, codes.size + 1, 1, 0]:
        with pytest.raises(FormatError):
            unpack_codes(table, packed, n)


@st.composite
def _skewed_streams(draw):
    """Code streams whose symbol counts grow geometrically, so the deepest
    codes run past the lookup window."""
    k = draw(st.integers(1, 24))
    ratio = draw(st.floats(1.2, 2.0))
    counts = np.minimum(np.floor(ratio ** np.arange(k)), 20000).astype(np.int64)
    symbols = draw(
        st.lists(st.integers(-(2**31), 2**31 - 1), min_size=k, max_size=k, unique=True)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    codes = rng.permutation(np.repeat(np.array(symbols, np.int32), counts))
    # every literal sits behind one escape code, so there are no more
    # literals than codes
    lits = rng.normal(size=draw(st.integers(0, min(20, codes.size))))
    return codes, lits


@settings(max_examples=60, deadline=None)
@given(_skewed_streams(), st.sampled_from([LOSSLESS_NONE, LOSSLESS_ZLIB]))
def test_round_trip_property_skewed_alphabets(stream, lossless):
    codes, lits = stream
    _round_trip(codes, lits, lossless)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pack_unpack_property_up_to_max_code_len(data):
    # a complete code with lengths 1, 2, ..., 31, 32, 32: uniform draws
    # from it hit every length up to MAX_CODE_LEN
    lengths = np.array(list(range(1, MAX_CODE_LEN)) + [MAX_CODE_LEN] * 2, np.uint8)
    table = HuffmanTable(np.arange(lengths.size, dtype=np.int32), lengths)
    codes = np.array(
        data.draw(st.lists(st.integers(0, lengths.size - 1), max_size=2500)), np.int32
    )
    packed = pack_codes(table, codes)
    out = unpack_codes(table, packed, codes.size)
    assert np.array_equal(out, codes)
    if codes.size:
        assert np.array_equal(_slow_unpack(table, packed, codes.size), codes)


# ------------------------------------------------------------ lane groups


def _reference_code_words(table, sym_lj, codes):
    """(length, left-justified code word) of every code in ``codes``."""
    if not table.n_symbols:
        raise ShapeError("code stream contains symbols missing from the table")
    lo = int(table.symbols[0])
    span = int(table.symbols[-1]) - lo + 1
    if span > entropy._DENSE_SPAN:
        idx = np.searchsorted(table.symbols, codes)
        if not (table.symbols.take(idx, mode="clip") == codes).all():
            raise ShapeError("code stream contains symbols missing from the table")
        return table.lengths[idx], sym_lj[idx]
    # dense tables over [lo, lo + span]; the extra last entry, of length 0,
    # catches every code outside the span, and the gaps catch the rest
    dense_ln = np.zeros(span + 1, dtype=np.uint8)
    dense_lj = np.zeros(span + 1, dtype=np.uint64)
    at = table.symbols.astype(np.int64) - lo
    dense_ln[at] = table.lengths
    dense_lj[at] = sym_lj
    at = codes.astype(np.int64)
    at -= lo
    np.minimum(at.view(np.uint64), np.uint64(span), out=at.view(np.uint64))
    ln = dense_ln.take(at)
    if not ln.all():
        raise ShapeError("code stream contains symbols missing from the table")
    return ln, dense_lj.take(at)


def _reference_pack(table, codes):
    """Whole-stream packer: every lane placed in one pass over all codes.
    Lane groups must reproduce its bytes exactly."""
    codes = np.asarray(codes, dtype=np.int32).reshape(-1)
    n = codes.size
    if n == 0:
        return b""
    codevals, *_ = table.canonical()
    u64 = np.uint64
    # every code left-justified in a 64-bit word
    sym_lj = codevals << (64 - table.lengths.astype(u64))
    ln, lj = _reference_code_words(table, sym_lj, codes)
    # bit offset of every code as if unframed, then moved to its lane's
    # byte-aligned start
    pos = np.cumsum(ln, dtype=u64)
    n_lanes = entropy._lane_count(n)
    lane_end = pos[np.minimum(np.arange(1, n_lanes + 1) * entropy.LANE_CODES, n) - 1]
    lane_bits = np.diff(lane_end, prepend=u64(0))
    lane_bytes = (lane_bits + u64(7)) >> u64(3)
    lane_shift = u64(8) * (np.cumsum(lane_bytes) - lane_bytes) - (lane_end - lane_bits)
    pos -= ln
    pos += np.repeat(lane_shift, entropy.LANE_CODES)[:n]
    # each code lands in the word holding its first bit and spills its
    # tail, if any, into the next one; bits never overlap, so codes sharing
    # a word are ORed together
    off = pos & u64(63)
    word = (pos >> u64(6)).view(np.int64)
    del pos
    total_bytes = int(lane_bytes.sum())
    words = np.zeros(total_bytes // 8 + 2, dtype=u64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] = np.bitwise_or.reduceat(lj >> off, first)
    spill = np.flatnonzero(off + ln > u64(64))
    words[word[spill] + 1] |= lj[spill] << (u64(64) - off[spill])
    body = words.astype(">u8").tobytes()[:total_bytes]
    return lane_bits.astype("<u2").tobytes() + body


def _laplace_codes(n, scale, seed):
    rng = np.random.default_rng(seed)
    return np.round(rng.laplace(0.0, scale, size=n)).astype(np.int32)


def _check_against_reference(table, codes):
    packed = pack_codes(table, codes)
    assert packed == _reference_pack(table, codes)
    assert np.array_equal(unpack_codes(table, packed, codes.size), codes)


# odd counts end in a pair with a zero-length pad code
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 65535, 65536, 65537, 3 * 65536 + 5])
def test_lane_groups_match_whole_stream_packer(n):
    assert entropy._GROUP_LANES * entropy.LANE_CODES == 65536
    codes = _laplace_codes(n, 2.0, n)
    _check_against_reference(build_table(codes), codes)


@pytest.mark.parametrize("group_lanes", [1, 16, 256])
def test_packed_bytes_do_not_depend_on_group_size(monkeypatch, group_lanes):
    codes = _laplace_codes(300_000, 3.0, 9)
    table = build_table(codes)
    want = _reference_pack(table, codes)
    monkeypatch.setattr(entropy, "_GROUP_LANES", group_lanes)
    assert pack_codes(table, codes) == want


def test_lane_groups_with_codes_past_the_lookup_window():
    # geometric counts give the rare symbols codes far longer than the
    # lookup window, spread over every group
    counts = np.minimum(np.floor(1.6 ** np.arange(30)), 40000).astype(np.int64)
    rng = np.random.default_rng(15)
    codes = rng.permutation(np.repeat(np.arange(-15, 15, dtype=np.int32), counts))
    table = build_table(codes)
    assert int(table.lengths.max()) > entropy._LUT_BITS
    assert codes.size > 2 * 65536
    _check_against_reference(table, codes)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3 * 65536 + 100),
    st.floats(0.05, 200.0),
    st.integers(0, 2**32 - 1),
)
def test_lane_groups_property_laplace_streams(n, scale, seed):
    codes = _laplace_codes(n, scale, seed)
    _check_against_reference(build_table(codes), codes)


def test_decoder_refuses_tables_its_step_table_cannot_rank(monkeypatch):
    # the step table stores (rank << _LEN_BITS) | length in a u32; with 30
    # length bits only ranks 0 to 3 fit
    monkeypatch.setattr(entropy, "_LEN_BITS", 30)
    ok = np.arange(200, dtype=np.int32) % 4
    table = build_table(ok)
    assert np.array_equal(unpack_codes(table, pack_codes(table, ok), ok.size), ok)
    wide = np.arange(200, dtype=np.int32) % 5
    table = build_table(wide)
    with pytest.raises(FormatError):
        unpack_codes(table, pack_codes(table, wide), wide.size)


def test_pack_memory_is_bounded_by_the_lane_group():
    codes = _laplace_codes(1 << 20, 2.0, 16)
    table = build_table(codes)
    tracemalloc.start()
    try:
        pack_codes(table, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-stream pass holds several 8-byte arrays per code (43.5 MB for
    # this stream)
    assert peak < 8e6


# ------------------------------------------------------------ code pairs


def test_odd_last_lane_in_single_lane_groups(monkeypatch):
    codes = _laplace_codes(5 * entropy.LANE_CODES + 333, 6.0, 18)
    table = build_table(codes)
    want = _reference_pack(table, codes)
    monkeypatch.setattr(entropy, "_GROUP_LANES", 1)
    assert pack_codes(table, codes) == want


def _staircase_table():
    """Symbol s has a code of s + 1 bits up to 31, and symbols 31 and 32
    both have 32-bit codes: a complete table."""
    return HuffmanTable(np.arange(33, dtype=np.int32), np.append(np.arange(1, 32), [32, 32]).astype(np.uint8))


def test_pairs_of_long_codes_match_the_reference():
    table = _staircase_table()
    # each repeat is 259 bits, so the pairs' word offsets drift by 3 bits a
    # repeat: 64-bit pairs land at offset 0 and at offsets that spill, and
    # shorter pairs end exactly on a word boundary, which must not spill
    codes = np.array([31, 32, 0, 0, 31, 32, 0, 0, 29, 31, 1, 1, 28, 31] * 200, dtype=np.int32)
    ln = table.lengths[codes].astype(np.int64)
    pair_ln = ln[0::2] + ln[1::2]
    off = (np.cumsum(pair_ln) - pair_ln)[: entropy.LANE_CODES // 2] % 64
    pair_ln = pair_ln[: off.size]
    assert ((pair_ln == 64) & (off == 0)).any()
    assert ((pair_ln == 64) & (off > 0)).any()
    assert ((off + pair_ln == 64) & (off > 0)).any()
    for lead in (0, 1, 2 * entropy.LANE_CODES - 3):
        # behind 0 to 2045 one-bit codes, and across lane boundaries
        _check_against_reference(table, np.concatenate([np.zeros(lead, dtype=np.int32), codes]))
