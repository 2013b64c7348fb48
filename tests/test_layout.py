import numpy as np
import pytest

from mrcompress.errors import ShapeError
from mrcompress.layout import (
    LINEAR,
    STACKED,
    MergedArray,
    linear_merge,
    pad_linear,
    stack_merge,
    unmerge,
    unpad,
)

from helpers import padding_overhead


def _blocks(k, u=8, seed=0):
    return np.random.default_rng(seed).standard_normal((k, u, u, u))


def test_unit_block_validates_shape():
    # an empty block array and one that is not a stack of blocks
    for bad in (np.zeros((0, 8, 8, 8)), np.zeros((8, 8, 8))):
        for merge in (linear_merge, stack_merge):
            with pytest.raises(ShapeError):
                merge(bad)


def test_linear_merge_rejects_mixed_u():
    # blocks whose edges mix 8 and 4 are not u-cubes
    for bad in (np.zeros((1, 8, 8, 4)), np.zeros((2, 4, 8, 8))):
        for merge in (linear_merge, stack_merge):
            with pytest.raises(ShapeError):
                merge(bad)


def test_linear_merge_dims_and_slabs():
    blocks = _blocks(3)
    m = linear_merge(blocks)
    assert m.arrangement == LINEAR
    assert m.dims == (8, 8, 24)
    for i in range(m.k):
        assert np.array_equal(m.values[i * 8 : (i + 1) * 8], blocks[i])


def test_linear_merge_single_block():
    blocks = _blocks(1)
    m = linear_merge(blocks)
    assert m.dims == (8, 8, 8)
    assert np.array_equal(m.values, blocks[0])


def test_linear_merge_is_a_reshape():
    blocks = _blocks(4)
    m = linear_merge(blocks)
    assert np.shares_memory(m.values, blocks)
    assert m.values.tobytes() == blocks.tobytes()


def test_linear_round_trip():
    blocks = _blocks(6, seed=3)
    back = unmerge(linear_merge(blocks).values, 8, 6)
    assert back.shape == (6, 8, 8, 8)
    assert np.array_equal(back, blocks)


def test_stack_eight_blocks_makes_a_cube():
    m = stack_merge(_blocks(8))
    assert m.arrangement == STACKED
    assert m.dims == (16, 16, 16)


def test_stack_single_block():
    blocks = _blocks(1)
    m = stack_merge(blocks)
    assert m.dims == (8, 8, 8)
    assert np.array_equal(m.values, blocks[0])


def test_stack_five_blocks_fills_with_last_mean():
    blocks = _blocks(5, seed=1)
    m = stack_merge(blocks)
    assert m.dims == (16, 16, 16)
    assert m.k == 5
    filler = blocks[4].mean()
    # slot 5 (row-major x fastest) sits at grid (1, 0, 1): x in (8,16), z in (8,16)
    assert np.allclose(m.values[8:16, 0:8, 8:16], filler)


def test_stack_round_trip_discards_fillers():
    for k in (1, 2, 5, 7, 8, 9):
        blocks = _blocks(k, seed=k)
        back = unmerge(stack_merge(blocks).values, 8, k)
        assert back.shape == (k, 8, 8, 8)
        assert np.array_equal(back, blocks)


def test_pad_extrapolates_last_two_points():
    u = 8
    data = np.zeros((u, u, u))
    data[:, :, 6] = 2.0
    data[:, :, 7] = 4.0
    m = linear_merge(data[None])
    p = pad_linear(m)
    assert p.padded and p.dims == (9, 9, 8)
    assert np.allclose(p.values[:, :8, 8], 6.0)  # 2*4 - 2


def test_pad_constant_stays_constant():
    u = 8
    m = linear_merge(np.full((1, u, u, u), 1.25))
    p = pad_linear(m)
    assert np.all(p.values == 1.25)


def test_pad_linear_pads_every_linear_merge_once():
    # the u <= 4 rule is the pipeline's (test_pipeline::test_pad_auto_rules)
    m = linear_merge(_blocks(2, u=4))
    p = pad_linear(m)
    assert p.padded and p.dims == (5, 5, 8)
    assert np.array_equal(unpad(p.values), m.values)
    with pytest.raises(ShapeError, match="already padded"):
        pad_linear(p)


def test_pad_unpad_round_trip_and_dims():
    m = linear_merge(_blocks(3, seed=5))
    p = pad_linear(m)
    assert p.dims == (9, 9, 24)
    back = unpad(p.values)
    assert back.shape == (24, 8, 8)
    assert np.shares_memory(back, p.values)
    assert np.array_equal(back, m.values)


def test_pad_rejects_stacked():
    m = stack_merge(_blocks(8))
    with pytest.raises(ShapeError):
        pad_linear(m)


def test_full_chain_identity():
    blocks = _blocks(5, seed=9)
    back = unmerge(unpad(pad_linear(linear_merge(blocks)).values), 8, 5)
    assert np.array_equal(back, blocks)


def test_padding_overhead_values():
    assert padding_overhead(4) == (5 * 5) / (4 * 4)
    assert abs(padding_overhead(4) - 1.5625) < 1e-15
    assert abs(padding_overhead(16) - (17 * 17) / 256) < 1e-15
    m = linear_merge(_blocks(3, u=8))
    p = pad_linear(m)
    grown = p.values.size / m.values.size
    assert grown == padding_overhead(8)


def test_merged_array_validates_geometry():
    with pytest.raises(ShapeError):
        MergedArray(values=np.zeros((8, 8, 9)), k=1, u=8, arrangement=LINEAR)
    with pytest.raises(ShapeError):
        MergedArray(values=np.zeros((0, 8, 8)), k=0, u=8, arrangement=LINEAR)
