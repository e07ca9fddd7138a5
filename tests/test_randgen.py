from __future__ import annotations

import numpy as np
import pytest

from gcorr.randgen import SplitMix64

SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 7, 8, 100, 1000])
@pytest.mark.parametrize("block_min", [SplitMix64.BLOCK_MIN, 0])
@pytest.mark.parametrize("draw", ["cnums", "cnum_array"])
def test_cnums_equals_cnum_loop(seed, n, block_min, draw):
    """One uint64 block gives the scalar draws bit for bit and leaves the
    same state behind (block_min 0 forces the block for every n), as a
    list of complex and as a complex array."""
    loop, block = SplitMix64(seed), SplitMix64(seed)
    block.BLOCK_MIN = block_min
    expected = [loop.cnum() for _ in range(n)]
    got = getattr(block, draw)(n)
    if draw == "cnum_array":
        assert isinstance(got, np.ndarray) and got.dtype == np.complex128 and got.shape == (n,)
        got = got.tolist()
    assert all(type(v) is complex for v in got)
    assert _bits(got) == _bits(expected)
    assert block.state == loop.state
    assert block.next_u64() == loop.next_u64()
