from __future__ import annotations

import pytest

from gcorr.randgen import SplitMix64

SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 7, 100])
@pytest.mark.parametrize("block_min", [SplitMix64.BLOCK_MIN, 0])
def test_cnums_equals_cnum_loop(seed, n, block_min):
    """One uint64 block gives the scalar draws bit for bit and leaves the
    same state behind (block_min 0 forces the block for every n)."""
    loop, block = SplitMix64(seed), SplitMix64(seed)
    block.BLOCK_MIN = block_min
    expected = [loop.cnum() for _ in range(n)]
    got = block.cnums(n)
    assert all(type(v) is complex for v in got)
    assert _bits(got) == _bits(expected)
    assert block.state == loop.state
    assert block.next_u64() == loop.next_u64()
