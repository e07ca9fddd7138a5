from __future__ import annotations

import numpy as np
import pytest

from gcorr.randgen import SplitMix64

SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [*range(10), 100, 1000])
def test_cnum_array_equals_cnum_loop(seed, n):
    """One uint64 block gives the scalar draws bit for bit and leaves the
    same state behind, for every n down to 0."""
    loop, block = SplitMix64(seed), SplitMix64(seed)
    expected = [loop.cnum() for _ in range(n)]
    got = block.cnum_array(n)
    assert isinstance(got, np.ndarray) and got.dtype == np.complex128 and got.shape == (n,)
    got = got.tolist()
    assert all(type(v) is complex for v in got)
    assert _bits(got) == _bits(expected)
    assert block.state == loop.state
    assert block.next_u64() == loop.next_u64()
