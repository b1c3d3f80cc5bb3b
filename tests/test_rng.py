"""Substreams derived a block at a time are the substreams made one by one, bit for bit.

`rng._substreams` derives each stream's PCG64 state with numpy's SeedSequence
hash written as array operations, and sets it into one generator in turn.
Each state it sets, and each draw that follows, must be the ones
`np.random.default_rng(substream_seed(seed, i))` gives: for any seed
`check_int` admits, negative or at least 2**64 included, across a state-block
boundary, and for an index whose mixed seed is below 2**32, which
SeedSequence reads as a single entropy word.
"""

import numpy as np
import pytest

from selcert.rng import _STATE_BLOCK, _substreams, substream_seed

_MASK64 = (1 << 64) - 1
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -2**70, 2**100]


def assert_substreams(seed: int, start: int, stop: int) -> None:
    """Each stream `_substreams(seed, start, stop)` yields is substream i's, in its state and in its draws."""
    seen = 0
    for index, stream in zip(range(start, stop), _substreams(seed, start, stop)):
        expected = np.random.default_rng(substream_seed(seed, index))
        assert stream.bit_generator.state["state"] == expected.bit_generator.state["state"], (seed, index)
        assert stream.bit_generator.state == expected.bit_generator.state, (seed, index)
        # three bounded draws leave half of a 64-bit word held; the next stream's reset must drop it
        assert stream.integers(0, 7, size=3).tolist() == expected.integers(0, 7, size=3).tolist()
        seen += 1
    assert seen == stop - start


def unmix(value: int) -> int:
    """The z whose splitmix64 finalizer (`rng._mix`) gives `value`: each step inverted, the last first."""
    def unshift(y: int, shift: int) -> int:  # the x with x ^ (x >> shift) == y
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(value, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)
    return (z - 0x9E3779B97F4A7C15) & _MASK64


@pytest.mark.parametrize("seed", SEEDS)
def test_a_run_across_a_state_block_is_the_substreams(seed):
    assert_substreams(seed, 5, 5 + _STATE_BLOCK + 3)


@pytest.mark.parametrize("mixed", [0, 1, 0xDEADBEEF, (1 << 32) - 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_mixed_seed_below_2_to_32_is_its_substream(seed, mixed):
    index = unmix(mixed) ^ (seed & _MASK64)
    assert substream_seed(seed, index) == mixed
    assert_substreams(seed, index, index + 1)


def test_a_run_that_ends_on_a_block_boundary_yields_every_stream():
    assert_substreams(7919, 0, 2 * _STATE_BLOCK)
    assert list(_substreams(7919, 3, 3)) == []


def test_the_inversion_sees_what_it_looks_for():
    for z in (0, 1, 2**63, _MASK64, 0x0123456789ABCDEF):
        assert unmix(substream_seed(z, 0)) == z
