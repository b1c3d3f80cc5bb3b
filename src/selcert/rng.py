"""Deterministic random-stream derivation.

Every piece of randomness in the package flows from a single 64-bit seed.
Independent substreams (one per simulation trial, one per bootstrap
resample) are derived by XOR-ing the stream index into the seed and running
the result through the splitmix64 finalizer, so stream i can be regenerated
on its own and work can be split across threads without changing output.

Substream i is numpy's default generator seeded with that value,
`np.random.default_rng(substream_seed(seed, i))`. `substream` makes one such
generator. `_substreams` gives the same streams for a run of indices, bit
for bit, without making a generator each: it derives the PCG64 states of
`_STATE_BLOCK` indices at a time, numpy's SeedSequence hash done as uint32
array operations, and sets each state into one generator in turn.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .records import check_int

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# splitmix64's additive constant; without it the finalizer fixes 0 at 0.
_GOLDEN = 0x9E3779B97F4A7C15

# numpy's SeedSequence: its hash constants and multipliers, and its mix multipliers
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# substreams whose states `_substreams` derives at once: about 160 KB of state, whatever the run's length
_STATE_BLOCK = 1024


def mix64(x: int) -> int:
    """Avalanche a 64-bit integer (splitmix64 finalizer)."""
    return _mix(check_int("x", x, float("-inf")))


def substream_seed(seed: int, index: int) -> int:
    """Seed for independent substream `index` of master `seed`."""
    return _mix(check_int("seed", seed, float("-inf")) ^ check_int("index", index, float("-inf")))


def _mix(z: int | np.ndarray) -> int | np.ndarray:
    # mix64 without its check, so that substream_seed checks each argument once; z is an int, or a
    # uint64 array whose sums and products wrap as the masks do
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for independent substream `index` of master `seed`."""
    return np.random.default_rng(substream_seed(seed, index))


def _substreams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """substream(seed, i) for each i in range(start, stop), bit for bit, as one generator reset in place.

    The generator yielded for i is good until the next one is asked for. A
    reset sets the PCG64 state `_pcg64_states` derived, with no 32-bit half
    word held, as a fresh generator has none.
    """
    generator = np.random.default_rng(0)
    bit_generator, pcg = generator.bit_generator, {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for first in range(start, stop, _STATE_BLOCK):
        for pcg["state"], pcg["inc"] in _pcg64_states(seed, first, min(first + _STATE_BLOCK, stop)):
            bit_generator.state = state
            yield generator


def _pcg64_states(seed: int, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The PCG64 (state, inc) of substream(seed, i) for each i in range(start, stop).

    splitmix64 runs over a uint64 array of the indices XOR the seed (only
    their low 64 bits count). numpy's SeedSequence then hashes each 64-bit
    seed as two uint32 entropy words: a seed below 2**32 is one word to
    numpy, and its missing high word hashes as the 0 that fills the pool.
    The hash constants stay Python ints masked to 32 bits, so no numpy
    scalar overflows; the uint32 arrays wrap. PCG64's seeding step, two
    128-bit LCG steps, runs in Python ints.
    """
    z = _mix((np.arange(stop - start, dtype=np.uint64) + np.uint64(start & _MASK64)) ^ np.uint64(seed & _MASK64))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros(len(z), np.uint32)
    # a pool of four words: the two entropy words, then zeros
    pool = [hashmix(word) for word in ((z & _MASK32).astype(np.uint32), (z >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64): eight words, each 64-bit value a little-endian pair
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = [hashmix(pool[word % 4]).astype(np.uint64) for word in range(8)]
    values = [(out[2 * k] | out[2 * k + 1] << 32).tolist() for k in range(4)]
    for seed_high, seed_low, inc_high, inc_low in zip(*values):
        inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
        yield ((seed_high << 64 | seed_low) + inc) * _PCG_MULT + inc & _MASK128, inc


def _hashmix(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash over uint32 arrays: each call xors in a running constant, which it then steps."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    return hashmix
