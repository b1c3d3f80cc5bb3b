"""Deterministic random-stream derivation.

Every piece of randomness in the package flows from a single 64-bit seed.
Independent substreams (one per simulation trial, one per bootstrap
resample) are derived by XOR-ing the stream index into the seed and running
the result through the splitmix64 finalizer, so stream i can be regenerated
on its own and work can be split across threads without changing output.
"""

from __future__ import annotations

import numpy as np

from .records import check_int

_MASK64 = (1 << 64) - 1
# splitmix64's additive constant; without it the finalizer fixes 0 at 0.
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """Avalanche a 64-bit integer (splitmix64 finalizer)."""
    return _mix(check_int("x", x, float("-inf")))


def substream_seed(seed: int, index: int) -> int:
    """Seed for independent substream `index` of master `seed`."""
    return _mix(check_int("seed", seed, float("-inf")) ^ check_int("index", index, float("-inf")))


def _mix(z: int) -> int:  # mix64 without its check, so that substream_seed checks each argument once
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for independent substream `index` of master `seed`."""
    return np.random.default_rng(substream_seed(seed, index))
