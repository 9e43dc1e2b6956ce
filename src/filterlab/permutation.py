"""Keyed bijection over an integer domain.

A balanced 4-round Feistel network over 2w bits (2w = domain bit-width
rounded up to even) gives a permutation of [0, 2^2w); domains that are not a
power of four are handled by cycle-walking (re-applying the network until
the value lands inside the domain), which preserves bijectivity on the
domain.  Round functions are keyed mixes of the right half with the round
index; the inverse walks the rounds backwards.

No cryptographic strength is claimed.  The property the artifact relies on
is behavioral: wrapping a filter with a secret-keyed permutation collapses
adaptive attack success back to the filter's non-adaptive error rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import xor

import numpy as np

from .core import first_outside
from .hashing import mix64, mix64_many

ROUNDS = 4
_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class PermKey:
    """Secret key material and the domain it permutes.

    key_bits holds exactly lambda_bits of secret entropy; round keys are
    derived from it and are not separately accounted, and every 64-bit word
    of it (at least two) feeds each round key.
    """

    key_bits: int
    lambda_bits: int
    domain_size: int
    round_keys: tuple[int, ...] = field(init=False)
    half_width: int = field(init=False)

    def __post_init__(self) -> None:
        if self.domain_size < 2:
            raise ValueError("domain_size must be >= 2")
        if self.key_bits < 0 or self.key_bits >> self.lambda_bits:
            raise ValueError("key_bits must fit in lambda_bits")
        u_bits = (self.domain_size - 1).bit_length()
        w = (u_bits + 1) // 2  # 2w >= u_bits, rounded up to even
        object.__setattr__(self, "half_width", w)
        words = [self.key_bits >> s & _M64 for s in range(0, max(128, self.lambda_bits), 64)]
        object.__setattr__(
            self,
            "round_keys",
            tuple(reduce(xor, (mix64(r + i * ROUNDS, v) for i, v in enumerate(words)))
                  for r in range(ROUNDS)),
        )


def sample_key(lambda_bits: int, domain_size: int, rng: random.Random) -> PermKey:
    return PermKey(rng.getrandbits(lambda_bits), lambda_bits, domain_size)


def _feistel(key: PermKey, v: int, inverse: bool) -> int:
    w = key.half_width
    mask = (1 << w) - 1
    left, right = v >> w, v & mask
    rounds = range(ROUNDS - 1, -1, -1) if inverse else range(ROUNDS)
    if inverse:
        left, right = right, left
    for r in rounds:
        left, right = right, left ^ (mix64(key.round_keys[r], right) & mask)
    if inverse:
        left, right = right, left
    return (left << w) | right


def permute(key: PermKey, x: int) -> int:
    """Forward bijection on [0, domain_size)."""
    if not (0 <= x < key.domain_size):
        raise ValueError(f"{x} outside permutation domain [0, {key.domain_size})")
    y = _feistel(key, x, inverse=False)
    while y >= key.domain_size:  # cycle-walk back into the domain
        y = _feistel(key, y, inverse=False)
    return y


def _feistel_many(key: PermKey, v: np.ndarray) -> np.ndarray:
    """The forward network on every value of a uint64 array: 2w <= 64."""
    w = key.half_width
    mask = np.uint64((1 << w) - 1)
    left, right = v >> w, v & mask
    for rk in key.round_keys:
        left, right = right, left ^ (mix64_many(rk, right) & mask)
    return (left << w) | right


# Below this many points, scalar `permute`s beat the batch's fixed cost of
# some 45 numpy calls (on a 2-core x86_64 box the two meet at 12-16 points).
BATCH_MIN = 12


def permute_many(key: PermKey, xs: list[int]) -> list[int]:
    """`permute` of every x, cycle-walking only the values still outside the
    domain; raises `permute`'s ValueError when some x is outside it."""
    if len(xs) < BATCH_MIN:
        return [permute(key, x) for x in xs]
    bad = first_outside(xs, key.domain_size)
    if bad < len(xs):
        permute(key, xs[bad])  # raises
    y = _feistel_many(key, np.array(xs, dtype=np.uint64))
    if key.domain_size < 1 << (2 * key.half_width):  # else every value is inside
        size = np.uint64(key.domain_size)
        walk = np.flatnonzero(y >= size)
        while walk.size:
            y[walk] = _feistel_many(key, y[walk])
            walk = walk[y[walk] >= size]
    return y.tolist()


def invert(key: PermKey, y: int) -> int:
    """Exact inverse of `permute`."""
    if not (0 <= y < key.domain_size):
        raise ValueError(f"{y} outside permutation domain [0, {key.domain_size})")
    x = _feistel(key, y, inverse=True)
    while x >= key.domain_size:
        x = _feistel(key, x, inverse=True)
    return x
