"""Keyed integer mixing and deterministic seed derivation.

`mix64` is the one keyed primitive the whole artifact builds on: the Bloom
and cuckoo positions (`positions`) and the Feistel round functions are
seeded instances of it.  It is a splitmix64-style finalizer; no
cryptographic strength is claimed, only good statistical diffusion.

Seed derivation is counter-based and documented so experiment results are
bit-reproducible: `split_seed(master, i, j, ...)` hashes the master seed and
the index path with SHA-256 and returns 63 bits.  Trial i of a campaign uses
`split_seed(master, i)`; streams inside a trial split further by role.
`randbelow_many(rng, n, count)` draws a stream of uniform points in a few
`getrandbits` calls, exact to the `randrange` loop it replaces.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

_M64 = (1 << 64) - 1


def mix64(seed: int, x: int) -> int:
    """Mix a value with a 64-bit seed into a 64-bit output."""
    z = (x + seed) & _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def mix64_many(seed: int | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """`mix64(seed, x)` for every x of a uint64 array, in uint64 arithmetic.

    `seed` is one seed, or a uint64 array of seeds that broadcasts against
    xs: a column of seeds hashes every x under each in one pass.  Every
    operation has an array operand, so the 64-bit overflow the scalar
    version masks off wraps silently here.
    """
    z = xs + np.asarray(seed, dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def positions(seeds: tuple[int, ...], xs: list[int] | np.ndarray, size: int) -> np.ndarray:
    """mix64(seed, x) % size for every seed and x: a uint64 [len(seeds), len(xs)]
    array, row i for seeds[i]."""
    return mix64_many(np.array(seeds, dtype=np.uint64)[:, None],
                      np.asarray(xs, dtype=np.uint64)) % np.uint64(size)


def split_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and a counter path."""
    h = hashlib.sha256()
    h.update(b"filterlab.split")
    h.update(master.to_bytes(16, "big", signed=False))
    for p in path:
        h.update(p.to_bytes(8, "big", signed=False))
    return int.from_bytes(h.digest()[:8], "big") >> 1


# Below this many draws, the `randrange` loop beats a numpy round's fixed
# cost (one `getrandbits`, a `to_bytes` and a few numpy calls), as
# `permutation.BATCH_MIN` does for `permute_many`: on a 2-core x86_64 box a
# round meets the loop at 12-16 draws of one word (n < 2^32) and at 20-24
# draws of two.
DRAW_BATCH_MIN = 24


def randbelow_many(rng: random.Random, n: int, count: int) -> list[int]:
    """`[rng.randrange(n) for _ in range(count)]`, leaving `rng.getstate()`
    exactly as that loop leaves it, from a few `getrandbits` calls.

    Exact because of three facts about CPython's Mersenne Twister `Random`
    (3.10-3.13): `randrange(n)` draws `getrandbits(k)`, k = n.bit_length(),
    until the value is below n; `getrandbits(k)` is one 32-bit word shifted
    right by 32 - k when k <= 32, and the low word plus the next word
    shifted right by 64 - k when 33 <= k <= 64; and `getrandbits(32*j)`
    returns j consecutive words, low word first.  So a round takes the
    words of exactly the draws still missing in one call, keeps the values
    below n in order and repeats for the rest.  The loop would make every
    one of those draws too, so a round never overdraws and nothing is
    rewound.  Fewer than DRAW_BATCH_MIN draws left, and every k > 64, take
    the loop itself.  `tests/test_core.py` pins this contract against
    `randrange` on the running interpreter.
    """
    out: list[int] = []
    if 0 < n < 1 << 64:
        k = n.bit_length()
        nbytes = 4 if k <= 32 else 8
        while count - len(out) >= DRAW_BATCH_MIN:
            need = count - len(out)
            raw = rng.getrandbits(8 * nbytes * need).to_bytes(nbytes * need, "little")
            if k <= 32:
                vals = np.frombuffer(raw, dtype="<u4") >> np.uint32(32 - k)
            else:  # a two-word draw is one little-endian u8, low word first
                w = np.frombuffer(raw, dtype="<u8")
                vals = (w & np.uint64(0xFFFFFFFF)) | ((w >> np.uint64(96 - k)) << np.uint64(32))
            out += vals[vals < n].tolist()
    out += [rng.randrange(n) for _ in range(count - len(out))]
    return out
