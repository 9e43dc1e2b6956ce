"""Keyed integer mixing and deterministic seed derivation.

`mix64` is the one keyed primitive the whole artifact builds on: Bloom index
hashes, cuckoo placement hashes and Feistel round functions are all seeded
instances of it.  It is a splitmix64-style finalizer; no cryptographic
strength is claimed, only good statistical diffusion.

Seed derivation is counter-based and documented so experiment results are
bit-reproducible: `split_seed(master, i, j, ...)` hashes the master seed and
the index path with SHA-256 and returns 63 bits.  Trial i of a campaign uses
`split_seed(master, i)`; streams inside a trial split further by role.
"""

from __future__ import annotations

import hashlib

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


def split_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and a counter path."""
    h = hashlib.sha256()
    h.update(b"filterlab.split")
    h.update(master.to_bytes(16, "big", signed=False))
    for p in path:
        h.update(p.to_bytes(8, "big", signed=False))
    return int.from_bytes(h.digest()[:8], "big") >> 1
