"""Classic steady-representation Bloom filter.

The non-resilient baseline: k_h keyed index hashes into an m-bit array.
Index seeds are secret by default; debug exposure policies hand out the
space of arrays under the hash structure (for representation-space search
attacks, which invert labels in closed form at any m) or the full state
(for white-box search attacks).

The array is m bytes, byte p being 1 when position p is set: x sets
mix64(seed, x) % m under each seed (`hashing.positions`).  Only the
payload packs it, to m bits.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import numpy as np

from .bitio import BitReader, BitWriter
from .core import SEED_BITS, FilterParams, ParamError, Representation, Stop
from .hashing import mix64, positions


def standard_bloom_bits(n: int, eps: float) -> int:
    """Textbook sizing: m = ceil(n * log2(1/eps) / ln 2)."""
    return math.ceil(n * math.log2(1.0 / eps) / math.log(2))


def array_bits(params: FilterParams, m: int | None = None) -> int:
    """The array size a build uses: m, else standard sizing from eps.  An
    explicit m below 1 raises ParamError."""
    if m is not None and m < 1:
        raise ParamError("bloom_bits", "m must be >= 1")
    return standard_bloom_bits(params.n, params.eps) if m is None else m


def index_count(m: int, n: int) -> int:
    """k_h = max(1, round(ln 2 * m / n))."""
    return max(1, round(math.log(2) * m / n))


class BloomRepSpace:
    """Space of m-bit arrays under a filter's published hash structure (its
    index seeds), for a Bloom filter of any size.

    A representation id is the array read as an integer, bit p for
    position p; `model(rep_id)` is the filter with that array.  The space
    keeps the filter's seeds, never its array, and works from the labels'
    own positions: an array answers x exactly when it holds every position
    of x.
    """

    def __init__(self, rep: "BloomFilterRep"):
        self.params, self.seeds, self.m = rep.params, rep.seeds, rep.m

    @property
    def memory_bits(self) -> int:
        # the searched secret state is the array; the seeds are published
        return self.m

    def first_consistent(self, xs: np.ndarray, ys: list[bool]) -> int | None:
        """Least id answering ys[i] on every xs[i], or None.

        Every consistent array holds `need`, the positions of the positive
        labels, and `need` is the least id that does.  `need` answers a
        negative label True only when all that label's positions lie inside
        `need`, and then so does every array holding `need`: `need` is the
        answer unless some negative label is so covered, and then there is
        none.
        """
        pos = positions(self.seeds, xs, self.m).view(np.int64)  # every one < m
        positive = np.frombuffer(bytes(ys), dtype=bool)  # a bool a byte, as numpy stores it
        need = np.zeros(self.m, dtype=bool)
        need[np.compress(positive, pos, axis=1)] = True
        if (need[pos].all(axis=0) > positive).any():
            return None
        return int.from_bytes(np.packbits(need, bitorder="little").tobytes(), "little")

    def model(self, rep_id: int) -> "BloomFilterRep":
        """The filter whose array is rep_id."""
        packed = np.frombuffer(rep_id.to_bytes((self.m + 7) // 8, "little"), dtype=np.uint8)
        return BloomFilterRep(self.params, self.seeds, bytearray(
            np.unpackbits(packed, count=self.m, bitorder="little")))


class BloomFilterRep(Representation):
    def __init__(self, params: FilterParams, seeds: tuple[int, ...], array: bytearray):
        self.params = params
        self.m = len(array)
        self.seeds = seeds
        self.k_h = len(seeds)
        self.array = array

    @property
    def bits(self) -> int:
        # seeds are secret state, so they count
        return self.m + self.k_h * SEED_BITS

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        m, arr = self.m, self.array
        for s in self.seeds:
            if not arr[mix64(s, x) % m]:
                return False
        return True

    def _query_batch(self, xs: np.ndarray, stop: Stop | None = None) -> list[bool]:
        """`query` for every x: every position by `positions`, then one
        gather from the array.  A query changes nothing here, so a stop only
        cuts the answers."""
        arr = np.frombuffer(self.array, dtype=np.uint8)
        ys = arr[positions(self.seeds, xs, self.m).view(np.int64)].all(axis=0).tolist()
        if stop is not None:
            end = next((i + 1 for i, y in enumerate(ys) if stop(i, y)), len(ys))
            del ys[end:]
        return ys

    def rep_space_enumerator(self):
        return BloomRepSpace(self)

    def write(self, w: BitWriter) -> None:
        for s in self.seeds:
            w.write(s, SEED_BITS)
        for b in self.array:  # BitWriter refuses a byte above 1
            w.write(b, 1)

    @classmethod
    def deserialize(cls, params: FilterParams, m: int, data: bytes,
                    bit_length: int) -> "BloomFilterRep":
        """The filter `write` wrote, with the k_h of `build_bloom` at m; a
        payload of any other length raises ValueError."""
        r = BitReader(data, bit_length)
        seeds = tuple(r.read(SEED_BITS) for _ in range(index_count(m, params.n)))
        array = bytearray(r.read(1) for _ in range(m))
        if r.remaining:
            raise ValueError(f"{r.remaining} bits past the payload")
        return cls(params, seeds, array)


def build_bloom(S: Iterable[int], params: FilterParams, rng_seed: int,
                m: int | None = None) -> BloomFilterRep:
    """Build the baseline filter on S, checked by `FilterParams.check_members`;
    m defaults to standard sizing from eps (`array_bits`)."""
    xs = params.check_members(S)
    m = array_bits(params, m)
    rng = random.Random(rng_seed)
    k_h = index_count(m, params.n)
    seeds = tuple(rng.getrandbits(SEED_BITS) for _ in range(k_h))
    array = bytearray(m)
    np.frombuffer(array, dtype=np.uint8)[positions(seeds, xs, m).view(np.int64)] = 1
    return BloomFilterRep(params, seeds, array)
