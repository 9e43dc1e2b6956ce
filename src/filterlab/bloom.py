"""Classic steady-representation Bloom filter.

The non-resilient baseline: k_h keyed index hashes into an m-bit array.
Index seeds are secret by default; debug exposure policies hand out the
space of arrays under the hash structure (for representation-space search
attacks) or the full state (for white-box search attacks).

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


def enumerable(m: int, u_bits: int) -> bool:
    """Whether a filter gets a representation space: m <= 20 bits over a
    u_bits <= 16 universe.  The inversion is closed-form and searches
    nothing; the rule stays as the desk-scale bound that configs are
    checked against, and it keeps the mask table at 2^16 entries."""
    return m <= 20 and u_bits <= 16


class BloomRepSpace:
    """Space of m-bit arrays under a filter's published hash structure (its
    index seeds over a u_bits universe).

    A representation id is the array read as an integer, bit p for
    position p; `model(rep_id)` is the filter with that array.  The space
    keeps the filter's seeds, never its array, and `masks[x]`, x's
    positions as bits (uint32, as m <= 20), which an array answering x holds.
    """

    def __init__(self, rep: "BloomFilterRep"):
        u_bits = rep.params.u_bits
        if not enumerable(rep.m, u_bits):
            raise ValueError("representation space too large to enumerate")
        self.params, self.seeds, self.m = rep.params, rep.seeds, rep.m
        bits = np.uint64(1) << positions(self.seeds, np.arange(1 << u_bits), self.m)
        self.masks = np.bitwise_or.reduce(bits, axis=0).astype(np.uint32)

    @property
    def memory_bits(self) -> int:
        # the searched secret state is the array; the seeds are published
        return self.m

    def first_consistent(self, xs: np.ndarray, ys: list[bool]) -> int | None:
        """Least id answering ys[i] on every xs[i], or None.

        An array answers (x, y) exactly when "it holds x's mask" equals y.
        So every consistent array holds `need`, the OR of the positive
        labels' masks, and `need` is the least id that does.  `need` holds a
        negative label's mask only when that mask lies inside `need`, and
        then so does every array holding `need`: `need` is the answer unless
        some negative mask is empty outside it, and then there is none.
        """
        masks = self.masks[xs]
        positive = np.frombuffer(bytes(ys), dtype=bool)  # a bool a byte, as numpy stores it
        need = np.bitwise_or.reduce(masks[positive], initial=np.uint32(0))
        if ((masks[~positive] & ~need) == 0).any():
            return None
        return int(need)

    def model(self, rep_id: int) -> "BloomFilterRep":
        """The filter whose array is rep_id."""
        return BloomFilterRep(self.params, self.seeds,
                              bytearray(rep_id >> p & 1 for p in range(self.m)))


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
        ys = arr[positions(self.seeds, xs, self.m)].all(axis=0).tolist()
        if stop is not None:
            end = next((i + 1 for i, y in enumerate(ys) if stop(i, y)), len(ys))
            del ys[end:]
        return ys

    def rep_space_enumerator(self):
        return BloomRepSpace(self) if enumerable(self.m, self.params.u_bits) else None

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
    np.frombuffer(array, dtype=np.uint8)[positions(seeds, xs, m)] = 1
    return BloomFilterRep(params, seeds, array)
