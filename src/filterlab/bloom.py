"""Classic steady-representation Bloom filter.

The non-resilient baseline: k_h keyed index hashes into an m-bit array.
Index seeds are secret by default; debug exposure policies hand out the
space of arrays under the hash structure (for representation-space search
attacks) or the full state (for white-box search attacks).
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import numpy as np

from .bitio import BitReader, BitWriter
from .core import SEED_BITS, FilterParams, Representation, Stop
from .hashing import mix64, mix64_many


def standard_bloom_bits(n: int, eps: float) -> int:
    """Textbook sizing: m = ceil(n * log2(1/eps) / ln 2)."""
    return math.ceil(n * math.log2(1.0 / eps) / math.log(2))


def index_count(m: int, n: int) -> int:
    """k_h = max(1, round(ln 2 * m / n))."""
    return max(1, round(math.log(2) * m / n))


def position_masks(m: int, seeds: tuple[int, ...], u_bits: int) -> np.ndarray:
    """Per-element OR-mask of index bits over the whole universe (uint64).

    Only for enumerable universes and arrays of at most 64 bits; lets
    candidate representations be tested as integers: rep matches x iff
    rep & mask[x] == mask[x].
    """
    if u_bits > 16:
        raise ValueError("position masks only precomputed for u_bits <= 16")
    if m > 64:
        raise ValueError("position masks need m <= 64")
    xs = np.arange(1 << u_bits, dtype=np.uint64)
    masks = np.zeros_like(xs)
    for s in seeds:
        masks |= np.uint64(1) << (mix64_many(s, xs) % np.uint64(m))
    return masks


class BloomRepSpace:
    """Exhaustive space of m-bit arrays under a published hash structure
    (the index seeds over a u_bits universe).

    A representation id is the array read as an integer, bit p for
    position p.
    """

    def __init__(self, m: int, seeds: tuple[int, ...], u_bits: int):
        if m > 20:
            raise ValueError("representation space too large to enumerate")
        self.m = m
        # m <= 20, so the masks and ids fit 32 bits: half the scan's memory
        self._mask_array = position_masks(m, seeds, u_bits).astype(np.uint32)
        self.masks = self._mask_array.tolist()  # scalar lookups in model_query

    @property
    def memory_bits(self) -> int:
        # the searched secret state is the array; the seeds are published
        return self.m

    def first_consistent(self, labels: list[tuple[int, bool]]) -> int | None:
        """Least id answering y on every labelled x, or None.

        An array answers every label exactly when it holds the OR of the
        positive labels' masks and none of the negative labels' masks, so
        the candidates are filtered once by that OR and then once per
        distinct negative mask, in ascending order throughout.  Every
        survivor of the first filter holds the OR, so a negative mask is
        tested on its bits outside the OR only, which leaves few distinct
        masks.
        """
        ids = np.arange(1 << self.m, dtype=np.uint32)
        if labels:
            xs, ys = zip(*labels)
            masks = self._mask_array[np.array(xs)]
            positive = np.array(ys, dtype=bool)
            need = np.bitwise_or.reduce(masks[positive], initial=np.uint32(0))
            ids = ids[(ids & need) == need]
            for mk in set((masks[~positive] & ~need).tolist()):
                if not ids.size:
                    break
                ids = ids[(ids & mk) != mk]
        return int(ids[0]) if ids.size else None

    def model_query(self, rep_id: int, x: int) -> bool:
        mk = self.masks[x]
        return (rep_id & mk) == mk


class BloomFilterRep(Representation):
    kind = "steady"

    def __init__(self, params: FilterParams, m: int, seeds: tuple[int, ...],
                 array: bytearray):
        self.params = params
        self.m = m
        self.seeds = seeds
        self.k_h = len(seeds)
        self.array = array

    @property
    def bits(self) -> int:
        # seeds are secret state, so they count
        return self.m + self.k_h * SEED_BITS

    def _get(self, pos: int) -> int:
        return (self.array[pos >> 3] >> (pos & 7)) & 1

    def _set(self, pos: int) -> None:
        self.array[pos >> 3] |= 1 << (pos & 7)

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        m = self.m
        arr = self.array
        for s in self.seeds:
            p = mix64(s, x) % m
            if not (arr[p >> 3] >> (p & 7)) & 1:
                return False
        return True

    def _query_batch(self, xs: list[int], stop: Stop | None = None) -> list[bool]:
        """`query` for every x: each seed's positions by `mix64_many`, then
        one gather from the array.  A query changes nothing here, so a stop
        only cuts the answers."""
        xs = np.array(xs, dtype=np.uint64)
        arr = np.frombuffer(self.array, dtype=np.uint8)
        hit = np.ones(len(xs), dtype=bool)
        for s in self.seeds:
            p = mix64_many(s, xs) % np.uint64(self.m)
            hit &= (arr[p >> 3] >> (p & 7)) & 1 == 1
        ys = hit.tolist()
        if stop is not None:
            end = next((i + 1 for i, y in enumerate(ys) if stop(i, y)), len(ys))
            del ys[end:]
        return ys

    def rep_space_enumerator(self):
        if self.m <= 20 and self.params.u_bits <= 16:
            return BloomRepSpace(self.m, self.seeds, self.params.u_bits)
        return None

    def write(self, w: BitWriter) -> None:
        for s in self.seeds:
            w.write(s, SEED_BITS)
        for pos in range(self.m):
            w.write(self._get(pos), 1)

    @classmethod
    def deserialize(cls, params: FilterParams, m: int, k_h: int,
                    data: bytes, bit_length: int) -> "BloomFilterRep":
        r = BitReader(data, bit_length)
        seeds = tuple(r.read(SEED_BITS) for _ in range(k_h))
        array = bytearray((m + 7) // 8)
        rep = cls(params, m, seeds, array)
        for pos in range(m):
            if r.read(1):
                rep._set(pos)
        return rep


def build_bloom(S: Iterable[int], params: FilterParams, rng_seed: int,
                m: int | None = None) -> BloomFilterRep:
    """Build the baseline filter; m defaults to standard sizing from eps."""
    xs = params.check_members(S)
    if m is None:
        m = standard_bloom_bits(params.n, params.eps)
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = random.Random(rng_seed)
    k_h = index_count(m, params.n)
    seeds = tuple(rng.getrandbits(SEED_BITS) for _ in range(k_h))
    # every member under every seed in one pass: row i is seed i's positions
    positions = mix64_many(np.array(seeds, dtype=np.uint64)[:, None],
                           np.array(xs, dtype=np.uint64))
    hit = np.zeros(m, dtype=bool)
    hit[positions % np.uint64(m)] = True
    array = bytearray(np.packbits(hit, bitorder="little").tobytes())
    return BloomFilterRep(params, m, seeds, array)
