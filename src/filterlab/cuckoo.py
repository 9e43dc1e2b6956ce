"""Query-resilient filter: cuckoo-placed fingerprints compared bit-serially.

Elements are placed by standard cuckoo hashing on the raw element (two
tables of r = ceil(1.1 n) cells, h1/h2 keyed placement hashes), then every
stored element is replaced by its ell-bit fingerprint g(x) from the k-wise
independent family G.  A lookup compares g(x) against at most two cells.

Comparisons are bit-serial and cyclic: each cell keeps a cursor marking
where the last comparison stopped, the next comparison resumes there, and a
lookup stops at the first mismatching bit (or declares a full match after
ell consecutive equal bits).  On random bits a mismatch appears after ~2
comparisons, so each lookup touches only a constant number of the g_j and
the per-function query load stays below the independence budget k even
against adaptive adversaries.  Cursor state never changes an answer, only
where comparison work lands; answers depend on fingerprint equality alone.

The random-query variant uses ell = 2*ceil(log2(1/eps)), k = n, and
compares always from bit 0 (cursors disabled and excluded from the memory
accounting).
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from . import gf2
from .bitio import BitReader, BitWriter
from .core import SEED_BITS, BuildError, FilterParams, Representation
from .gfamily import GFamily, family_bits, g_sample
from .hashing import mix64

REBUILD_LIMIT = 20


def table_size(n: int) -> int:
    return math.ceil(1.1 * n)


def max_kicks(n: int) -> int:
    return 32 * max(1, math.ceil(math.log2(max(2, n))))


def cursor_bits(ell: int) -> int:
    return max(1, (ell - 1).bit_length())


class CuckooFilterRep(Representation):
    kind = "unsteady"  # queries advance cursors; answers never change

    def __init__(self, params: FilterParams, ell: int, gfam: GFamily,
                 seeds: tuple[int, int], occupied: list[bytearray],
                 fingerprints: list[list[int]], cursors_enabled: bool):
        self.params = params
        self.ell = ell
        self.gfam = gfam
        self.seeds = seeds
        self.r = len(occupied[0])
        self.occupied = occupied
        self.fingerprints = fingerprints
        self.cursors_enabled = cursors_enabled
        self.cursors = [[0] * self.r, [0] * self.r]
        self.bit_comparisons = 0
        self.query_count = 0
        self.participation: list[int] | None = None

    @property
    def bits(self) -> int:
        cell = 1 + self.ell + (cursor_bits(self.ell) if self.cursors_enabled else 0)
        return 2 * self.r * cell + 2 * SEED_BITS + self.gfam.rep_bits

    def track_participation(self) -> None:
        """Start counting, per g_j, the number of queries it is compared in."""
        self.participation = [0] * self.ell

    def _probe(self, tbl: int, pos: int, X: int, bits: list[int]) -> tuple[bool, int, int]:
        """Bit-serial comparison against one cell.

        Returns (matched, comparisons, mask of compared function indices)
        and advances the cell cursor past the last compared bit.
        """
        if not self.occupied[tbl][pos]:
            return False, 0, 0
        fp = self.fingerprints[tbl][pos]
        ell = self.ell
        packed = self.gfam.packed
        j = self.cursors[tbl][pos] if self.cursors_enabled else 0
        n = 0
        cmpmask = 0
        matched = True
        for _ in range(ell):
            b = bits[j]
            if b < 0:
                b = (packed[j] & X).bit_count() & 1
                bits[j] = b
            n += 1
            cmpmask |= 1 << j
            same = b == ((fp >> j) & 1)
            j = j + 1 if j + 1 < ell else 0
            if not same:
                matched = False
                break
        if self.cursors_enabled:
            self.cursors[tbl][pos] = j
        return matched, n, cmpmask

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        X = self.gfam.provider.get(x)
        r = self.r
        s1, s2 = self.seeds
        bits = [-1] * self.ell
        m1, n1, c1 = self._probe(0, mix64(s1, x) % r, X, bits)
        m2, n2, c2 = self._probe(1, mix64(s2, x) % r, X, bits)
        self.bit_comparisons += n1 + n2
        self.query_count += 1
        if self.participation is not None:
            cm = c1 | c2
            counts = self.participation
            j = 0
            while cm:
                if cm & 1:
                    counts[j] += 1
                cm >>= 1
                j += 1
        return m1 or m2

    @property
    def mean_bit_comparisons(self) -> float:
        return self.bit_comparisons / self.query_count if self.query_count else 0.0

    def published_view(self, expose: str):
        if expose == "full":
            return self
        return None

    def serialize(self) -> tuple[bytes, int]:
        w = BitWriter()
        for s in self.seeds:
            w.write(s, SEED_BITS)
        cb = cursor_bits(self.ell) if self.cursors_enabled else 0
        for tbl in range(2):
            for pos in range(self.r):
                w.write(self.occupied[tbl][pos], 1)
                w.write(self.fingerprints[tbl][pos], self.ell)
                if cb:
                    w.write(self.cursors[tbl][pos], cb)
        gdata, gbits = self.gfam.serialize()
        w.write(int.from_bytes(gdata, "big") >> ((len(gdata) * 8) - gbits), gbits)
        return w.getvalue(), w.bit_length

    @classmethod
    def deserialize(cls, params: FilterParams, ell: int, k: int, field_width: int,
                    r: int, cursors_enabled: bool, data: bytes,
                    bit_length: int) -> "CuckooFilterRep":
        rd = BitReader(data, bit_length)
        seeds = (rd.read(SEED_BITS), rd.read(SEED_BITS))
        occupied = [bytearray(r), bytearray(r)]
        fingerprints = [[0] * r, [0] * r]
        cursors = [[0] * r, [0] * r]
        cb = cursor_bits(ell) if cursors_enabled else 0
        for tbl in range(2):
            for pos in range(r):
                occupied[tbl][pos] = rd.read(1)
                fingerprints[tbl][pos] = rd.read(ell)
                if cb:
                    cursors[tbl][pos] = rd.read(cb)
        gbits = family_bits(ell, k, field_width)
        graw = rd.read(gbits)
        pad = (-gbits) % 8
        gfam = GFamily.deserialize(
            ell, k, field_width,
            (graw << pad).to_bytes((gbits + pad) // 8, "big"), gbits,
        )
        rep = cls(params, ell, gfam, seeds, occupied, fingerprints, cursors_enabled)
        rep.cursors = cursors
        return rep


def _place_all(members: Iterable[int], seeds: tuple[int, int], r: int,
               kicks: int) -> list[list[int | None]] | None:
    tables: list[list[int | None]] = [[None] * r, [None] * r]
    for x in members:
        cur = x
        tbl = 0
        pos = mix64(seeds[0], cur) % r
        placed = False
        for _ in range(kicks):
            if tables[tbl][pos] is None:
                tables[tbl][pos] = cur
                placed = True
                break
            cur, tables[tbl][pos] = tables[tbl][pos], cur
            tbl = 1 - tbl
            pos = mix64(seeds[tbl], cur) % r
        if not placed:
            return None
    return tables


def _build(S: Iterable[int], params: FilterParams, rng_seed: int,
           ell: int, k: int, cursors_enabled: bool) -> CuckooFilterRep:
    elems = list(S)
    members = frozenset(elems)
    if len(members) != len(elems):
        raise BuildError("duplicate elements in S")
    if len(members) != params.n:
        raise BuildError(f"|S|={len(members)} but params.n={params.n}")
    field_width = gf2.width_for(params.u_bits)
    rng = random.Random(rng_seed)
    gfam = g_sample(ell, k, field_width, rng.getrandbits(63))

    r = table_size(params.n)
    kicks = max_kicks(params.n)
    tables = None
    seeds = (0, 0)
    for _ in range(REBUILD_LIMIT):
        seeds = (rng.getrandbits(SEED_BITS), rng.getrandbits(SEED_BITS))
        tables = _place_all(members, seeds, r, kicks)
        if tables is not None:
            break
    if tables is None:
        raise BuildError(f"cuckoo placement failed after {REBUILD_LIMIT} rebuilds")

    occupied = [bytearray(r), bytearray(r)]
    fingerprints = [[0] * r, [0] * r]
    cells = [(tbl, pos) for tbl in range(2) for pos in range(r)
             if tables[tbl][pos] is not None]
    fps = gfam.fingerprints([tables[tbl][pos] for tbl, pos in cells])
    for (tbl, pos), fp in zip(cells, fps):
        occupied[tbl][pos] = 1
        fingerprints[tbl][pos] = fp
    return CuckooFilterRep(params, ell, gfam, seeds, occupied, fingerprints,
                           cursors_enabled)


def build_cuckoo(S: Iterable[int], params: FilterParams, rng_seed: int) -> CuckooFilterRep:
    """The adaptive-resilient construction: ell = 4L, k = ceil(2t/L)."""
    return _build(S, params, rng_seed, params.ell, params.k_independence,
                  cursors_enabled=True)


def build_cuckoo_random_query(S: Iterable[int], params: FilterParams,
                              rng_seed: int) -> CuckooFilterRep:
    """Random-query-model variant: ell = 2L, k = n, comparisons from bit 0."""
    return _build(S, params, rng_seed, 2 * params.log_inv_eps, params.n,
                  cursors_enabled=False)
