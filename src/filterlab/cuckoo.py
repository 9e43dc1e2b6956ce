"""Query-resilient filter: cuckoo-placed fingerprints compared bit-serially.

Elements are placed by standard cuckoo hashing on the raw element (two
tables of r = ceil(1.1 n) cells, keyed by `hashing.positions`), then every
stored element is replaced by its ell-bit fingerprint g(x) from the k-wise
independent family G.  A lookup compares g(x) against at most two cells.
The cells are one flat list of 2r slots, table 1 then table 2, each holding
a fingerprint or None when empty, with one cursor per slot beside it, and a
bool mask of the full slots, which never change after the build.

A build hashes the members once, as one uint64 array in the iteration
order of `frozenset(check_members(S))`, which numbers them.  Placement
(`_place_all`) takes the members in that order: one whose table-1 cell is
empty is placed at once, and only a member that finds its cell full enters
the kick loop, the one sequential step.  It returns the member index of
every cell (-1 when empty); the mask is that index array's non-negative
entries, and the members it places go to `GFamily.fingerprints` as one
uint64 array, whose fingerprints fill the full slots in cell order.

Comparisons are bit-serial and cyclic: each cell keeps a cursor marking
where the last comparison stopped, the next comparison resumes there, and a
lookup stops at the first mismatching bit (or declares a full match after
ell consecutive equal bits).  On random bits a mismatch appears after ~2
comparisons, so each lookup touches only a constant number of the g_j and
the per-function query load stays below the independence budget k even
against adaptive adversaries.  Cursor state never changes an answer, only
where comparison work lands; answers depend on fingerprint equality alone.
`participation[j]`, the load of g_j, counts the queries in which either
probe compared bit j: once per query, members and repeated points included.
The bound of at most k per g_j is the resilient variant's alone; the
random-query variant has k = n and no cursors.  Both floor k at 2: a
1-wise g_j is a constant bit, which makes every fingerprint equal.

The random-query variant uses ell = 2*ceil(log2(1/eps)), k = n, and
compares always from bit 0 (cursors disabled and excluded from the memory
accounting).

A batch of points chosen in advance (`query_many`) leaves the answers, the
counters, the cursors and the loads exactly as one `query` per point
would.  The fingerprints of the batch come from one `GFamily.fingerprints`
call on its distinct points (`_distinct`, one sort), each query's two cells
and fingerprint are gathered from those into lists, and the queries are
then taken in order, each probe in closed form:
rotate `diff = fp XOR cell` right by the cell's cursor c0 within ell bits;
the comparison count n is the index of its lowest set bit plus 1 (ell when
diff is 0, a full match), the probe compares the bits in the cyclic span
[c0, c0 + n), and the cursor moves on to (c0 + n) mod ell.  A query's load
on g_j counts once when bit j lies in the span of either of its probes.

A batch may carry a stop predicate, stop(i, y): it then ends right after
the first answer that holds it, exactly as the loop that breaks there, so
the counters, cursors and loads cover the answered prefix alone.  The
queries run in passes of QUERY_CHUNK points, and a pass fingerprints every
distinct point of it with a full cell before its first query.  So a
stopped pass may already have built the X-vectors of its points after the
stop; they stay in the X-cache at the table widths and change no answer or
counter.  A point whose two cells are empty is never fingerprinted, since
its probes compare nothing.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Iterable

import numpy as np

from . import gf2
from .bitio import BitReader, BitWriter
from .core import SEED_BITS, BuildError, FilterParams, Representation, Stop, stopped
from .gfamily import GFamily, g_sample
from .hashing import mix64, positions

REBUILD_LIMIT = 20

# Queries per pass of a batch: a pass holds a byte per fingerprint bit of
# each of its queries, so a larger batch goes in passes.
QUERY_CHUNK = 1 << 14


def table_size(n: int) -> int:
    return math.ceil(1.1 * n)


def max_kicks(n: int) -> int:
    return 32 * max(1, math.ceil(math.log2(max(2, n))))


def cursor_bits(ell: int) -> int:
    return max(1, (ell - 1).bit_length())


class CuckooFilterRep(Representation):
    def __init__(self, params: FilterParams, gfam: GFamily, seeds: tuple[int, int],
                 slots: list[int | None], cursors: list[int], cursors_enabled: bool,
                 full: np.ndarray):
        self.params = params
        self.ell = gfam.ell
        self.gfam = gfam
        self.seeds = seeds
        self.r = len(slots) // 2
        self.slots = slots  # table 1 then table 2; a fingerprint, or None when empty
        self._full = full  # bool per slot, fp is not None; slots never change
        self.cursors = cursors  # one per slot
        self.cursors_enabled = cursors_enabled
        self.cursor_width = cursor_bits(self.ell) if cursors_enabled else 0
        self.bit_comparisons = 0
        self.query_count = 0
        self.participation = [0] * self.ell  # per g_j, the queries it was compared in

    @property
    def bits(self) -> int:
        cell = 1 + self.ell + self.cursor_width
        return 2 * self.r * cell + 2 * SEED_BITS + self.gfam.rep_bits

    def _probe(self, i: int, X: int, bits: list[int]) -> tuple[bool, int]:
        """Bit-serial comparison against cell i: (matched, comparisons).

        Advances the cell cursor past the last compared bit.  A bit still
        -1 in `bits` is first compared in this query, so evaluating it is
        where its function's load is counted.
        """
        fp = self.slots[i]
        if fp is None:
            return False, 0
        ell = self.ell
        packed = self.gfam.packed
        load = self.participation
        j = self.cursors[i] if self.cursors_enabled else 0
        for n in range(1, ell + 1):
            b = bits[j]
            if b < 0:
                b = bits[j] = (packed[j] & X).bit_count() & 1
                load[j] += 1
            same = b == (fp >> j) & 1
            j = j + 1 if j + 1 < ell else 0
            if not same:
                break
        if self.cursors_enabled:
            self.cursors[i] = j
        return same, n

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        X = self.gfam.provider.get(x)
        r = self.r
        s1, s2 = self.seeds
        bits = [-1] * self.ell
        m1, n1 = self._probe(mix64(s1, x) % r, X, bits)
        m2, n2 = self._probe(r + mix64(s2, x) % r, X, bits)
        self.bit_comparisons += n1 + n2
        self.query_count += 1
        return m1 or m2

    def _query_batch(self, xs: list[int], stop: Stop | None = None) -> list[bool]:
        """`query` for every x, QUERY_CHUNK a pass, each probe in closed form."""
        ys: list[bool] = []
        for i in range(0, len(xs), QUERY_CHUNK):
            ys += self._query_pass(xs[i:i + QUERY_CHUNK], i, stop)
            if stopped(ys, stop):
                break
        return ys

    def _query_pass(self, xs: list[int], start: int, stop: Stop | None) -> list[bool]:
        """One pass over xs, which sit at start, start + 1, ... of the batch
        `stop` indexes: every distinct point is hashed and, when one of its
        cells is full, fingerprinted up front; each query's two cells and
        fingerprint are then gathered into lists, and the queries run in
        order, both probes inline, and end at a stop."""
        ell, r = self.ell, self.r
        pts, inverse = _distinct(np.array(xs, dtype=np.uint64))
        c1, c2 = positions(self.seeds, pts, r)
        c2 += np.uint64(r)  # table 2 follows table 1
        need = np.flatnonzero(self._full[c1] | self._full[c2])  # points with a cell to compare
        fps = np.zeros(len(pts), dtype=object)
        fps[need] = self.gfam.fingerprints(pts[need])
        slots, cursors, moves = self.slots, self.cursors, self.cursors_enabled
        mask = (1 << ell) - 1
        count = 0
        loads, answers = [], []
        # an empty cell costs 0 and keeps its cursor; a full one is probed
        # in closed form (module docstring)
        for a, b, fp in zip(c1[inverse].tolist(), c2[inverse].tolist(), fps[inverse].tolist()):
            load, hit = 0, False
            cell = slots[a]
            if cell is not None:
                diff, c0 = fp ^ cell, cursors[a]
                diff = (diff >> c0 | diff << (ell - c0)) & mask
                n = (diff & -diff).bit_length() if diff else ell
                span = ((1 << n) - 1) << c0
                load = (span | span >> ell) & mask
                if moves:
                    cursors[a] = (c0 + n) % ell
                count += n
                hit = not diff
            cell = slots[b]
            if cell is not None:
                diff, c0 = fp ^ cell, cursors[b]
                diff = (diff >> c0 | diff << (ell - c0)) & mask
                n = (diff & -diff).bit_length() if diff else ell
                span = ((1 << n) - 1) << c0
                load |= (span | span >> ell) & mask
                if moves:
                    cursors[b] = (c0 + n) % ell
                count += n
                hit = hit or not diff
            loads.append(load)
            answers.append(hit)
            if stop is not None and stop(start + len(answers) - 1, hit):
                break
        for load, times in Counter(loads).items():  # few distinct masks
            while load:  # each set bit, lowest first
                self.participation[(load & -load).bit_length() - 1] += times
                load &= load - 1
        self.bit_comparisons += count
        self.query_count += len(answers)
        return answers

    @property
    def mean_bit_comparisons(self) -> float:
        return self.bit_comparisons / self.query_count if self.query_count else 0.0

    def write(self, w: BitWriter) -> None:
        for s in self.seeds:
            w.write(s, SEED_BITS)
        cb = self.cursor_width
        for fp, cursor in zip(self.slots, self.cursors):
            w.write(fp is not None, 1)
            w.write(fp or 0, self.ell)
            if cb:
                w.write(cursor, cb)
        self.gfam.write(w)

    @classmethod
    def deserialize(cls, params: FilterParams, ell: int, k: int, field_width: int,
                    r: int, cursors_enabled: bool, data: bytes,
                    bit_length: int) -> "CuckooFilterRep":
        """The filter `write` wrote; a payload of any other length raises ValueError."""
        rd = BitReader(data, bit_length)
        seeds = (rd.read(SEED_BITS), rd.read(SEED_BITS))
        cb = cursor_bits(ell) if cursors_enabled else 0
        slots: list[int | None] = []
        cursors = []
        for _ in range(2 * r):
            full = rd.read(1)
            fp = rd.read(ell)
            slots.append(fp if full else None)
            cursors.append(rd.read(cb) if cb else 0)
        gfam = GFamily.read(rd, ell, k, field_width)
        if rd.remaining:
            raise ValueError(f"{rd.remaining} bits past the payload")
        full = np.array([fp is not None for fp in slots], dtype=bool)
        return cls(params, gfam, seeds, slots, cursors, cursors_enabled, full)


def _distinct(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, inverse): the distinct entries of xs in ascending order, and
    where each entry of xs sits among them, so values[inverse] == xs.  One
    sort, not `np.unique`, which can import numpy.ma (about 2 MB resident)."""
    order = np.argsort(xs)
    ordered = xs[order]
    new = np.ones(len(xs), dtype=bool)  # the first entry of each run of equal values
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(xs), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _place_all(members: np.ndarray, seeds: tuple[int, int], r: int,
               kicks: int) -> np.ndarray | None:
    """Cuckoo placement of the uint64 members into 2r flat cells, table 1
    then table 2: the member index of each cell, -1 when empty; None when
    some member is still homeless after `kicks` >= 1 moves.

    Member i, in index order, goes to its table-1 cell, and is placed there
    at once when the cell is empty.  Otherwise the member it evicts moves
    on to its cell in the other table, and so on, the tables alternating.
    """
    c1, c2 = positions(seeds, members, r)
    c2 += np.uint64(r)  # table 2 follows table 1
    one, two = c1.tolist(), c2.tolist()
    cells = [-1] * (2 * r)
    for x, i in enumerate(one):
        cur, cells[i] = cells[i], x
        if cur < 0:
            continue
        home, away = two, one  # cur was evicted from table 1
        for _ in range(kicks - 1):
            i = home[cur]
            cur, cells[i] = cells[i], cur
            if cur < 0:
                break
            home, away = away, home
        else:
            return None
    return np.array(cells, dtype=np.intp)


def _build(S: Iterable[int], params: FilterParams, rng_seed: int,
           ell: int, k: int, cursors_enabled: bool) -> CuckooFilterRep:
    members = frozenset(params.check_members(S))
    xs = np.fromiter(members, dtype=np.uint64, count=len(members))
    field_width = gf2.width_for(params.u_bits)
    rng = random.Random(rng_seed)
    gfam = g_sample(ell, k, field_width, rng.getrandbits(63))

    r = table_size(params.n)
    kicks = max_kicks(params.n)
    cells = None
    seeds = (0, 0)
    for _ in range(REBUILD_LIMIT):
        seeds = (rng.getrandbits(SEED_BITS), rng.getrandbits(SEED_BITS))
        cells = _place_all(xs, seeds, r, kicks)
        if cells is not None:
            break
    if cells is None:
        raise BuildError(f"cuckoo placement failed after {REBUILD_LIMIT} rebuilds")

    full = cells >= 0
    slots = np.full(2 * r, None, dtype=object)
    slots[full] = gfam.fingerprints(xs[cells[full]])
    return CuckooFilterRep(params, gfam, seeds, slots.tolist(), [0] * (2 * r),
                           cursors_enabled, full)


def build_cuckoo(S: Iterable[int], params: FilterParams, rng_seed: int) -> CuckooFilterRep:
    """The adaptive-resilient construction: ell = 4L, k = max(2, ceil(2t/L))."""
    return _build(S, params, rng_seed, params.ell, params.k_independence,
                  cursors_enabled=True)


def build_cuckoo_random_query(S: Iterable[int], params: FilterParams,
                              rng_seed: int) -> CuckooFilterRep:
    """Random-query-model variant: ell = 2L, k = max(2, n), comparisons from bit 0."""
    return _build(S, params, rng_seed, 2 * params.log_inv_eps, max(2, params.n),
                  cursors_enabled=False)
