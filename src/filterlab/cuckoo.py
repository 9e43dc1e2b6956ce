"""Query-resilient filter: cuckoo-placed fingerprints compared bit-serially.

Elements are placed by standard cuckoo hashing on the raw element (two
tables of r = ceil(1.1 n) cells, keyed by `hashing.positions`), and every
stored element stands for its ell-bit fingerprint g(x) from the k-wise
independent family G.  A lookup compares g(x) against at most two cells.
The cells are one flat list of 2r slots, table 1 then table 2, each holding
a fingerprint, or None when empty or still pending (below), with one cursor
per slot beside it, and a bool mask of the full slots, which never change
after the build.

A build hashes the members once, as one uint64 array in the iteration
order of `frozenset(check_members(S))`, which numbers them.  Placement
(`_place_all`) takes the members in that order: one whose table-1 cell is
empty is placed at once, and only a member that finds its cell full enters
the kick loop, the one sequential step.  It returns the member index of
every cell (-1 when empty); the mask is that index array's non-negative
entries, and the build keeps each full cell's occupant, its uint64 point,
and fingerprints none of them.

A full cell is pending until something reads it, and the reader fills it
with its occupant's fingerprint, once: a batch adds the occupants of the
pending cells it reads to its one `GFamily.fingerprints` call, a scalar
query fills its two cells before it probes them, and `slots` and `write`
fill every cell still pending in one call.  A game of t queries reads at
most 2(t + 1) cells, so at n >> t most fingerprints are never computed.
The fill changes no answer, counter, cursor or load, and `bits` counts
the payload alone; `deserialize` fills every cell from the fingerprints
it reads, so nothing is pending there.

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
call on its distinct points and the occupants of the pending cells they
read (each such cell taken once, from a mask over the 2r cells;
`_distinct`, one sort, so a queried member is fingerprinted once), each
query's two cells and fingerprint are gathered into lists, and the queries
are then taken in order, each probe in closed form.  With
`diff = fp XOR cell` and the cell's cursor c0, the probe compares from c0
up to the first mismatching bit, wrapping at ell: the comparison count n
is the index of the lowest set bit of `diff >> c0` plus 1 when that is
nonzero; else every set bit of diff lies below c0, and n is ell - c0 plus
the same count for diff; and n is ell when diff is 0, a full match.  The
probe compares the bits in the cyclic span [c0, c0 + n), and the cursor
moves on to (c0 + n) mod ell; the span's mask and the next cursor are read
from two tables built once per ell (`_probe_tables`).  A query's load on
g_j counts once when bit j lies in the span of either of its probes.

A batch may carry a stop predicate, stop(i, y): it then ends right after
the first answer that holds it, exactly as the loop that breaks there, so
the counters, cursors and loads cover the answered prefix alone.  The
batch fingerprints every point with a full cell, and fills the pending
cells those points read, before its first query.  So a stopped batch may
already have built the X-vectors of its points after the stop and filled
their cells; the vectors stay in the X-cache at the table widths, and
neither changes an answer or counter.  A point whose two cells are empty
is never fingerprinted, since its probes compare nothing.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from typing import Iterable

import numpy as np

from . import gf2
from .bitio import BitReader, BitWriter
from .core import SEED_BITS, BuildError, FilterParams, Representation, Stop
from .gfamily import GFamily, g_sample
from .hashing import mix64, positions

REBUILD_LIMIT = 20


def table_size(n: int) -> int:
    return math.ceil(1.1 * n)


def max_kicks(n: int) -> int:
    return 32 * max(1, math.ceil(math.log2(max(2, n))))


def cursor_bits(ell: int) -> int:
    return max(1, (ell - 1).bit_length())


class CuckooFilterRep(Representation):
    def __init__(self, params: FilterParams, gfam: GFamily, seeds: tuple[int, int],
                 cursors: list[int], cursors_enabled: bool, full: np.ndarray,
                 occupants: np.ndarray):
        self.params = params
        self.ell = gfam.ell
        self.gfam = gfam
        self.seeds = seeds
        self.r = len(full) // 2
        # table 1 then table 2: a fingerprint, None when empty or pending
        self._slots: list[int | None] = [None] * len(full)
        self._full = full  # bool per slot, True where a member sits; placement never changes
        self._occupants = occupants  # the uint64 point in each slot, 0 when empty
        self._pending = full.copy()  # a full slot whose fingerprint no read has filled yet
        self.cursors = cursors  # one per slot
        self.cursors_enabled = cursors_enabled
        self.cursor_width = cursor_bits(self.ell) if cursors_enabled else 0
        self.bit_comparisons = 0
        self.query_count = 0
        self.participation = [0] * self.ell  # per g_j, the queries it was compared in

    @property
    def slots(self) -> list[int | None]:
        """Each cell's fingerprint, None when empty; fills every pending cell."""
        cells = np.flatnonzero(self._pending)
        if len(cells):
            self._store(cells, self.gfam.fingerprints(self._occupants[cells]))
        return self._slots

    def _store(self, cells: np.ndarray, fps: Iterable[int]) -> None:
        """Fill the pending cells with their fingerprints, in order."""
        for i, fp in zip(cells.tolist(), fps):
            self._slots[i] = fp
        self._pending[cells] = False

    @property
    def bits(self) -> int:
        cell = 1 + self.ell + self.cursor_width
        return 2 * self.r * cell + 2 * SEED_BITS + self.gfam.rep_bits

    def _probe(self, i: int, X: int, bits: list[int]) -> tuple[bool, int]:
        """Bit-serial comparison against cell i, empty or filled: (matched,
        comparisons).

        Advances the cell cursor past the last compared bit.  A bit still
        -1 in `bits` is first compared in this query, so evaluating it is
        where its function's load is counted.
        """
        fp = self._slots[i]
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

    def _fill(self, i: int, x: int, X: int) -> None:
        """Fill pending cell i with its occupant's fingerprint, each bit by
        the parity `_probe` evaluates a query's bits by; X is X(x), reused
        when x is the occupant."""
        occupant = int(self._occupants[i])
        if occupant != x:
            X = self.gfam.provider.get(occupant)
        self._slots[i] = sum(((p & X).bit_count() & 1) << j
                             for j, p in enumerate(self.gfam.packed))
        self._pending[i] = False

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        X = self.gfam.provider.get(x)
        r = self.r
        s1, s2 = self.seeds
        cells = (mix64(s1, x) % r, r + mix64(s2, x) % r)
        for i in cells:
            if self._pending[i]:
                self._fill(i, x, X)
        bits = [-1] * self.ell
        m1, n1 = self._probe(cells[0], X, bits)
        m2, n2 = self._probe(cells[1], X, bits)
        self.bit_comparisons += n1 + n2
        self.query_count += 1
        return m1 or m2

    def _query_batch(self, xs: np.ndarray, stop: Stop | None = None) -> list[bool]:
        """`query` for every x, in one pass: every query is hashed, and each
        one with a full cell is fingerprinted up front, in one call with the
        occupants of the pending cells those queries read, each such cell
        taken once, deduplicated by `_distinct`, so a point is fingerprinted
        once; the queries then run in order, both probes inline in closed
        form, their loads and next cursors read from `_probe_tables`, and end
        at a stop."""
        ell, r = self.ell, self.r
        c1, c2 = positions(self.seeds, xs, r).view(np.int64)  # every one < r; int64 indexes uncast
        c2 += r  # table 2 follows table 1
        need = np.flatnonzero(self._full[c1] | self._full[c2])  # queries with a cell to compare
        read = np.zeros(2 * r, dtype=bool)
        read[c1] = True
        read[c2] = True
        cells = np.flatnonzero(read & self._pending)  # each pending cell read, once
        pts, inverse = _distinct(np.concatenate((xs[need], self._occupants[cells])))
        both = np.array(self.gfam.fingerprints(pts), dtype=object)[inverse]
        self._store(cells, both[len(need):].tolist())
        fps = np.zeros(len(xs), dtype=object)
        fps[need] = both[:len(need)]
        slots, cursors, moves = self._slots, self.cursors, self.cursors_enabled
        spans, ahead = _probe_tables(ell)
        width = ell + 1
        count = 0
        loads, answers = [], []
        # an empty cell costs 0 and keeps its cursor; a full one is probed
        # in closed form (module docstring)
        for a, b, fp in zip(c1.tolist(), c2.tolist(), fps.tolist()):
            load, hit = 0, False
            cell = slots[a]
            if cell is not None:
                diff, c0 = fp ^ cell, cursors[a]
                h = diff >> c0
                if h:
                    n = (h & -h).bit_length()
                elif diff:
                    n = ell - c0 + (diff & -diff).bit_length()
                else:
                    n, hit = ell, True
                load = spans[c0 * width + n]
                if moves:
                    cursors[a] = ahead[c0 + n]
                count += n
            cell = slots[b]
            if cell is not None:
                diff, c0 = fp ^ cell, cursors[b]
                h = diff >> c0
                if h:
                    n = (h & -h).bit_length()
                elif diff:
                    n = ell - c0 + (diff & -diff).bit_length()
                else:
                    n, hit = ell, True
                load |= spans[c0 * width + n]
                if moves:
                    cursors[b] = ahead[c0 + n]
                count += n
            loads.append(load)
            answers.append(hit)
            if stop is not None and stop(len(answers) - 1, hit):
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
        """The filter `write` wrote, every fingerprint read and stored, so
        no cell is pending; a payload of any other length raises ValueError."""
        rd = BitReader(data, bit_length)
        seeds = (rd.read(SEED_BITS), rd.read(SEED_BITS))
        cb = cursor_bits(ell) if cursors_enabled else 0
        full, fps, cursors = [], [], []
        for _ in range(2 * r):
            full.append(rd.read(1))
            fp = rd.read(ell)
            if full[-1]:
                fps.append(fp)
            cursors.append(rd.read(cb) if cb else 0)
        gfam = GFamily.read(rd, ell, k, field_width)
        if rd.remaining:
            raise ValueError(f"{rd.remaining} bits past the payload")
        full = np.array(full, dtype=bool)
        rep = cls(params, gfam, seeds, cursors, cursors_enabled, full,
                  np.zeros(2 * r, dtype=np.uint64))
        rep._store(np.flatnonzero(full), fps)
        return rep


@functools.cache
def _probe_tables(ell: int) -> tuple[list[int], list[int]]:
    """(spans, ahead) for probes of ell-bit fingerprints: a probe that
    starts at cursor c0 and compares n bits loads the functions of mask
    spans[c0 * (ell + 1) + n], the cyclic span [c0, c0 + n), and leaves the
    cursor at ahead[c0 + n] = (c0 + n) mod ell."""
    mask = (1 << ell) - 1
    spans = []
    for c0 in range(ell):
        for n in range(ell + 1):
            span = ((1 << n) - 1) << c0
            spans.append((span | span >> ell) & mask)
    return spans, [c % ell for c in range(2 * ell)]


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
    """Sample the family, place the members (rebuilding on a failed
    placement), and keep each full cell's occupant: no fingerprint is
    computed here, each full cell is pending until a read fills it."""
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
    occupants = np.zeros(2 * r, dtype=np.uint64)
    occupants[full] = xs[cells[full]]
    return CuckooFilterRep(params, gfam, seeds, [0] * (2 * r), cursors_enabled, full,
                           occupants)


def build_cuckoo(S: Iterable[int], params: FilterParams, rng_seed: int) -> CuckooFilterRep:
    """The adaptive-resilient construction: ell = 4L, k = max(2, ceil(2t/L))."""
    return _build(S, params, rng_seed, params.ell, params.k_independence,
                  cursors_enabled=True)


def build_cuckoo_random_query(S: Iterable[int], params: FilterParams,
                              rng_seed: int) -> CuckooFilterRep:
    """Random-query-model variant: ell = 2L, k = max(2, n), comparisons from bit 0."""
    return _build(S, params, rng_seed, 2 * params.log_inv_eps, max(2, params.n),
                  cursors_enabled=False)
