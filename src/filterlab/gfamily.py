"""Family G: ell independent one-bit hash functions, each exactly k-wise
independent.

Each g_j is drawn from the extended dual-BCH sample space of Alon, Babai
and Itai (J. Algorithms 1986).  With m = ceil((k-1)/2) = k // 2 its seed
is one bit s0_j and m field elements s_j = (s_j1, ..., s_jm) of GF(2^w),
and

    g_j(x) = s0_j XOR parity(s_j & V(x)),   V(x) = (x, x^3, ..., x^(2m-1)),

where & pairs each s_ji with x^(2i-1) bitwise (an inner product over
GF(2)).  The bits are exactly (2m+1)-wise independent, hence k-wise: any
2m+1 distinct points get jointly uniform bits because no nonempty subset T
of their vectors (1, V(x)) sums to zero.  The constant 1 forces |T| even,
so T holds at most 2m points, and V(0) = 0 leaves at most 2m nonzero ones.
If their odd power sums vanish up to x^(2m-1), so do the even ones
(sum x^(2e) = (sum x^e)^2), which the Vandermonde matrix of at most 2m
distinct nonzero points rules out.  A function costs 1 + m*w seed bits,
about half of a degree-(k-1) polynomial's k*w.

Folding s0_j in as one extra top bit of the packed seed, and setting the
matching constant bit in every packed point vector X(x), turns one output
bit into a single AND + popcount:

    g_j(x) = parity(packed_j & X(x))

X depends only on the field, m, and the point, never on the seeds, so it is
cached and shared across every family (and filter build) with the same
shape (at the table widths w <= 16; wider fields build each vector anew).
An X-vector is one row of little-endian uint64 limbs from the batch build
to the AND, and the cache keeps these rows in one matrix reserved for the
whole field, with a row map of 2^w entries beside it, so a batch finds its
misses and its rows by numpy gathers.  A scalar query reads its one vector
as an int.
A filter build asks for every member at once (`fingerprints`, one uint64
array of points), and so does a batch of queries: the missing X-vectors
come from one batch, and the ell bits of every point from packed uint64
ANDs, XORed into one word per point and function, and one popcount
parity, looped over the shorter of the limb and function axes; over the
functions, FP_GROUP consecutive rows are ANDed as one long row.
`XProvider._build_many` alone picks how a batch of X-vectors is built: a
table gather at w <= 16 (`gf2.odd_power_rows`); at w = 32/64, for a batch
small enough (below WIDE_BATCH_MIN points at w = 64, below
TOWER_POWERS_MIN powers, points times m, at w = 32), the chain of m
products by x^2 that `gf2.packed_odd_powers` runs point by point on
byte-spread Python ints (each bit of an element in a byte of its own, so
one plain integer product carries a whole carry-less product), packed into
the X-vector by reading those bytes as binary digits; and for any larger
batch `gf2.odd_power_rows` again: at w = 32 table reads through the tower
GF(2^16)[z], four gathers a point and power after a fixed cost of some 40
numpy calls, and at w = 64 a numpy carry-less multiply, about 20 numpy
calls a product whatever the batch size (one gather of every nibble of
every point, then the modulus folded with all of its taps at once).  A
single query's miss is a batch of one.  A slow direct
evaluation with field powers (`GFamily.evaluate`, one `gf2.gf_pow` per
term) is kept as the reference oracle; every route is cross-checked against
it in tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import gf2
from .bitio import BitReader, BitWriter

_SLOT_DTYPES = {4: "<u1", 8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}

# Row chunk, in bytes, of the fingerprint AND matrix (max(limbs, ell) words
# a row) and of the power rows behind a batch of X-vectors: the whole batch
# at once would hold every X-vector as a second, numpy-shaped copy.
FP_CHUNK_BYTES = 1 << 18

# Row chunk, in bytes, of the power rows at w = 64, where each pass runs
# the whole numpy power chain (m products of about 20 calls each): at
# FP_CHUNK_BYTES and m = 683 a pass holds only 48 rows, and call overhead,
# not arithmetic, sets the time.  w = 32 reads its powers off tables in a
# fixed few dozen calls a pass and takes FP_CHUNK_BYTES: on a 2-core x86_64
# box a 1,024-point batch at m = 683 took 17.6 ms in passes of
# FP_CHUNK_BYTES and 26.8 ms in passes of WIDE_CHUNK_BYTES, whose
# temporaries (about four int64 or int32 words a power) leave the cache.
WIDE_CHUNK_BYTES = 1 << 23

# Rows per group of the fingerprint AND when a row has more limbs than there
# are functions: a group of FP_GROUP rows is ANDed as one row against the
# function's limbs tiled FP_GROUP times.  On a 2-core x86_64 box, 4,096 warm
# points at m = 683 (171 limbs, 24 functions, a 1 MB tile) took 16.6 ms
# (median of 25, quartiles 13.4-17.2) in groups of 32 against 22.0 ms
# (20.1-23.6) row by row, 20.2 ms in groups of 16 and 18.3 ms in groups
# of 64.
FP_GROUP = 32

# The byte-spread chain (`gf2.packed_odd_powers`, point by point) against
# the numpy batch (`gf2.odd_power_rows`) at the wide widths, as
# `XProvider._build_many` runs them on a 2-core x86_64 box:
#
#   w = 64 builds its powers by chained numpy products, about 20 calls a
#   product: 32 us a point by the chain against 0.80 ms + 4.0 us a point at
#   m = 11, and 1.16 ms a point against 40 ms + 0.15 ms at m = 683 (one
#   loaded run).  Both scale with m, so the routes meet at a number of
#   points, near 29-39, and a w = 64 batch below WIDE_BATCH_MIN points
#   takes the chain, as `permutation.BATCH_MIN` does for `permute_many`.
#
#   w = 32 reads its powers off the tower tables, about 80 us a batch
#   whatever m, against the chain's 1.6-2.6 us a power (medians of 20-200
#   batches): at m = 11 one point takes 26 against 81 us, 3 points 76
#   against 85, 4 points 97 against 81 and 16 points 380 against 90; at
#   m = 683 one point takes 1.11 against 0.13 ms.  So the routes meet at a
#   number of powers, points times m, near 36-40, and a w = 32 batch below
#   TOWER_POWERS_MIN powers takes the chain: a query miss at m = 11, but no
#   miss at m = 683 and no batch of 4 points or more at m = 11.
WIDE_BATCH_MIN = 24
TOWER_POWERS_MIN = 36


def odd_powers(k: int) -> int:
    """m = ceil((k-1)/2): the odd powers x, x^3, ..., x^(2m-1) give k-wise independence."""
    return k // 2


def family_bits(ell: int, k: int, field_width: int) -> int:
    """Seed bits of ell functions: one constant bit plus m field elements each."""
    return ell * (1 + odd_powers(k) * field_width)


def _pack_rows(values: np.ndarray, top, w: int) -> np.ndarray:
    """Pack each row of w-bit values, then one more slot holding `top`, into
    little-endian uint64 limbs: slot i at bits [i*w, (i+1)*w)."""
    n, m = values.shape
    limbs = -(-(m + 1) * w // 64)
    slots = np.zeros((n, limbs * 64 // w), dtype=_SLOT_DTYPES[w])
    slots[:, :m] = values
    slots[:, m] = top
    if w == 4:
        slots = slots[:, 0::2] | (slots[:, 1::2] << 4)
    return slots.view("<u8")


def _ints(rows: np.ndarray) -> list[int]:
    """Each row of a little-endian unsigned array as one int: rows of at
    most 8 bytes through one uint64 view, wider ones by `int.from_bytes`."""
    nb = rows.shape[1] * rows.itemsize
    if nb <= 8:
        padded = np.zeros((len(rows), 8), dtype=np.uint8)
        padded[:, :nb] = np.ascontiguousarray(rows).view(np.uint8)
        return padded.view("<u8").ravel().tolist()
    data = rows.tobytes()
    return [int.from_bytes(data[i:i + nb], "little") for i in range(0, len(data), nb)]


class XProvider:
    """Cache of packed point vectors X(x) = (x, x^3, ..., x^(2m-1), 1).

    A vector is a row of `limbs` little-endian uint64 limbs, the form
    `GFamily.fingerprints` ANDs with; `get` turns the one vector a scalar
    query needs into an int.  `get_many` builds every missing vector of a
    batch at once (a cuckoo build); `get` builds one (a query miss) as a
    batch of one.  Both leave the same entries.  Vectors are kept only at
    the table widths, where the field caps each shape at 2^w points: rows
    of one matrix reserved for all 2^w, written in the order their points
    first miss, so its pages become resident only as rows are written and
    it never grows by copying.  `_row_of` maps each point to its row, -1
    while it has none (int32, 2^w entries), so a batch finds its misses and
    its rows by numpy gathers alone.  At w = 32/64 nearly every point is
    new, so a kept vector would only grow the cache, and each one is built
    and dropped; both arrays are then empty.
    """

    def __init__(self, w: int, m: int):
        self.w = w
        self.m = m
        self.const_bit = 1 << (m * w)
        self.limbs = -(-(m + 1) * w // 64)
        self._keep = w in gf2.TABLE_WIDTHS
        size = 1 << w if self._keep else 0
        self._rows = np.empty((size, self.limbs), dtype="<u8")
        self._row_of = np.full(size, -1, dtype=np.int32)
        self._filled = 0  # rows written

    def get(self, x: int) -> int:
        """X(x) as an int, the form the lazy scalar probe ANDs with."""
        i = int(self._row_of[x]) if 0 <= x < len(self._row_of) else -1
        row = self._build(x) if i < 0 else self._rows[i]
        return int.from_bytes(row.tobytes(), "little")

    def get_many(self, xs: list[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(rows, index) with X(xs[i]) = rows[index[i]]; misses are built in
        one batch.  At the table widths rows is the cache matrix; at
        w = 32/64 it is the batch just built, in order, and index is None.
        xs is a list of ints or a uint64 array, which the wide widths read
        as it is."""
        if not self._keep:
            return self._build_many(xs, np.empty((len(xs), self.limbs), dtype="<u8")), None
        xs = self._points(xs)
        index = self._row_of[xs]
        missing = list(dict.fromkeys(xs[index < 0].tolist()))  # first-seen order
        if missing:
            start = self._filled
            self._build_many(missing, self._rows[start:start + len(missing)])
            self._row_of[missing] = np.arange(start, start + len(missing))
            self._filled += len(missing)
            index = self._row_of[xs]
        return self._rows, index

    def _points(self, xs: list[int] | np.ndarray) -> np.ndarray:
        """xs as a uint64 array; ValueError at a point outside GF(2^w).  A
        list is checked and converted once, a uint64 array read as it is."""
        if not isinstance(xs, np.ndarray):
            if xs and (min(xs) < 0 or max(xs) >> self.w):
                bad = next(x for x in xs if x >> self.w)
                raise ValueError(f"point {bad} does not embed in GF(2^{self.w})")
            return np.array(xs, dtype=np.uint64)
        if self.w < 64 and len(xs) and int(xs.max()) >> self.w:
            raise ValueError(f"point {int(xs.max())} does not embed in GF(2^{self.w})")
        return xs

    def _build(self, x: int) -> np.ndarray:
        """X(x) as a row, the miss of a scalar query: a batch of one."""
        rows, index = self.get_many([x])
        return rows[0 if index is None else index[0]]

    def _build_many(self, xs: list[int] | np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write X(xs[i]) into out[i] and return out.  The one place that
        picks a route: at w = 32/64 a batch below WIDE_BATCH_MIN points
        (w = 64) or TOWER_POWERS_MIN powers (w = 32) takes the byte-spread
        chain point by point; any other takes
        `gf2.odd_power_rows` (table reads at w <= 32) on about
        FP_CHUNK_BYTES (WIDE_CHUNK_BYTES at w = 64) of power rows, 8 bytes
        a power, at a time, not [len(xs), m] temporaries at once."""
        small = len(xs) < WIDE_BATCH_MIN if self.w == 64 else len(xs) * self.m < TOWER_POWERS_MIN
        if not self._keep and small:
            for row, x in zip(out, xs):
                v = gf2.packed_odd_powers(int(x), self.m, self.w) | self.const_bit
                row[:] = np.frombuffer(v.to_bytes(8 * self.limbs, "little"), dtype="<u8")
            return out
        xs = self._points(xs)
        nbytes = WIDE_CHUNK_BYTES if self.w == 64 else FP_CHUNK_BYTES
        step = max(1, nbytes // (8 * max(1, self.m)))
        for i in range(0, len(xs), step):
            out[i:i + step] = _pack_rows(gf2.odd_power_rows(xs[i:i + step], self.m, self.w),
                                         1, self.w)
        return out


_PROVIDERS: OrderedDict[tuple[int, int], XProvider] = OrderedDict()
_PROVIDER_LIMIT = 6


def x_provider(w: int, k: int) -> XProvider:
    """The shared provider for families over GF(2^w) with independence k."""
    key = (w, odd_powers(k))
    prov = _PROVIDERS.get(key)
    if prov is None:
        prov = XProvider(*key)
        _PROVIDERS[key] = prov
        while len(_PROVIDERS) > _PROVIDER_LIMIT:
            _PROVIDERS.popitem(last=False)
    else:
        _PROVIDERS.move_to_end(key)
    return prov


@dataclass
class GFamily:
    """ell sampled one-bit functions over GF(2^field_width), k-wise independent."""

    ell: int
    k: int
    field_width: int
    s0: np.ndarray      # uint8[ell], the constant bits
    coeffs: np.ndarray  # uint64[ell, k // 2], each entry < 2^field_width

    def __post_init__(self) -> None:
        m, w = odd_powers(self.k), self.field_width
        if self.coeffs.shape != (self.ell, m) or self.s0.shape != (self.ell,):
            raise ValueError(f"seeds must be s0[{self.ell}] and coeffs[{self.ell}, {m}]")
        # the packed seeds as uint64 limbs, the form `fingerprints` ANDs with
        self._limbs = _pack_rows(self.coeffs, self.s0, w)
        self.packed: list[int] = _ints(self._limbs)
        self.provider = x_provider(w, self.k)

    @property
    def rep_bits(self) -> int:
        return family_bits(self.ell, self.k, self.field_width)

    def evaluate(self, i: int, x: int) -> int:
        """Reference evaluation of g_i at the embedding of x, as a bit.

        Computes s0 XOR <s, (x, x^3, ...)> with one field power per term;
        kept deliberately independent of the packed fast path.
        """
        if not (0 <= i < self.ell):
            raise IndexError(f"function index {i} out of range")
        if x >> self.field_width:
            raise ValueError(f"point {x} does not embed in GF(2^{self.field_width})")
        acc = int(self.s0[i])
        for d, c in enumerate(self.coeffs[i]):
            acc ^= (int(c) & gf2.gf_pow(x, 2 * d + 1, self.field_width)).bit_count() & 1
        return acc

    def fingerprints(self, xs: list[int] | np.ndarray) -> list[int]:
        """All ell output bits at every x in xs (a list of ints or a uint64
        array), each packed with g_0 in the low bit.

        The X-vectors come from one `get_many` as uint64 rows: at w = 32/64
        the rows just built, in order; at the table widths cache rows,
        gathered a chunk at a time, not the whole batch as a second copy.
        g_j(xs[i]) is the popcount parity of X(xs[i])'s limbs ANDed with
        g_j's, and XOR keeps that parity, so the AND words are XORed into
        one word per point and function before a single popcount.  The loop
        runs over the shorter axis.  When a row has no more limbs than there
        are functions (w = 32, t = 64: 6 limbs, 24 functions), each pass
        ANDs one limb of every row with that limb of every function and
        XORs the products into all ell words at once.  Otherwise (u_bits =
        13: 171 limbs, 24 functions), each pass ANDs every row with one
        function's limbs and XORs each row's product together.  There the
        rows go in groups of g = min(FP_GROUP, len(xs)): each group of g
        consecutive rows is read as one row of g * limbs words and ANDed with
        the function's limbs tiled g times, so numpy runs one long inner loop
        where a row-by-row broadcast would run one of `limbs` words; a batch
        that is not a whole number of groups ends in one shorter group.
        Either way the AND matrix of a chunk holds about FP_CHUNK_BYTES, and
        at least one row or group.
        """
        rows, index = self.provider.get_many(xs)
        P = self._limbs
        ell, limbs = P.shape
        n = len(xs)
        bits = np.empty((n, ell), dtype=np.uint8)
        if limbs <= ell:
            g = 1
            step = max(1, FP_CHUNK_BYTES // (8 * ell))
        else:
            g = max(1, min(FP_GROUP, n))
            step = max(1, FP_CHUNK_BYTES // (8 * limbs * g)) * g
            tile = np.tile(P, g)  # each function's limbs g times over
        anded = np.empty(min(step, n) * max(limbs, ell), dtype=np.uint64)
        acc = np.empty((min(step, n), ell), dtype=np.uint64)
        cut = n - n % g  # whole groups, then a shorter one
        edges = sorted({*range(0, cut, step), cut, n})
        for i, end in zip(edges, edges[1:]):
            X = rows[i:end] if index is None else rows[index[i:end]]
            words = acc[:end - i]
            if limbs <= ell:
                prod = anded[:words.size].reshape(words.shape)
                np.bitwise_and(X[:, :1], P[:, 0], out=words)
                for c in range(1, limbs):
                    words ^= np.bitwise_and(X[:, c:c + 1], P[:, c], out=prod)
            else:
                span = min(g, end - i) * limbs
                grouped = X.reshape(-1, span)
                prod = anded[:X.size].reshape(grouped.shape)
                by_row = prod.reshape(X.shape)
                for limbs_j, word_j in zip(tile[:, :span], words.T):
                    np.bitwise_and(grouped, limbs_j, out=prod)
                    np.bitwise_xor.reduce(by_row, axis=1, out=word_j)
            np.bitwise_and(np.bitwise_count(words), 1, out=bits[i:end])
        return _ints(np.packbits(bits, axis=1, bitorder="little"))

    def write(self, w: BitWriter) -> None:
        """Per function in index order: s0, then s_1..s_m as fixed-width
        big-endian field elements; rep_bits in all."""
        fw = self.field_width
        for j in range(self.ell):
            w.write(int(self.s0[j]), 1)
            for c in self.coeffs[j]:
                w.write(int(c), fw)

    @classmethod
    def read(cls, r: BitReader, ell: int, k: int, field_width: int) -> "GFamily":
        """The family `write` left at r's position."""
        s0 = np.zeros(ell, dtype=np.uint8)
        coeffs = np.zeros((ell, odd_powers(k)), dtype=np.uint64)
        for j in range(ell):
            s0[j] = r.read(1)
            for i in range(coeffs.shape[1]):
                coeffs[j, i] = r.read(field_width)
        return cls(ell=ell, k=k, field_width=field_width, s0=s0, coeffs=coeffs)


def g_sample(ell: int, k: int, field_width: int, rng_seed: int) -> GFamily:
    """Sample the family: uniform independent seed bits and field elements."""
    if ell < 1 or k < 1:
        raise ValueError("ell and k must be >= 1")
    if field_width not in gf2.SUPPORTED_WIDTHS:
        raise ValueError(f"field_width must be one of {gf2.SUPPORTED_WIDTHS}")
    rng = np.random.default_rng(rng_seed)
    m = odd_powers(k)
    s0 = rng.integers(0, 2, size=ell, dtype=np.uint8)
    if field_width < 64:
        coeffs = rng.integers(0, 1 << field_width, size=(ell, m), dtype=np.uint64)
    else:
        halves = rng.integers(0, 1 << 32, size=(ell, m, 2), dtype=np.uint64)
        coeffs = (halves[..., 0] << np.uint64(32)) | halves[..., 1]
    return GFamily(ell=ell, k=k, field_width=field_width, s0=s0, coeffs=coeffs)
