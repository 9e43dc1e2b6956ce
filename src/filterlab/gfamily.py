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
The cache holds each X-vector as bytes, its little-endian uint64 limbs:
the rows the batch path reads, joined and viewed as one numpy matrix with
no per-vector conversion.  A scalar query reads its one vector as an int.
A filter build asks for every member at once (`fingerprints`), and so does
a batch of queries: the missing X-vectors come from one batch, and the ell
bits of every point from a packed uint64 AND, an XOR over each row's limbs
and a popcount.  `XProvider._build_many` alone picks how a batch of
X-vectors is built: a table gather at w <= 16 (`gf2.odd_power_rows`); at
w = 32/64, below WIDE_BATCH_MIN points, the chain of m products by x^2
that `gf2.packed_odd_powers` runs point by point on byte-spread Python ints
(each bit of an element in a byte of its own, so one plain integer product
carries a whole carry-less product), packed into the X-vector by reading
those bytes as binary digits; and from WIDE_BATCH_MIN points on, a numpy
carry-less multiply (`gf2.odd_power_rows` again).  A single query's miss
is a batch of one.  A slow direct evaluation with field powers
(`GFamily.evaluate`, one `gf2.gf_pow` per term) is kept as the reference
oracle; every route is cross-checked against it in tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import gf2
from .bitio import BitReader, BitWriter

_SLOT_DTYPES = {4: "<u1", 8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}

# Row chunk, in bytes, of the fingerprint AND matrix and of the power rows
# behind a batch of X-vectors: the whole batch at once would hold every
# X-vector as a second, numpy-shaped copy.
FP_CHUNK_BYTES = 1 << 18

# Row chunk, in bytes, of the power rows at w = 32/64, where each pass runs
# the whole numpy power chain (m products of dozens of calls each): at
# FP_CHUNK_BYTES and m = 683 a pass holds only 48 rows, and call overhead,
# not arithmetic, sets the time.
WIDE_CHUNK_BYTES = 1 << 23

# Below this many points, building each X-vector by `gf2.packed_odd_powers`
# beats the numpy batch at w = 32/64, whose fixed cost is dozens of numpy
# calls per power (on a 2-core x86_64 box the two meet near 64 points at
# w = 32, at m = 11 and at m = 683, and at 64-128 points at w = 64), as
# `permutation.BATCH_MIN` does for `permute_many`.
WIDE_BATCH_MIN = 64


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
    """Each row of a little-endian unsigned array as one int."""
    nb = rows.shape[1] * rows.itemsize
    data = rows.tobytes()
    return [int.from_bytes(data[i:i + nb], "little") for i in range(0, len(data), nb)]


class XProvider:
    """Cache of packed point vectors X(x) = (x, x^3, ..., x^(2m-1), 1).

    A vector is kept as its little-endian uint64 limbs, `nbytes` bytes, the
    rows `GFamily.fingerprints` reads; `get` turns the one vector a scalar
    query needs into an int.  `get_many` builds every missing vector of a
    batch at once (a cuckoo build); `get` builds one (a query miss) as a
    batch of one.  Both leave the same entries.  Vectors are kept only at
    the table widths, where the field caps each shape at 2^w points; at
    w = 32/64 nearly every point is new, so a kept vector would only grow
    the cache, and each one is built and dropped.
    """

    def __init__(self, w: int, m: int):
        self.w = w
        self.m = m
        self.const_bit = 1 << (m * w)
        self.nbytes = 8 * -(-(m + 1) * w // 64)
        self._cache: dict[int, bytes] = {}
        self._keep = w in gf2.TABLE_WIDTHS

    def get(self, x: int) -> int:
        """X(x) as an int, the form the lazy scalar probe ANDs with."""
        v = self._cache.get(x)
        if v is None:
            v = self._build(x)
            if self._keep:
                self._cache[x] = v
        return int.from_bytes(v, "little")

    def get_many(self, xs: list[int]) -> list[bytes]:
        """X(x) for every x in xs, in order, as limb bytes; misses are built
        in one batch."""
        found = self._cache if self._keep else {}
        missing = [x for x in dict.fromkeys(xs) if x not in found]
        if missing:
            found.update(zip(missing, self._build_many(missing)))
        return [found[x] for x in xs]

    def _build(self, x: int) -> bytes:
        """One point, the miss of a scalar query: a batch of one."""
        return self._build_many([x])[0]

    def _build_many(self, xs: list[int]) -> list[bytes]:
        """The one place that picks a route: at w = 32/64 a batch below
        WIDE_BATCH_MIN points takes the byte-spread chain point by point;
        any other takes `gf2.odd_power_rows` (a table gather at w <= 16) on
        about FP_CHUNK_BYTES (WIDE_CHUNK_BYTES at w = 32/64) of power rows,
        8 bytes a power, at a time, not [len(xs), m] temporaries at once."""
        if not self._keep and len(xs) < WIDE_BATCH_MIN:
            return [(gf2.packed_odd_powers(x, self.m, self.w) | self.const_bit)
                    .to_bytes(self.nbytes, "little") for x in xs]
        for x in xs:
            if x >> self.w:
                raise ValueError(f"point {x} does not embed in GF(2^{self.w})")
        nbytes = FP_CHUNK_BYTES if self._keep else WIDE_CHUNK_BYTES
        step = max(1, nbytes // (8 * max(1, self.m)))
        nb = self.nbytes
        out: list[bytes] = []
        for i in range(0, len(xs), step):
            chunk = np.array(xs[i:i + step], dtype=np.uint64)
            rows = _pack_rows(gf2.odd_power_rows(chunk, self.m, self.w), 1, self.w).tobytes()
            out += [rows[j:j + nb] for j in range(0, len(rows), nb)]
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

    def fingerprints(self, xs: list[int]) -> list[int]:
        """All ell output bits at every x in xs, each packed with g_0 in the low bit.

        The X-vectors come from one `get_many`, as limb bytes; the AND matrix
        is then taken FP_CHUNK_BYTES of X-vectors at a time, each chunk one
        `b"".join` viewed as uint64 rows, and g_j(xs[i]) is the popcount
        parity of row i's limbs ANDed with g_j's and XORed together.
        """
        Xs = self.provider.get_many(xs)
        P = self._limbs
        limbs = P.shape[1]
        step = max(1, FP_CHUNK_BYTES // (8 * limbs))
        bits = np.empty((len(Xs), self.ell), dtype=np.uint8)
        for i in range(0, len(Xs), step):
            X = np.frombuffer(b"".join(Xs[i:i + step]), dtype="<u8").reshape(-1, limbs)
            for j in range(self.ell):
                bits[i:i + step, j] = np.bitwise_count(np.bitwise_xor.reduce(X & P[j], axis=1)) & 1
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
