"""Binary extension field arithmetic GF(2^w).

Field elements are Python ints in [0, 2^w) interpreted as polynomials over
GF(2); multiplication is carry-less polynomial multiplication reduced by a
fixed irreducible modulus.  The moduli are pinned so that results are
bit-exact across implementations:

    w = 4   x^4 + x + 1                      (0x13)
    w = 8   x^8 + x^4 + x^3 + x^2 + 1        (0x11D)
    w = 16  x^16 + x^12 + x^3 + x + 1        (0x1100B)
    w = 32  x^32 + x^7 + x^3 + x^2 + 1       (0x10000008D)
    w = 64  x^64 + x^4 + x^3 + x + 1         (0x1000000000000001B)

For w <= 16 the polynomial x is a primitive element of these fields, so
discrete-log/antilog tables with generator x are available (`tables`).
`odd_power_rows` computes x, x^3, ..., x^(2m-1) for a whole array of points
at once, by table reads wherever the tables fit: at w <= 16 one gather per
point and power; at w = 32 through the tower GF(2^16)[z]/(z^2 + z + lambda)
(`_Tower`), where each point splits into a GF(2^16) part and a part in the
norm-1 subgroup of order 2^16 + 1, and every power of each part is a table
read, so a point and power cost two gathers of logs and two of values; and
at w = 64, where that subgroup has 2^32 + 1 elements, by a numpy carry-less
multiply on uint64 arrays, one gather of every nibble of every point per
32-bit limb product, reduced by folding the high half with all of the
sparse low terms of the pinned modulus at once.  `packed_odd_powers`
computes the same powers for one point at w = 32 and 64, packed into one
int, with plain Python int multiplication: each bit of an element gets a
byte of its own, so an ordinary product holds the carry-less one in the low
bit of every byte, and the modulus is folded in the same spread domain.
"""

from __future__ import annotations

import functools

import numpy as np

MODULI = {
    4: 0x13,
    8: 0x11D,
    16: 0x1100B,
    32: 0x10000008D,
    64: 0x1000000000000001B,
}

SUPPORTED_WIDTHS = tuple(sorted(MODULI))

# Widths small enough for full log/antilog tables.
TABLE_WIDTHS = (4, 8, 16)


def width_for(bits: int) -> int:
    """Smallest supported field width >= bits."""
    for w in SUPPORTED_WIDTHS:
        if w >= bits:
            return w
    raise ValueError(f"no supported field width covers {bits} bits")


def clmul(a: int, b: int) -> int:
    """Carry-less product of two nonnegative ints (GF(2)[x] multiplication)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf_mod(a: int, p: int) -> int:
    """Reduce polynomial a modulo p over GF(2)."""
    dp = p.bit_length()
    while a.bit_length() >= dp:
        a ^= p << (a.bit_length() - dp)
    return a


def gf_mul(a: int, b: int, w: int) -> int:
    """Multiply in GF(2^w) using the pinned modulus."""
    return gf_mod(clmul(a, b), MODULI[w])


def gf_pow(a: int, e: int, w: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, a, w)
        a = gf_mul(a, a, w)
        e >>= 1
    return r


@functools.cache
def tables(w: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp), the int32 log/antilog tables of GF(2^w) with generator x,
    for a table-sized width: exp[i] = x^i for i below the order 2^w - 1 =
    len(exp), and log[exp[i]] = i.  Zero has no discrete log; log[0] holds
    the out-of-range sentinel len(exp) and callers special-case zero.

    exp is built by doubling: exp[h:2h] is exp[:h] times x^h, a GF(2)-linear
    map read off one byte table per byte of the element; log is one scatter."""
    if w not in TABLE_WIDTHS:
        raise ValueError(f"log/antilog tables only built for widths {TABLE_WIDTHS}")
    order = (1 << w) - 1
    log = np.full(1 << w, order, dtype=np.int32)  # log[0] keeps the sentinel
    exp = np.empty(order, dtype=np.int32)
    exp[0] = 1
    h, xh = 1, 2  # xh = x^h
    while h < order:
        n = min(h, order - h)
        exp[h:h + n] = _apply_bytes(_linear_tables(_times_images(xh, w)), exp[:n])
        h, xh = 2 * h, gf_mul(xh, xh, w)
    assert gf_mul(int(exp[-1]), 2, w) == 1, "x must be primitive for the pinned modulus"
    log[exp] = np.arange(order, dtype=np.int32)
    return log, exp


def _times_images(a: int, w: int) -> list[int]:
    """a, a*x, ..., a*x^(w-1) in GF(2^w): the images of the bits of an
    element under multiplication by a."""
    out = [a]
    for _ in range(w - 1):
        a <<= 1
        if a >> w:
            a ^= MODULI[w]
        out.append(a)
    return out


def _linear_tables(images: list[int]) -> np.ndarray:
    """Flat byte tables of the GF(2)-linear map that sends bit i to
    images[i] (each below 2^32): entry 256*k + v is the image of v << 8k.
    Built by doubling: entries [h, 2h) of a table are entries [0, h) XOR
    the image of h."""
    t = np.zeros((-(-len(images) // 8), 256), dtype=np.uint32)
    for i, image in enumerate(images):
        k, h = divmod(i, 8)
        np.bitwise_xor(t[k, :1 << h], image, out=t[k, 1 << h:2 << h])
    return t.ravel()


def _apply_bytes(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The linear map of byte tables from `_linear_tables` at every v (a
    nonnegative int array): one gather of every byte of every element."""
    nbytes = len(table) // 256
    idx = v >> np.arange(0, 8 * nbytes, 8)[:, None]
    idx &= 255
    idx += 256 * np.arange(nbytes)[:, None]
    return np.bitwise_xor.reduce(table.take(idx), axis=0)


def odd_power_rows(xs: np.ndarray, m: int, w: int) -> np.ndarray:
    """x, x^3, ..., x^(2m-1) in GF(2^w) for every point: an unsigned [len(xs), m] array.

    The points must already lie in [0, 2^w).
    """
    xs = np.asarray(xs, dtype=np.uint64)
    if w in TABLE_WIDTHS:
        log, exp = tables(w)
        out = exp.take(_times_odd(log[xs], m, len(exp)))
        out[xs == 0] = 0  # log[0] is a sentinel; every odd power of 0 is 0
        return out
    if w == 32:
        return _tower().odd_power_rows(xs.view(np.int64), m)
    out = np.empty((m, len(xs)), dtype=np.uint64)  # one contiguous row per power
    if m:
        out[0] = xs
        x2 = _WideMultiplier(xs).times(xs)
        by_x2 = _WideMultiplier(x2)
        for i in range(1, m):
            out[i] = by_x2.times(out[i - 1])
    return out.T


def _times_odd(logs: np.ndarray, m: int, order: int) -> np.ndarray:
    """logs[p] * (2i + 1) mod order for every point p and i < m, as a uint32
    [len(logs), m] array, for logs at most 2^16 - 1 and an order at most
    2^16: the odd factors are reduced first, so every product fits a uint32."""
    odd = ((2 * np.arange(m, dtype=np.int64) + 1) % order).astype(np.uint32)
    out = logs.astype(np.uint32)[:, None] * odd
    out %= order
    return out


# GF(2^32) as the tower GF(2^16)[z]/(z^2 + z + TOWER_LAMBDA), a composite
# field in the sense of Paar (1994), an element hi*z + lo held as the int
# hi << 16 | lo.  TOWER_LAMBDA is the least element of GF(2^16) of absolute
# trace 1, so the quadratic is irreducible; the basis change sends x to
# TOWER_THETA, a root of the pinned degree-32 modulus in the tower, so it
# is a field isomorphism.
TOWER_LAMBDA = 0x2000
TOWER_THETA = 0x0B440225


def _tower_mul(a: int, b: int) -> int:
    """(a1 z + a0)(b1 z + b0) in the tower, with z^2 = z + TOWER_LAMBDA."""
    a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    hi, lo = gf_mul(a1, b1, 16), gf_mul(a0, b0, 16)
    return (gf_mul(a1 ^ a0, b1 ^ b0, 16) ^ lo) << 16 | gf_mul(TOWER_LAMBDA, hi, 16) ^ lo


def _inverse_images(images: list[int]) -> list[int]:
    """Images of the unit vectors under the inverse of the invertible
    GF(2)-linear map that sends bit i to images[i] (Gauss-Jordan)."""
    rows = [(image, 1 << i) for i, image in enumerate(images)]
    for bit in range(len(rows)):
        k = next(k for k in range(bit, len(rows)) if rows[k][0] >> bit & 1)
        rows[bit], rows[k] = rows[k], rows[bit]
        pivot, pre = rows[bit]
        rows = [(image ^ pivot, p ^ pre) if k != bit and image >> bit & 1 else (image, p)
                for k, (image, p) in enumerate(rows)]
    return [p for _, p in rows]


class _Tower:
    """Odd powers in GF(2^32) read off GF(2^16) tables, through the tower.

    The norm N(v) = v^(2^16 + 1) = lambda*hi^2 + hi*lo + lo^2 of a tower
    element lies in GF(2^16).  The multiplicative group splits as
    GF(2^16)* x U, U the elements of norm 1, cyclic of prime order 2^16 + 1:
    every v != 0 is c*u with c = sqrt(N(v)) in GF(2^16)* and u = v/c in U.
    So v^e = c^e * u^e, where c^e = x^(e log c mod 2^16 - 1) and
    u^e = mu^(e log_mu u mod 2^16 + 1) are both table reads.

    Every u != 1 in U is u_s = (z + s + 1)/(z + s) for exactly one s in
    GF(2^16).  That is (z + r)/N with r = s^2 + 1 + lambda and N = N(z + s)
    = s^2 + s + lambda, so its components are 1/N and r/N.  u_s * u_t = u_q
    with q = (lambda + st)/(1 + s + t), or 1 when s + t = 1, so the
    parameters of mu^1 .. mu^(2^16), mu = u_0, are built by doubling in that
    law.  A point v = a z + b with a != 0 is a (z + r), r = b/a, so it is
    c * u_s with r = s^2 + 1 + lambda and c = a N: `u_log` over log r
    (r = 0 at 2^16 - 1) gives j = log_mu u, less one to fit a uint16, and
    log c - log a = log N = -hi_log[j].  (For a = 0, v = b: c = b, u = 1.)

    Tables read once per point and power: `hi_log[j]` and `lo_log[j]`, the
    logs of mu^j's components (at least ZERO for a zero component), and
    `hi` and `lo`, the polynomial-basis images of x^k * z and of x^k, x the
    generator of GF(2^16), for k < ZERO = 2 (2^16 - 1), a zero after them.
    With L = e log c mod 2^16 - 1 and j = e log_mu u mod 2^16 + 1,
    v^e = hi[L + hi_log[j]] ^ lo[L + lo_log[j]], every index past ZERO
    clipped to that zero: one gather of each per point and power.
    """

    C_ORDER = 0xFFFF  # |GF(2^16)*|
    U_ORDER = 0x10001  # |U|, a prime
    ZERO = 2 * C_ORDER

    def __init__(self):
        log, exp = tables(16)
        n, zero, u = self.C_ORDER, self.ZERO, self.U_ORDER
        # the kept tables come first, and the temporaries after them are one
        # doubling block each, or one table over GF(2^16): a temporary freed
        # below a kept table would stay resident as a hole in the heap
        self.hi = np.zeros(zero + 1, dtype=np.uint32)
        self.lo = np.zeros(zero + 1, dtype=np.uint32)
        self.hi_log = np.empty(u, dtype=np.int32)
        self.lo_log = np.empty(u, dtype=np.int32)
        self.u_log = np.empty(n + 1, dtype=np.uint16)
        images = [1]
        for _ in range(31):
            images.append(_tower_mul(images[-1], TOWER_THETA))
        self.to_tower = _linear_tables(images)
        back = _inverse_images(images)
        for table, part in ((self.hi, back[16:]), (self.lo, back[:16])):
            low, high = _linear_tables(part).reshape(2, 256)
            (high[:, None] ^ low).ravel().take(exp, out=table[:n])  # over all 2^16
            table[n:zero] = table[:n]

        # s_j, the parameter of mu^j, held in hi_log[j] until every block
        # (h, 2h] is built, each from the ones before it.  s_j = 0 only at
        # j = 1, so the one zero factor is the first, and no quotient is 0.
        s = self.hi_log
        s[1], s[2] = 0, TOWER_LAMBDA  # mu^2 = u_0 * u_0: lambda + 0*0
        blocks = [slice(1, 3)]
        while blocks[-1].stop < u:
            h = blocks[-1].stop - 1
            t, prev = int(s[h]), s[1:h + 1]
            num = exp.take((log.take(prev) + int(log[t])) % n)
            num[0] = 0  # s_1 * t
            num ^= TOWER_LAMBDA
            # 1 + s_i + s_h != 0: mu^(i+h) != 1 while i + h < |U|
            s[h + 1:2 * h + 1] = exp.take((log.take(num) + n - log.take(prev ^ (1 ^ t))) % n)
            blocks.append(slice(h + 1, 2 * h + 1))
        for block in blocks:
            sb = s[block]
            r = exp.take(2 * log.take(sb) % n)
            if block.start == 1:
                r[0] = 0  # s_1^2
            r ^= 1 ^ TOWER_LAMBDA
            log_norm = log.take(r ^ sb ^ 1)  # s^2 + s + lambda never vanishes
            log_r = log.take(r)  # 2^16 - 1 at r = 0, the index the split uses
            hi_log, lo_log = self.hi_log[block], self.lo_log[block]
            np.subtract(n, log_norm, out=hi_log)  # overwrites s, now read
            np.add(log_r, hi_log, out=lo_log)
            lo_log %= n
            lo_log[r == 0] = zero
            self.u_log[log_r] = np.arange(block.start - 1, block.stop - 1)
        self.hi_log[0], self.lo_log[0] = zero, 0  # mu^0 = 1

    def split(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log c, log_mu u) of every int64 point below 2^32, the point's
        image in the tower being c*u; a point 0 gets an unused log c."""
        log = tables(16)[0]
        n = self.C_ORDER
        v = _apply_bytes(self.to_tower, xs)
        a, b = v >> 16, v & 0xFFFF
        la, lb = log[a], log[b]
        k = (lb + n - la) % n  # operands kept nonnegative: a faster remainder
        k[b == 0] = n
        lu = self.u_log.take(k).astype(np.int32) + 1
        lc = (la + n - self.hi_log.take(lu)) % n
        on_subfield = a == 0  # v = b: c = b, u = 1
        lc[on_subfield] = lb[on_subfield]
        lu[on_subfield] = 0
        return lc, lu

    def odd_power_rows(self, xs: np.ndarray, m: int) -> np.ndarray:
        """As `odd_power_rows` at w = 32, for int64 points below 2^32."""
        lc, lu = self.split(xs)
        ec = _times_odd(lc, m, self.C_ORDER)
        # log_mu u and the odd factor reduced mod 2^16 + 1 reach 2^16: int64
        eu = lu[:, None] * ((2 * np.arange(m, dtype=np.int64) + 1) % self.U_ORDER)
        eu %= self.U_ORDER
        hi_log, lo_log = self.hi_log.take(eu), self.lo_log.take(eu)
        np.add(ec, hi_log, out=eu)
        out = self.hi.take(eu, mode="clip")
        np.add(ec, lo_log, out=eu)
        out ^= self.lo.take(eu, mode="clip")
        out[xs == 0] = 0
        return out


@functools.cache
def _tower() -> _Tower:
    return _Tower()


class _Spread:
    """Constants of GF(2^w) arithmetic in the byte-spread domain.

    An element is spread by giving each of its bits a byte of its own: bit
    i becomes byte i of an int (its low bit).  The plain integer product of
    two spread elements then holds in byte k the number of bit pairs with
    i + j = k, at most w < 256, so no carry crosses a byte and the low bit
    of each byte is the carry-less product.  x^w is replaced by the spread
    low terms of the modulus (`taps`) twice, as `_WideMultiplier._reduce`
    does; with every byte cut back to its low bit first, the folds sum at
    most 1 + 4 and then 5 + 4*5 into a byte.
    """

    def __init__(self, w: int):
        low = [e for e in range(w) if MODULI[w] >> e & 1]
        assert max(low) < w // 2 and len(low) <= 4
        self.shift = 8 * w
        self.ones = int.from_bytes(b"\x01" * w, "big")
        self.ones2 = int.from_bytes(b"\x01" * (2 * w), "big")
        self.low = (1 << self.shift) - 1
        self.taps = sum(1 << (8 * e) for e in low)
        self.fmt = f"0{w}b"

    def spread(self, x: int) -> int:
        # the ASCII digits '0'/'1' are 0x30/0x31: their low bits are x's bits
        return int.from_bytes(format(x, self.fmt).encode(), "big") & self.ones

    def mul(self, a: int, b: int) -> int:
        c = a * b & self.ones2
        c = (c & self.low) + (c >> self.shift) * self.taps
        c = (c & self.low) + (c >> self.shift) * self.taps
        return c & self.ones


_SPREADS = {w: _Spread(w) for w in (32, 64)}
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def packed_odd_powers(x: int, m: int, w: int) -> int:
    """x, x^3, ..., x^(2m-1) in GF(2^w), w = 32 or 64, packed into one int:
    x^(2i+1) at bits [i*w, (i+1)*w).

    One point's powers, as a query miss needs them: a numpy batch of one
    pays the fixed cost of some 40 numpy calls at w = 32, which beats this
    chain only at large m (`gfamily.TOWER_POWERS_MIN`), and of about 20
    per product at w = 64.  The chain of products
    by x^2 runs on byte-spread ints (`_Spread`), and the spread powers are
    packed back by reading their bytes as the binary digits of one int.
    """
    if x >> w:
        raise ValueError(f"point {x} does not embed in GF(2^{w})")
    if m == 0:
        return 0
    sp = _SPREADS[w]
    a = sp.spread(x)
    x2 = sp.mul(a, a)
    powers = [a]
    for _ in range(m - 1):
        a = sp.mul(a, x2)
        powers.append(a)
    digits = b"".join(p.to_bytes(w, "big") for p in reversed(powers))
    return int(digits.translate(_TO_DIGITS), 2)


_LOW32 = np.uint64(0xFFFFFFFF)


class _WideMultiplier:
    """Multiplication by a fixed element b per point in GF(2^64).

    Carry-less products come from 32-bit limbs: a 16-entry table per point
    holds a limb's product with every nibble, so a 32x32-bit product is one
    gather of all eight nibbles of every point, shifted into place and
    XORed together, and its 63-bit result fits a uint64.  The 128-bit
    product takes three such limb products (Karatsuba).  The arrays of a
    product are [8, points], so that each nibble is a contiguous row.
    GF(2^32) needs none of this: its powers are read off tables (`_Tower`),
    which GF(2^64) would need 2^32 + 1 entries of.
    """

    def __init__(self, b: np.ndarray):
        taps = [e for e in range(64) if MODULI[64] >> e & 1]
        # two folds reduce any product only while the low terms stay below x^32
        assert max(taps) < 32
        self.taps = np.array(taps, dtype=np.uint64)[:, None]
        self.spills = np.array([64 - e for e in taps if e], dtype=np.uint64)[:, None]
        self.rows = 16 * np.arange(len(b), dtype=np.uint64)
        self.shifts = np.arange(0, 32, 4, dtype=np.uint64)[:, None]  # one row per nibble
        lo, hi = b & _LOW32, b >> 32
        self.limbs = (self._nibbles(lo), self._nibbles(hi), self._nibbles(lo ^ hi))

    @staticmethod
    def _nibbles(b: np.ndarray) -> np.ndarray:
        """Flat table: entry 16*i + v is clmul(b[i], v), for b below 2^32.
        Built by doubling: entries [h, 2h) are entries [0, h) XOR b*h."""
        t = np.zeros((len(b), 16), dtype=np.uint64)
        t[:, 1] = b
        for s in range(1, 4):
            h = 1 << s
            np.bitwise_xor(t[:, :h], (b << s)[:, None], out=t[:, h:2 * h])
        return t.ravel()

    def _clmul32(self, a: np.ndarray, table: np.ndarray) -> np.ndarray:
        idx = a >> self.shifts
        idx &= 15
        idx |= self.rows
        r = table.take(idx.view(np.intp))  # indices below 2^63: no intp copy
        r <<= self.shifts
        return np.bitwise_xor.reduce(r, axis=0)

    def times(self, a: np.ndarray) -> np.ndarray:
        """a * b for every point, reduced by the pinned modulus."""
        t_lo, t_hi, t_mid = self.limbs
        a_lo, a_hi = a & _LOW32, a >> 32
        lo = self._clmul32(a_lo, t_lo)
        hi = self._clmul32(a_hi, t_hi)
        mid = self._clmul32(a_lo ^ a_hi, t_mid) ^ lo ^ hi
        return self._reduce(hi ^ (mid >> 32), lo ^ (mid << 32))

    def _reduce(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """(hi * x^64 + lo) mod the modulus: x^64 is replaced by its low
        terms, all taps at once.  The bits the first fold pushes past x^64
        (`spill`) lie below x^max(taps), so the second fold stays below x^64."""
        lo ^= np.bitwise_xor.reduce(hi << self.taps, axis=0)
        spill = np.bitwise_xor.reduce(hi >> self.spills, axis=0)
        lo ^= np.bitwise_xor.reduce(spill << self.taps, axis=0)
        return lo
