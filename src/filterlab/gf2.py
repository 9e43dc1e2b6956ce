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
at once: by one table gather at w <= 16, and at w = 32 and 64 by a numpy
carry-less multiply on uint64 arrays, reduced by folding the high half with
the sparse low terms of the pinned modulus.  `packed_odd_powers` computes
the same powers for one point at w = 32 and 64, packed into one int, with
plain Python int multiplication: each bit of an element gets a byte of its
own, so an ordinary product holds the carry-less one in the low bit of
every byte, and the modulus is folded in the same spread domain.
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
    the out-of-range sentinel len(exp) and callers special-case zero."""
    if w not in TABLE_WIDTHS:
        raise ValueError(f"log/antilog tables only built for widths {TABLE_WIDTHS}")
    order, modulus = (1 << w) - 1, MODULI[w]
    exp = np.empty(order, dtype=np.int32)
    v = 1
    for i in range(order):
        exp[i] = v
        v <<= 1  # times x, reduced by the modulus when degree w appears
        if v >> w:
            v ^= modulus
    assert v == 1, "x must be primitive for the pinned modulus"
    log = np.full(1 << w, order, dtype=np.int32)  # log[0] keeps the sentinel
    log[exp] = np.arange(order, dtype=np.int32)
    return log, exp


def odd_power_rows(xs: np.ndarray, m: int, w: int) -> np.ndarray:
    """x, x^3, ..., x^(2m-1) in GF(2^w) for every point: an unsigned [len(xs), m] array.

    The points must already lie in [0, 2^w).
    """
    xs = np.asarray(xs, dtype=np.uint64)
    if w in TABLE_WIDTHS:
        log, exp = tables(w)
        odd = 2 * np.arange(m, dtype=np.int32) + 1  # log * odd < 2^31 at w <= 16
        out = exp[(log[xs][:, None] * odd) % len(exp)]
        out[xs == 0] = 0  # log[0] is a sentinel; every odd power of 0 is 0
        return out
    out = np.empty((len(xs), m), dtype=np.uint64)
    if m:
        out[:, 0] = xs
        x2 = _WideMultiplier(xs, w).times(xs)
        by_x2 = _WideMultiplier(x2, w)
        for i in range(1, m):
            out[:, i] = by_x2.times(out[:, i - 1])
    return out


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
    would pay dozens of per-call costs per product.  The chain of products
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
    """Multiplication by a fixed element b per point in GF(2^32) or GF(2^64).

    Carry-less products come from 32-bit limbs: a 16-entry table per point
    holds b's product with every nibble, so a 32x32-bit product is 8 gathers
    and its 63-bit result fits a uint64.  At w = 64 the 128-bit product takes
    three such limb products (Karatsuba).
    """

    def __init__(self, b: np.ndarray, w: int):
        self.w = w
        self.taps = [e for e in range(w) if MODULI[w] >> e & 1]
        # two folds reduce any product only while the low terms stay below w/2
        assert max(self.taps) < w // 2
        self.rows = 16 * np.arange(len(b), dtype=np.intp)
        if w == 32:
            self.limbs = (self._nibbles(b),)
        else:
            lo, hi = b & _LOW32, b >> 32
            self.limbs = (self._nibbles(lo), self._nibbles(hi), self._nibbles(lo ^ hi))

    @staticmethod
    def _nibbles(b: np.ndarray) -> np.ndarray:
        """Flat table: entry 16*i + v is clmul(b[i], v), for b below 2^32."""
        t = np.zeros((len(b), 16), dtype=np.uint64)
        for v in range(1, 16):
            low = v & -v
            t[:, v] = t[:, v ^ low] ^ (b << (low.bit_length() - 1))
        return t.ravel()

    def _clmul32(self, a: np.ndarray, table: np.ndarray) -> np.ndarray:
        r = table[self.rows + (a & 15).astype(np.intp)]
        for s in range(4, 32, 4):
            r ^= table[self.rows + ((a >> s) & 15).astype(np.intp)] << s
        return r

    def times(self, a: np.ndarray) -> np.ndarray:
        """a * b for every point, reduced by the pinned modulus."""
        if self.w == 32:
            r = self._clmul32(a, self.limbs[0])
            return self._reduce(r >> 32, r & _LOW32)
        t_lo, t_hi, t_mid = self.limbs
        a_lo, a_hi = a & _LOW32, a >> 32
        lo = self._clmul32(a_lo, t_lo)
        hi = self._clmul32(a_hi, t_hi)
        mid = self._clmul32(a_lo ^ a_hi, t_mid) ^ lo ^ hi
        return self._reduce(hi ^ (mid >> 32), lo ^ (mid << 32))

    def _reduce(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """(hi * x^w + lo) mod the modulus: x^w is replaced by its low terms."""
        w, mask = self.w, np.uint64((1 << self.w) - 1)
        for _ in range(2):
            over = np.zeros_like(hi)
            for e in self.taps:
                lo ^= (hi << e) & mask
                if e:
                    over ^= hi >> (w - e)
            hi = over
        return lo
