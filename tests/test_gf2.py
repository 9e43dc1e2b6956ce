import random

import numpy as np
import pytest

from filterlab import gf2
from filterlab.gfamily import _ints, _pack_rows


def _poly_gcd(a, b):
    while b:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        a, b = b, a
    return a


def is_irreducible(p):
    """Rabin irreducibility test for a degree-w polynomial over GF(2)."""
    w = p.bit_length() - 1
    if w < 1:
        return False

    def x_pow_2exp(j):
        v = 2
        for _ in range(j):
            v = gf2.gf_mod(gf2.clmul(v, v), p)
        return v

    if x_pow_2exp(w) != 2:
        return False
    n, q, primes = w, 2, []
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return all(_poly_gcd(x_pow_2exp(w // q) ^ 2, p) == 1 for q in primes)


def test_pinned_moduli_are_irreducible():
    for w, p in gf2.MODULI.items():
        assert p.bit_length() == w + 1
        assert is_irreducible(p), f"modulus for width {w} is reducible"


def test_is_irreducible_rejects_known_reducible():
    assert not is_irreducible(0x1100F)  # degree 16, reducible
    # squares of irreducibles are reducible
    assert not is_irreducible(gf2.clmul(0x13, 0x13))


@pytest.mark.parametrize("w", [4, 8])
def test_field_axioms_sampled(w):
    rng = random.Random(17)
    size = 1 << w
    for _ in range(300):
        a, b, c = (rng.randrange(size) for _ in range(3))
        assert gf2.gf_mul(a, b, w) == gf2.gf_mul(b, a, w)
        assert gf2.gf_mul(a, gf2.gf_mul(b, c, w), w) == gf2.gf_mul(gf2.gf_mul(a, b, w), c, w)
        assert gf2.gf_mul(a, b ^ c, w) == gf2.gf_mul(a, b, w) ^ gf2.gf_mul(a, c, w)
        assert gf2.gf_mul(a, 1, w) == a
        assert gf2.gf_mul(a, 0, w) == 0


@pytest.mark.parametrize("w", gf2.TABLE_WIDTHS)
def test_log_exp_tables_invert(w):
    log, exp = gf2.tables(w)
    order = (1 << w) - 1
    assert len(exp) == order
    for a in range(1, 1 << w):
        assert int(exp[log[a]]) == a
    # generator has full order: every nonzero element appears once
    assert len({int(exp[i]) for i in range(order)}) == order
    # exp[i] = x^i under the pinned modulus, with gf_mul as the reference
    assert int(exp[0]) == 1 and int(log[0]) == order
    assert all(int(exp[i + 1]) == gf2.gf_mul(int(exp[i]), 2, w)
               for i in range(order - 1))


def test_width_for():
    assert gf2.width_for(1) == 4
    assert gf2.width_for(4) == 4
    assert gf2.width_for(5) == 8
    assert gf2.width_for(13) == 16
    assert gf2.width_for(32) == 32
    assert gf2.width_for(64) == 64
    with pytest.raises(ValueError):
        gf2.width_for(65)


def test_gf_pow_matches_repeated_mul():
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(1, 256)
        e = rng.randrange(0, 40)
        ref = 1
        for _ in range(e):
            ref = gf2.gf_mul(ref, a, 8)
        assert gf2.gf_pow(a, e, 8) == ref


@pytest.mark.parametrize("w", gf2.SUPPORTED_WIDTHS)
def test_odd_power_rows_match_gf_pow(w):
    # the batch route (a table gather, the tower's table reads, or the numpy
    # carry-less multiply with its two folds) against scalar powers; all-ones
    # points give the widest products
    rng = random.Random(w)
    top = (1 << w) - 1
    xs = [0, 1, 2, top, top ^ 1, 1 << (w - 1)] + [rng.randrange(1 << w) for _ in range(40)]
    for m in (0, 1, 6):
        rows = gf2.odd_power_rows(np.array(xs, dtype=np.uint64), m, w)
        assert rows.shape == (len(xs), m)
        assert [[int(v) for v in row] for row in rows] == \
               [[gf2.gf_pow(x, 2 * i + 1, w) for i in range(m)] for x in xs]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("w", [32, 64])
def test_odd_power_rows_of_tiny_wide_batches(w, n):
    # the w = 64 [8, points] nibble gather and [taps, points] folds, and the
    # w = 32 tower split, at their smallest shapes, with the widest point first
    xs = [(1 << w) - 1, 1 << (w - 1)][:n]
    for m in (1, 3):
        rows = gf2.odd_power_rows(np.array(xs, dtype=np.uint64), m, w)
        assert rows.shape == (n, m)
        assert [[int(v) for v in row] for row in rows] == \
               [[gf2.gf_pow(x, 2 * i + 1, w) for i in range(m)] for x in xs]


@pytest.mark.parametrize("m", [0, 1, 2, 11, 683])
@pytest.mark.parametrize("w", [32, 64])
def test_packed_odd_powers_match_batch_rows_and_gf_pow(w, m):
    # the byte-spread chain of one point against the numpy batch route,
    # packed as the X-vectors are, and against field powers; all-ones points
    # give the largest byte sums before each fold
    rng = random.Random(1000 * w + m)
    top = (1 << w) - 1
    xs = [0, 1, 2, top, top ^ 1, 1 << (w - 1)] + [rng.randrange(1 << w) for _ in range(8)]
    rows = gf2.odd_power_rows(np.array(xs, dtype=np.uint64), m, w)
    packed = [gf2.packed_odd_powers(x, m, w) for x in xs]
    assert packed == _ints(_pack_rows(rows, 0, w))
    slots = range(m) if m <= 11 else [0, 1, 2, 341, m - 2, m - 1]
    for x, v in zip(xs, packed):
        assert v >> (m * w) == 0
        assert [(v >> (i * w)) & top for i in slots] == [gf2.gf_pow(x, 2 * i + 1, w) for i in slots]


def test_packed_odd_powers_rejects_points_outside_the_field():
    with pytest.raises(ValueError):
        gf2.packed_odd_powers(1 << 32, 3, 32)


def test_odd_power_rows_do_not_overflow_at_large_m():
    # the game FilterParams(n=64, eps=2**-2, t=40000, u_bits=16) has
    # k = 40,000, so m = 20,000 powers over GF(2^16); log(0x8805) = 65,534,
    # and log * (2i + 1) passes 2^31 from i = 16,385 on, where an int32
    # product wrapped (x^39,999 read 15,723)
    m, x = 20_000, 0x8805
    assert int(gf2.tables(16)[0][x]) == 65_534
    rows = gf2.odd_power_rows(np.array([x, 0, 1], dtype=np.uint64), m, 16)
    for i in (16_383, 16_384, 16_385, m - 1):
        assert int(rows[0, i]) == gf2.gf_pow(x, 2 * i + 1, 16)
    assert int(rows[0, m - 1]) == 31_446
    assert not rows[1].any() and (rows[2] == 1).all()


def _mul16(a, b):
    return gf2.gf_mul(a, b, 16)


def _tower_mul(a, b):
    """Schoolbook product in GF(2^16)[z]/(z^2 + z + TOWER_LAMBDA), hi*z + lo
    as hi << 16 | lo: z^2 = z + lambda."""
    a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    zz = _mul16(a1, b1)
    return (zz ^ _mul16(a1, b0) ^ _mul16(a0, b1)) << 16 | (_mul16(gf2.TOWER_LAMBDA, zz)
                                                            ^ _mul16(a0, b0))


def _norm(v):
    hi, lo = v >> 16, v & 0xFFFF
    return _mul16(gf2.TOWER_LAMBDA, _mul16(hi, hi)) ^ _mul16(hi, lo) ^ _mul16(lo, lo)


def _to_tower(xs):
    return [int(v) for v in gf2._apply_bytes(gf2._tower().to_tower, np.array(xs, dtype=np.int64))]


def _from_tower(v):
    """The polynomial-basis element of a tower element, read off the
    tower's own antilog images of x^k * z and x^k."""
    tower, log = gf2._tower(), gf2.tables(16)[0]
    hi, lo = v >> 16, v & 0xFFFF
    return (int(tower.hi[log[hi]]) if hi else 0) ^ (int(tower.lo[log[lo]]) if lo else 0)


def _u_element(j):
    """mu^j as a tower element, from the U table's logs."""
    tower, exp = gf2._tower(), gf2.tables(16)[1]
    hi, lo = (int(t[j]) for t in (tower.hi_log, tower.lo_log))
    part = [0 if e >= tower.ZERO else int(exp[e % len(exp)]) for e in (hi, lo)]
    return part[0] << 16 | part[1]


def test_tower_constants_are_pinned():
    lam, trace = gf2.TOWER_LAMBDA, []
    for a in range(lam + 1):
        t, v = 0, a
        for _ in range(16):
            t, v = t ^ v, _mul16(v, v)
        trace.append(t)
    # the least element of absolute trace 1: z^2 + z + lambda is irreducible
    assert trace[lam] == 1 and not any(trace[:lam])
    # theta is a root of the pinned degree-32 modulus, and x's image
    acc, power = 0, 1
    for i in range(33):
        if gf2.MODULI[32] >> i & 1:
            acc ^= power
        power = _tower_mul(power, gf2.TOWER_THETA)
    assert acc == 0
    assert _to_tower([2]) == [gf2.TOWER_THETA]


def test_basis_change_is_a_field_isomorphism():
    rng = random.Random(32)
    edge = [0, 1, 0xFFFFFFFF, 1 << 31]
    xs = edge + [rng.randrange(1 << 32) for _ in range(60)]
    assert [_from_tower(v) for v in _to_tower(xs)] == xs
    vs = edge + [rng.randrange(1 << 32) for _ in range(60)]
    assert _to_tower([_from_tower(v) for v in vs]) == vs
    pairs = [(a, b) for a in edge for b in edge] + list(zip(xs, reversed(xs)))
    products = _to_tower([gf2.gf_mul(a, b, 32) for a, b in pairs])
    images = dict(zip(xs, _to_tower(xs)))
    assert products == [_tower_mul(images[a], images[b]) for a, b in pairs]


def test_norm_one_subgroup_table():
    tower, (log, exp) = gf2._tower(), gf2.tables(16)
    u = tower.U_ORDER
    assert u == 65_537 and len(tower.hi_log) == len(tower.lo_log) == u
    # every entry has norm 1: lambda*hi^2 + hi*lo + lo^2 = 1, in logs
    n, zero = len(exp), tower.ZERO
    hi, lo = tower.hi_log.astype(np.int64), tower.lo_log.astype(np.int64)

    def at(e, *zeros):
        r = exp[e % n]
        r[np.logical_or.reduce(zeros)] = 0
        return r

    norm = (at(int(log[gf2.TOWER_LAMBDA]) + 2 * hi, hi >= zero) ^ at(hi + lo, hi >= zero, lo >= zero)
            ^ at(2 * lo, lo >= zero))
    assert (norm == 1).all()
    # entry j is mu^j: the first two, and products with mu at sampled j
    assert _u_element(0) == 1 and _norm(_u_element(1)) == 1
    rng = random.Random(65_537)
    for j in [0, 1, 2, u - 2, u - 1] + rng.sample(range(u), 40):
        assert _tower_mul(_u_element(j), _u_element(1)) == _u_element((j + 1) % u)
    # every index round-trips through the point split, so the entries are distinct
    lc, lu = tower.split(np.array([_from_tower(_u_element(j)) for j in range(u)], dtype=np.int64))
    assert (lc == 0).all() and np.array_equal(lu, np.arange(u))


def _tower_points():
    """Points of every kind the tower route tells apart: 0, 1, the top bit,
    all ones, images of GF(2^16) (u = 1), points whose low tower half is 0
    (one of them the power of mu whose low half is 0), and random points."""
    tower, rng = gf2._tower(), random.Random(1 << 16)
    j0 = int(np.flatnonzero(tower.lo_log == tower.ZERO)[0])
    low_zero = [_u_element(j0)] + [a << 16 for a in (1, 2, 0xFFFF, rng.randrange(1, 1 << 16))]
    on_subfield = [2, 0x2000, 0xFFFF, rng.randrange(1, 1 << 16)]
    return ([0, 1, 1 << 31, 0xFFFFFFFF] + [_from_tower(v) for v in on_subfield + low_zero]
            + [rng.randrange(1 << 32) for _ in range(4)])


@pytest.mark.parametrize("m", [0, 1, 2, 11, 683, 2048])
def test_tower_rows_match_gf_pow(m):
    xs = _tower_points()
    rows = gf2.odd_power_rows(np.array(xs, dtype=np.uint64), m, 32)
    assert rows.shape == (len(xs), m)
    slots = range(m) if m <= 11 else [0, 1, 2, 341, m - 2, m - 1]
    for x, row in zip(xs, rows):
        assert [int(row[i]) for i in slots] == [gf2.gf_pow(x, 2 * i + 1, 32) for i in slots]
        if m > 11:  # every power, by a scalar chain of products by x^2
            x2, chain = gf2.gf_mul(x, x, 32), [x]
            for _ in range(m - 1):
                chain.append(gf2.gf_mul(chain[-1], x2, 32))
            assert [int(v) for v in row] == chain
