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
    # the batch route (table gather, or the numpy carry-less multiply with its
    # two folds) against scalar powers; all-ones points give the widest products
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
    # the [8, points] nibble gather and the [taps, points] folds at their
    # smallest shapes, with the widest point first
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
